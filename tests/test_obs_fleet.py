"""Tests for cross-cell fleet aggregation over a sweep's ledger slice.

The load-bearing property is the conservation check: per-request phase
sums telescope to root durations, so ``(Σ phase_means + residual) · n``
summed across any subset of cells must reconcile exactly (to float
tolerance) with the summed response-time totals — hypothesis drives
random cell subsets through the identity, and a corrupted artifact must
trip it.
"""

import itertools
import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.obs.fleet import (
    CONSERVATION_REL_TOL,
    conservation_check,
    fleet_report,
    select_sweep,
)
from repro.obs.ledger import Ledger, load_ledger
from repro.obs.reports import render_fleet_report
from repro.obs.schema import (
    OUTPUT_SCHEMA_VERSION,
    REPORT_KINDS,
    as_report,
    check_report,
)


def fake_clock():
    counter = itertools.count()
    return lambda: 1_700_000_000.0 + float(next(counter))


def attr_doc(requests, phases, residual, binding=None):
    """A self-consistent attribution artifact (identity holds exactly)."""
    mean = sum(phases.values()) + residual
    return as_report("attribution", {
        "requests": requests,
        "mean_response_ms": mean,
        "mean_residual_ms": residual,
        "phase_means_ms": dict(phases),
        "by_class": {},
        "binding_resource": (
            {"resource": binding, "utilization": 0.9} if binding else None
        ),
    })


def build_sweep_ledger(tmp_path, cells):
    """Write a sweep + cell ledger (artifact paths ledger-relative)."""
    path = tmp_path / "ledger.jsonl"
    ledger = Ledger(str(path), clock=fake_clock())
    sweep = ledger.append(
        "sweep", figure="fig2", cells=len(cells), workers=2,
        progress={"elapsed_s": 10.0, "cells_per_s": 0.4, "done": len(cells),
                  "failed": sum(1 for c in cells if not c.get("ok", True))},
        artifacts={},
    )
    for i, c in enumerate(cells):
        ok = c.get("ok", True)
        artifacts = {}
        if ok and "phases" in c:
            rel = f"cell-{i:04d}-attr.json"
            (tmp_path / rel).write_text(json.dumps(attr_doc(
                c.get("requests", 100), c["phases"],
                c.get("residual", 1.0), c.get("binding"),
            ), indent=2, sort_keys=True))
            artifacts["attribution"] = rel
        summary = {}
        if ok:
            summary = {
                "throughput_rps": c.get("rps", 100.0),
                "mean_response_ms": 5.0,
                "hit_rate_total": 0.5,
                "p95_ms": c.get("p95", 8.0),
                "p99_ms": c.get("p99", 9.0),
                "binding_resource": c.get("binding"),
            }
        fields = dict(
            cell_index=i, system=c["system"],
            workload=c.get("workload", "rutgers"), num_nodes=4,
            mem_mb_per_node=c.get("mem", 4), num_clients=8, seed=0,
            params_digest="0" * 16, wall_s=1.0 + i, worker=f"w{i % 2}",
            summary=summary, artifacts=artifacts,
        )
        if not ok:
            fields["error"] = c.get("error", "RuntimeError: boom")
        ledger.append("cell", status="ok" if ok else "failed",
                      parent=sweep["run_id"], **fields)
    return path, sweep


# ---------------------------------------------------------------------------
# sweep selection
# ---------------------------------------------------------------------------
class TestSelectSweep:
    def test_latest_by_default(self, tmp_path):
        path, _first = build_sweep_ledger(tmp_path, [{"system": "press"}])
        ledger = Ledger(str(path), clock=fake_clock())
        second = ledger.append("sweep", figure="fig2", cells=0, workers=1)
        sweep, cells = select_sweep(load_ledger(str(path)))
        assert sweep["run_id"] == second["run_id"]
        assert cells == []

    def test_errors(self, tmp_path):
        with pytest.raises(ValueError, match="no sweep records"):
            select_sweep([{"kind": "cell"}])


# ---------------------------------------------------------------------------
# conservation check
# ---------------------------------------------------------------------------
cell_specs = st.lists(
    st.tuples(
        st.integers(min_value=1, max_value=10_000),          # requests
        st.lists(st.floats(min_value=0.0, max_value=1_000.0),
                 max_size=6),                                # phase means
        st.floats(min_value=0.0, max_value=100.0),           # residual
    ),
    min_size=1, max_size=10,
)


class TestConservation:
    @given(cell_specs)
    def test_identity_holds_over_random_cell_subsets(self, specs):
        """Any fleet of self-consistent cells reconciles exactly."""
        rows = []
        for n, phases, residual in specs:
            means = {f"phase{j}": v for j, v in enumerate(phases)}
            rows.append({"_attribution": {
                "requests": n,
                "mean_response_ms": sum(means.values()) + residual,
                "mean_residual_ms": residual,
                "phase_means_ms": means,
            }})
        check = conservation_check(rows)
        assert check["ok"]
        assert check["cells_checked"] == len(specs)
        assert check["error_ms"] <= check["bound_ms"]
        assert check["bound_ms"] == CONSERVATION_REL_TOL * max(
            1.0, abs(check["total_ms"]))

    def test_stale_artifact_trips_the_check(self, tmp_path):
        path, _ = build_sweep_ledger(tmp_path, [
            {"system": "press", "phases": {"disk.queue": 4.0}},
            {"system": "cc-kmc", "phases": {"disk.queue": 3.0}},
        ])
        # Corrupt one artifact: the recorded mean no longer telescopes.
        art = tmp_path / "cell-0000-attr.json"
        doc = json.loads(art.read_text())
        doc["mean_response_ms"] += 1.0
        art.write_text(json.dumps(doc))
        report = fleet_report(load_ledger(str(path)),
                              base_dir=str(tmp_path))
        assert not report["conservation"]["ok"]
        assert "VIOLATED" in render_fleet_report(report)

    def test_no_attributions_is_not_ok(self):
        check = conservation_check([{"_attribution": None}, {}])
        assert not check["ok"] and check["cells_checked"] == 0


# ---------------------------------------------------------------------------
# the fleet report
# ---------------------------------------------------------------------------
def _three_cell_fleet(tmp_path):
    return build_sweep_ledger(tmp_path, [
        {"system": "press", "mem": 4, "rps": 100.0, "binding": "disk",
         "phases": {"disk.queue": 6.0, "cpu.service": 1.0}},
        {"system": "press", "mem": 16, "rps": 220.0, "binding": "cpu",
         "phases": {"disk.queue": 2.0, "cpu.service": 1.5}},
        {"system": "cc-kmc", "mem": 4, "rps": 150.0, "binding": "disk",
         "phases": {"disk.queue": 4.0, "net.wire": 0.5}},
    ])


class TestFleetReport:
    def test_schema_round_trip(self, tmp_path):
        path, sweep = _three_cell_fleet(tmp_path)
        report = fleet_report(load_ledger(str(path)),
                              base_dir=str(tmp_path))
        assert "fleet" in REPORT_KINDS
        text = json.dumps(report, sort_keys=True, default=float)
        doc = json.loads(text)
        assert check_report(doc, "fleet") == "fleet"
        assert doc["schema_version"] == OUTPUT_SCHEMA_VERSION
        assert doc["sweep"]["run_id"] == sweep["run_id"]
        # the internal _attribution join never leaks into the report
        assert all(not k.startswith("_")
                   for cell in doc["cells"] for k in cell)

    def test_rollups(self, tmp_path):
        path, _ = _three_cell_fleet(tmp_path)
        report = fleet_report(load_ledger(str(path)),
                              base_dir=str(tmp_path))
        assert report["conservation"]["ok"]
        assert report["conservation"]["cells_checked"] == 3
        # most-frequent binder first, ties alphabetical
        assert list(report["binding_resources"].items()) == [
            ("disk", 2), ("cpu", 1)]
        assert report["phase_totals_ms"]["disk.queue"] == pytest.approx(
            (6.0 + 2.0 + 4.0) * 100)
        matrix = report["matrix"]
        assert matrix["traces"] == ["rutgers"]
        assert matrix["systems"] == ["press", "cc-kmc"]
        assert matrix["memories_mb"] == [4, 16]
        grid = matrix["throughput_rps"]["rutgers"]
        assert grid["press"] == [100.0, 220.0]
        assert grid["cc-kmc"] == [150.0, None]  # gap stays explicit

    def test_failed_cells_are_reported_not_aggregated(self, tmp_path):
        path, _ = build_sweep_ledger(tmp_path, [
            {"system": "press", "rps": 100.0, "binding": "disk",
             "phases": {"disk.queue": 4.0}},
            {"system": "cc-kmc", "ok": False,
             "error": "ValueError: unknown system"},
        ])
        report = fleet_report(load_ledger(str(path)),
                              base_dir=str(tmp_path))
        assert report["sweep"]["cells"] == 2
        assert report["sweep"]["cells_ok"] == 1
        assert report["sweep"]["cells_failed"] == 1
        assert report["failed_cells"][0]["error"] \
            == "ValueError: unknown system"
        assert report["binding_resources"] == {"disk": 1}
        rendered = render_fleet_report(report)
        assert "failed cells (1):" in rendered
        assert "ValueError: unknown system" in rendered

    def test_render_smoke(self, tmp_path):
        path, _ = _three_cell_fleet(tmp_path)
        report = fleet_report(load_ledger(str(path)),
                              base_dir=str(tmp_path))
        rendered = render_fleet_report(report)
        assert "fleet report — sweep" in rendered
        assert "conservation check [OK]" in rendered
        assert "binding-resource frequency" in rendered
        assert "throughput heatmap — rutgers" in rendered
        assert "per-cell summary" in rendered
        assert "wall-clock: 10.0s at 0.40 cells/s" in rendered
