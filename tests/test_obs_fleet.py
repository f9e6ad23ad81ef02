"""Tests for cross-cell fleet aggregation over a sweep's ledger slice.

The load-bearing property is the conservation check: per-request phase
sums telescope to root durations, so ``(Σ phase_means + residual) · n``
summed across any subset of cells must reconcile exactly (to float
tolerance) with the summed response-time totals — hypothesis drives
random cell subsets through the identity, and a corrupted attribution
must trip it.  A ledger is input from outside the program: a malformed
cell row is a one-line usage error, never a traceback.
"""

import itertools
import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.experiments import cli
from repro.obs.fleet import (
    CONSERVATION_REL_TOL,
    conservation_check,
    fleet_report,
    select_sweep,
)
from repro.obs.ledger import CELL_KEYS, LEDGER_VERSION, Ledger, load_ledger
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
    """A self-consistent attribution report (identity holds exactly)."""
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


def cell_row(i, c):
    """The version-3 ledger row a sweep worker builds for cell ``i`` of
    spec ``c``: every key of ``CELL_KEYS``, null where the cell produced
    no value; cell ``i`` takes ``wall`` seconds (default ``1 + i``) on
    worker ``w{i % 2}``."""
    row = dict.fromkeys(CELL_KEYS)
    row.update(
        index=i, system=c["system"], workload=c.get("workload", "rutgers"),
        num_nodes=4, mem_mb_per_node=c.get("mem", 4), num_clients=8, seed=0,
        params_digest="0" * 16, wall_s=c.get("wall", 1.0 + i),
        worker=f"w{i % 2}",
    )
    if not c.get("ok", True):
        row["error"] = c.get("error", "RuntimeError: boom")
        return row
    row.update(
        throughput_rps=c.get("rps", 100.0), mean_response_ms=5.0,
        hit_rate_total=0.5, p95_ms=c.get("p95", 8.0), p99_ms=c.get("p99", 9.0),
    )
    if "phases" in c:
        row["binding_resource"] = c.get("binding")
        row["attribution"] = attr_doc(
            c.get("requests", 100), c["phases"],
            c.get("residual", 1.0), c.get("binding"),
        )
    return row


def build_sweep_ledger(tmp_path, cells, elapsed_s=10.0):
    """Write a sweep + cell ledger of version-3 rows (:func:`cell_row`)."""
    path = tmp_path / "ledger.jsonl"
    ledger = Ledger(str(path), clock=fake_clock())
    sweep = ledger.append(
        "sweep", figure="fig2", cells=len(cells), workers=2,
        elapsed_s=elapsed_s, artifacts={},
    )
    for i, c in enumerate(cells):
        ledger.append("cell", status="ok" if c.get("ok", True) else "failed",
                      parent=sweep["run_id"], **cell_row(i, c))
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
        for records in ([], [{"kind": "cell"}]):
            with pytest.raises(ValueError, match="no sweep records"):
                select_sweep(records)


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
            rows.append({"attribution": {
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
        """A cell row whose inline attribution was edited after the run
        no longer telescopes, and the fleet check says so."""
        path, _ = build_sweep_ledger(tmp_path, [
            {"system": "press", "phases": {"disk.queue": 4.0}},
            {"system": "cc-kmc", "phases": {"disk.queue": 3.0}},
        ])
        records = load_ledger(str(path))
        assert fleet_report(records)["conservation"]["ok"]
        lines = path.read_text().splitlines()
        cell = json.loads(lines[1])
        cell["attribution"]["mean_response_ms"] += 1.0
        lines[1] = json.dumps(cell, sort_keys=True)
        path.write_text("\n".join(lines) + "\n")
        report = fleet_report(load_ledger(str(path)))
        assert not report["conservation"]["ok"]
        assert report["conservation"]["cells_checked"] == 2
        assert "VIOLATED" in render_fleet_report(report)

    def test_no_attributions_is_not_ok(self):
        check = conservation_check([{"attribution": None}, {}])
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
        report = fleet_report(load_ledger(str(path)))
        assert "fleet" in REPORT_KINDS
        text = json.dumps(report, sort_keys=True, default=float)
        doc = json.loads(text)
        assert check_report(doc, "fleet") == "fleet"
        assert doc["schema_version"] == OUTPUT_SCHEMA_VERSION
        assert doc["sweep"]["run_id"] == sweep["run_id"]
        # each entry is the cell row cut down to the per-cell summary
        assert [set(cell) for cell in doc["cells"]] == [{
            "run_id", "index", "system", "workload", "mem_mb_per_node",
            "seed", "status", "wall_s", "worker", "error",
            "throughput_rps", "mean_response_ms", "hit_rate_total",
            "p95_ms", "p99_ms", "binding_resource"}] * 3

    def test_rollups(self, tmp_path):
        path, _ = _three_cell_fleet(tmp_path)
        report = fleet_report(load_ledger(str(path)))
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
        report = fleet_report(load_ledger(str(path)))
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
        report = fleet_report(load_ledger(str(path)))
        rendered = render_fleet_report(report)
        assert "fleet report — sweep" in rendered
        assert "conservation check [OK]" in rendered
        assert "binding-resource frequency" in rendered
        assert "throughput heatmap — rutgers" in rendered
        assert "per-cell summary" in rendered
        assert "  wall-clock: 10.0s at 0.30 cells/s\n" in rendered
        assert "workers: 2 (w0=2, w1=1)\n" in rendered
        assert ("  stragglers (> 3x median wall-clock): none\n"
                in rendered)

    def test_cells_per_worker_and_rate_from_the_rows(self, tmp_path):
        path, _ = build_sweep_ledger(tmp_path, [
            {"system": "press"}, {"system": "press"},
            {"system": "cc-kmc"}, {"system": "cc-kmc", "ok": False},
            {"system": "cc-basic"},
        ], elapsed_s=2.5)
        sweep = fleet_report(load_ledger(str(path)))["sweep"]
        assert sweep["cells_per_worker"] == {"w0": 3, "w1": 2}
        assert sweep["elapsed_s"] == 2.5
        assert sweep["cells_per_s"] == 2.0
        assert sweep["cells_failed"] == 1

    def test_zero_elapsed_has_zero_rate(self, tmp_path):
        path, _ = build_sweep_ledger(tmp_path, [{"system": "press"}],
                                     elapsed_s=0.0)
        sweep = fleet_report(load_ledger(str(path)))["sweep"]
        assert sweep["cells_per_s"] == 0.0


# ---------------------------------------------------------------------------
# stragglers: cells slower than 3x the sweep's median wall-clock
# ---------------------------------------------------------------------------
class TestStragglers:
    def _report(self, tmp_path, walls, **status):
        cells = [{"system": "press", "mem": 2 ** i, "wall": w}
                 for i, w in enumerate(walls)]
        for i in status.get("failed", ()):
            cells[i]["ok"] = False
        path, _ = build_sweep_ledger(tmp_path, cells)
        report = fleet_report(load_ledger(str(path)))
        return report, render_fleet_report(report)

    def test_slow_cell_is_flagged(self, tmp_path):
        report, rendered = self._report(tmp_path, [1.0, 1.0, 10.0])
        assert report["stragglers"] == [{
            "index": 2, "system": "press", "workload": "rutgers",
            "mem_mb_per_node": 4, "wall_s": 10.0, "x_median": 10.0,
        }]
        assert ("stragglers (> 3x median wall-clock): "
                "#2 press/rutgers/4MB 10.00s (10.0x)") in rendered

    def test_rule_is_strictly_above_three_medians_slowest_last(
        self, tmp_path
    ):
        # median 1.0: cell 6 at exactly 3x is not a straggler
        report, _ = self._report(tmp_path,
                                 [7.0, 1.0, 1.0, 3.5, 1.0, 1.0, 3.0])
        assert [s["index"] for s in report["stragglers"]] == [3, 0]
        assert [s["x_median"] for s in report["stragglers"]] == [3.5, 7.0]

    def test_median_of_an_even_count_is_the_upper_middle(self, tmp_path):
        report, _ = self._report(tmp_path, [1.0, 7.0, 1.0, 2.0])
        assert [(s["index"], s["x_median"])
                for s in report["stragglers"]] == [(1, 3.5)]

    def test_failed_cells_count_toward_the_median(self, tmp_path):
        report, _ = self._report(tmp_path, [1.0, 1.0, 10.0], failed=[2])
        assert [s["index"] for s in report["stragglers"]] == [2]

    def test_single_cell_has_none(self, tmp_path):
        report, rendered = self._report(tmp_path, [100.0])
        assert report["stragglers"] == []
        assert ("stragglers (> 3x median wall-clock): "
                "n/a (need at least 2 cells)") in rendered

    def test_zero_median_has_none(self, tmp_path):
        report, rendered = self._report(tmp_path, [0.0, 0.0, 5.0])
        assert report["stragglers"] == []
        assert "stragglers (> 3x median wall-clock): none" in rendered


# ---------------------------------------------------------------------------
# ledger version
# ---------------------------------------------------------------------------
def _assert_usage_error(path, capsys, prefix):
    """``analyze fleet`` on ``path`` exits 2 with one stderr line that
    starts with ``prefix`` (an uncaught error would raise here)."""
    assert cli.main(["analyze", "fleet", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert captured.err.startswith(prefix)
    return captured.err


def _rewrite(path, rows):
    path.write_text("".join(json.dumps(r, sort_keys=True) + "\n"
                            for r in rows))


class TestLedgerVersion:
    def test_version_1_ledger_is_a_one_line_error(self, tmp_path, capsys):
        path, _ = build_sweep_ledger(tmp_path, [
            {"system": "press", "phases": {"disk.queue": 4.0}},
        ])
        rows = [json.loads(line) for line in path.read_text().splitlines()]
        for row in rows:
            row["ledger_version"] = 1
        _rewrite(path, rows)
        with pytest.raises(ValueError, match="ledger version 1"):
            fleet_report(load_ledger(str(path)))
        err = _assert_usage_error(path, capsys, "analyze fleet: sweep ")
        assert f"reads version {LEDGER_VERSION}" in err

    def test_version_2_ledger_is_a_one_line_error(self, tmp_path, capsys):
        """A version-2 cell row nests its metrics under ``summary`` and
        names its index ``cell_index``; the version says so before any
        row is read."""
        path, _ = build_sweep_ledger(tmp_path, [
            {"system": "press", "phases": {"disk.queue": 4.0}},
        ])
        sweep, cell = [json.loads(line)
                       for line in path.read_text().splitlines()]
        sweep["ledger_version"] = cell["ledger_version"] = 2
        cell["cell_index"] = cell.pop("index")
        cell["summary"] = {k: cell.pop(k) for k in (
            "throughput_rps", "mean_response_ms", "hit_rate_total",
            "p95_ms", "p99_ms")}
        del cell["binding_resource"], cell["error"]
        _rewrite(path, [sweep, cell])
        err = _assert_usage_error(path, capsys, "analyze fleet: sweep ")
        assert "has ledger version 2; this build reads version 3" in err


# ---------------------------------------------------------------------------
# a malformed cell row is a usage error naming the row
# ---------------------------------------------------------------------------
class TestMalformedCellRow:
    def _ledger(self, tmp_path, cell):
        path = tmp_path / "ledger.jsonl"
        sweep = {"kind": "sweep", "run_id": "s",
                 "ledger_version": LEDGER_VERSION}
        _rewrite(path, [sweep, {"kind": "cell", "parent": "s",
                                "status": "ok", "run_id": "c", **cell}])
        return path

    def test_bare_row_names_every_missing_key(self, tmp_path, capsys):
        path = tmp_path / "ledger.jsonl"
        _rewrite(path, [
            {"kind": "sweep", "run_id": "s", "ledger_version": LEDGER_VERSION},
            {"kind": "cell", "parent": "s", "status": "ok"},
        ])
        err = _assert_usage_error(path, capsys,
                                  "analyze fleet: cell row ? lacks run_id, ")
        assert err.rstrip().endswith(", ".join(CELL_KEYS))

    def test_one_missing_key(self, tmp_path, capsys):
        row = cell_row(0, {"system": "press"})
        del row["p99_ms"]
        path = self._ledger(tmp_path, row)
        with pytest.raises(ValueError, match="^cell row c lacks p99_ms$"):
            fleet_report(load_ledger(str(path)))
        _assert_usage_error(path, capsys, "analyze fleet: cell row c lacks")

    @pytest.mark.parametrize("key, value", [
        ("throughput_rps", "fast"),
        ("p95_ms", float("nan")),
        ("wall_s", [1.0]),
        ("mem_mb_per_node", None),
        ("index", "0"),
        ("index", True),
        ("system", 7),
        ("attribution", [1]),
        ("attribution", {"requests": 100, "phase_means_ms": {}}),
    ])
    def test_bad_value(self, tmp_path, capsys, key, value):
        row = cell_row(0, {"system": "press", "phases": {"disk.queue": 4.0}})
        row[key] = value
        path = self._ledger(tmp_path, row)
        _assert_usage_error(path, capsys,
                            f"analyze fleet: cell row c: {key} must be ")

    def test_the_good_row_passes(self, tmp_path):
        row = cell_row(0, {"system": "press", "phases": {"disk.queue": 4.0}})
        report = fleet_report(load_ledger(str(self._ledger(tmp_path, row))))
        assert report["conservation"]["ok"]
