"""Tests for live sweep telemetry and the observed sweep runner.

Three layers:

* :class:`SweepProgress` heartbeat events under an injected clock
  (byte-stable streams, straggler statistics, degenerate shapes);
* worker failure capture — a failing cell is named (system / trace /
  params digest) instead of surfacing a bare multiprocessing traceback;
* the PR's acceptance path end-to-end: a fig2 smoke sweep with 4
  workers, ledger, progress and per-cell artifacts emits a BENCH record
  byte-identical to the plain serial sweep, and ``analyze fleet`` over
  the resulting ledger passes the conservation check exactly.
"""

import itertools
import json

import pytest

from repro.experiments import cli, defaults
from repro.experiments.parallel import (
    CellInfo,
    CellOutcome,
    SweepCellError,
    SweepProgress,
    cell_info,
    run_cells,
    run_cells_observed,
)
from repro.experiments.runner import ExperimentConfig
from repro.obs.analyze import RESOURCE_CLASSES
from repro.obs.reports import render_progress_report
from repro.traces import datasets

_SCALE = 0.005
_REQUESTS = 300
_CLIENTS = 8


def _smoke_trace():
    return datasets.scaled("rutgers", _SCALE, num_requests=_REQUESTS)


@pytest.fixture
def smoke_defaults(monkeypatch):
    monkeypatch.setattr(defaults, "SCALE", _SCALE)
    monkeypatch.setattr(defaults, "NUM_REQUESTS", _REQUESTS)
    monkeypatch.setattr(defaults, "NUM_CLIENTS", _CLIENTS)


def fake_clock(step=1.0):
    counter = itertools.count()
    return lambda: step * next(counter)


def make_outcome(index, wall_s=1.0, ok=True, worker="w0"):
    info = CellInfo(
        index=index, system="press", workload="rutgers", num_nodes=4,
        mem_mb_per_node=0.5, num_clients=8, seed=0,
        params_digest="f" * 16,
    )
    return CellOutcome(info=info, ok=ok, wall_s=wall_s, worker=worker,
                       error=None if ok else "RuntimeError: boom")


# ---------------------------------------------------------------------------
# heartbeat stream
# ---------------------------------------------------------------------------
class TestSweepProgress:
    def test_event_stream_under_injected_clock(self, tmp_path):
        path = tmp_path / "progress.jsonl"
        progress = SweepProgress(total=2, path=str(path),
                                 clock=fake_clock())
        progress.start()                      # clock -> 0
        progress.cell_done(make_outcome(1, wall_s=2.0))   # clock -> 1
        progress.cell_done(make_outcome(0, wall_s=1.5, worker="w1"))
        summary = progress.finish()
        events = [json.loads(line) for line in path.read_text().splitlines()]
        assert [e["event"] for e in events] == ["start", "cell", "cell",
                                               "end"]
        assert events[0]["total"] == 2
        first = events[1]
        assert first["index"] == 1            # completion order, not cell
        assert first["done"] == 1
        assert first["elapsed_s"] == 1.0
        assert first["cells_per_s"] == 1.0
        assert first["eta_s"] == 1.0
        assert first["wall_s"] == 2.0
        second = events[2]
        assert second["done"] == 2 and second["eta_s"] == 0.0
        assert events[3]["done"] == 2 and events[3]["failed"] == 0
        assert summary["workers"] == {"w0": 1, "w1": 1}
        assert summary["elapsed_s"] == 3.0

    def test_identical_runs_are_byte_identical(self, tmp_path):
        paths = []
        for tag in ("a", "b"):
            path = tmp_path / f"{tag}.jsonl"
            progress = SweepProgress(total=1, path=str(path),
                                     clock=fake_clock())
            progress.start()
            progress.cell_done(make_outcome(0))
            progress.finish()
            paths.append(path)
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_straggler_detection(self):
        progress = SweepProgress(total=3, clock=fake_clock())
        progress.start()
        progress.cell_done(make_outcome(0, wall_s=1.0))
        progress.cell_done(make_outcome(1, wall_s=1.0))
        progress.cell_done(make_outcome(2, wall_s=10.0))
        stragglers = progress.stragglers()
        assert len(stragglers) == 1
        assert stragglers[0]["index"] == 2
        assert stragglers[0]["x_median"] == 10.0

    def test_single_cell_has_no_straggler_statistics(self):
        progress = SweepProgress(total=1, clock=fake_clock())
        progress.start()
        progress.cell_done(make_outcome(0, wall_s=100.0))
        assert progress.stragglers() == []

    def test_failed_cells_counted(self):
        progress = SweepProgress(total=2, clock=fake_clock())
        progress.start()
        progress.cell_done(make_outcome(0))
        progress.cell_done(make_outcome(1, ok=False))
        assert progress.summary()["failed"] == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            SweepProgress(total=-1)


# ---------------------------------------------------------------------------
# progress rendering (degenerate shapes included)
# ---------------------------------------------------------------------------
class TestRenderProgress:
    def test_zero_cell_sweep(self):
        out = render_progress_report([{"event": "start", "total": 4}])
        assert out == "sweep progress: no cells ran (of 4 planned)"
        assert render_progress_report([]) \
            == "sweep progress: no cells ran (of 0 planned)"

    def test_single_cell_sweep(self, tmp_path):
        path = tmp_path / "p.jsonl"
        progress = SweepProgress(total=1, path=str(path),
                                 clock=fake_clock())
        progress.start()
        progress.cell_done(make_outcome(0, wall_s=1.25))
        progress.finish()
        events = [json.loads(line) for line in path.read_text().splitlines()]
        out = render_progress_report(events)
        assert "1/1 cells completed" in out
        assert "press/rutgers/0.5MB" in out
        assert "stragglers: n/a (need at least 2 cells)" in out
        assert "workers: w0=1" in out

    def test_multi_cell_timeline(self, tmp_path):
        path = tmp_path / "p.jsonl"
        progress = SweepProgress(total=2, path=str(path),
                                 clock=fake_clock())
        progress.start()
        progress.cell_done(make_outcome(0))
        progress.cell_done(make_outcome(1, ok=False))
        progress.finish()
        events = [json.loads(line) for line in path.read_text().splitlines()]
        out = render_progress_report(events)
        assert "2/2 cells completed" in out
        assert "FAILED" in out
        assert "1 failed" in out
        assert "stragglers: none" in out


# ---------------------------------------------------------------------------
# failure capture
# ---------------------------------------------------------------------------
class TestFailureCapture:
    def _cells(self):
        trace = _smoke_trace()
        good = ExperimentConfig(system="press", trace=trace, num_nodes=2,
                                mem_mb_per_node=0.25, num_clients=_CLIENTS)
        bad = ExperimentConfig(system="bogus", trace=trace, num_nodes=2,
                               mem_mb_per_node=0.25, num_clients=_CLIENTS)
        return [good, bad]

    def test_sweep_cell_error_names_the_cell(self):
        cells = self._cells()
        with pytest.raises(SweepCellError) as exc:
            run_cells(cells, workers=1)
        message = str(exc.value)
        assert "cell 1" in message
        assert "bogus/rutgers@0.005/0.25MB/seed0" in message
        assert cell_info(1, cells[1]).params_digest in message
        assert "unknown system" in message

    def test_failures_collector_keeps_the_merge_alive(self):
        failures = []
        results, outcomes = run_cells_observed(
            self._cells(), workers=1, failures=failures)
        assert results[0] is not None and results[1] is None
        assert [o.ok for o in outcomes] == [True, False]
        assert len(failures) == 1
        assert failures[0].info.index == 1
        assert "unknown system" in failures[0].error
        assert "ValueError" in failures[0].traceback
        assert failures[0].wall_s >= 0.0

    def test_observed_serial_results_match_plain(self):
        trace = _smoke_trace()
        cells = [
            ExperimentConfig(system="press", trace=trace, num_nodes=2,
                             mem_mb_per_node=m, num_clients=_CLIENTS)
            for m in (0.1, 0.5)
        ]
        plain = run_cells(cells, workers=1)
        observed, outcomes = run_cells_observed(cells, workers=1,
                                                profile=True)
        for a, b in zip(plain, observed):
            assert a.throughput_rps == b.throughput_rps
            assert a.mean_response_ms == b.mean_response_ms
            assert a.hit_rates == b.hit_rates
        for out in outcomes:
            assert out.ok and out.summary["p95_ms"] > 0
            assert out.summary["requests_measured"] > 0


# ---------------------------------------------------------------------------
# the acceptance path, end to end through the CLI
# ---------------------------------------------------------------------------
class TestObservedSweepEndToEnd:
    @pytest.fixture
    def sweep_defaults(self, smoke_defaults, monkeypatch):
        """Shrink the bench memory axis so the CLI matrix stays tiny
        (2 memories x 4 systems = 8 cells after scaling)."""
        monkeypatch.setattr(defaults, "BENCH_MEMORY_MB", [20, 100])
        monkeypatch.setenv("REPRO_GIT_SHA", "cafebabe")

    def test_ledgered_sweep_is_passive_and_fleet_checks_out(
        self, sweep_defaults, tmp_path, capsys
    ):
        plain = tmp_path / "BENCH_plain.json"
        observed = tmp_path / "BENCH_observed.json"
        ledger = tmp_path / "ledger.jsonl"
        progress = tmp_path / "progress.jsonl"

        assert cli.main([
            "sweep", "--workload", "rutgers", "--nodes", "4",
            "--workers", "1", "--bench-out", str(plain),
        ]) == 0
        assert cli.main([
            "sweep", "--workload", "rutgers", "--nodes", "4",
            "--workers", "4", "--bench-out", str(observed),
            "--ledger", str(ledger), "--progress", str(progress),
        ]) == 0
        out = capsys.readouterr().out
        assert "sweep progress" in out and "8/8 cells completed" in out

        # Telemetry is passive: byte-identical trajectory records.
        assert plain.read_bytes() == observed.read_bytes()

        # The ledger holds the sweep manifest + one record per cell.
        from repro.obs.ledger import load_ledger
        records = load_ledger(str(ledger))
        sweeps = [r for r in records if r["kind"] == "sweep"]
        assert len(sweeps) == 1
        assert sweeps[0]["figure"] == "fig2"
        assert sweeps[0]["git_sha"] == "cafebabe"
        cells = [r for r in records if r["kind"] == "cell"
                 and r["parent"] == sweeps[0]["run_id"]]
        assert len(cells) == 8 == len(records) - 1
        for cell in cells:
            assert cell["status"] == "ok"
            assert len(cell["params_digest"]) == 16
            assert cell["summary"]["throughput_rps"] > 0
            assert list(cell["artifacts"]) == ["attribution"]

        # `analyze fleet` over the ledger: conservation passes exactly,
        # every binding resource is a real resource class.
        fleet_json = tmp_path / "fleet.json"
        assert cli.main([
            "analyze", "fleet", str(ledger), "--json", str(fleet_json),
        ]) == 0
        report = json.loads(fleet_json.read_text())
        assert report["kind"] == "fleet"
        assert report["conservation"]["ok"]
        assert report["conservation"]["cells_checked"] == 8
        assert report["sweep"]["cells_failed"] == 0
        assert report["binding_resources"]
        for resource in report["binding_resources"]:
            assert resource in RESOURCE_CLASSES
        matrix = report["matrix"]
        assert matrix["traces"] == ["rutgers@0.005"]  # scaled trace name
        assert len(matrix["memories_mb"]) == 2
        rendered = capsys.readouterr().out
        assert "conservation check [OK]" in rendered
