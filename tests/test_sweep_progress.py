"""Tests for the observed sweep runner and its live progress log.

Four layers:

* worker failure capture — a failing cell is named (system / trace /
  params digest) instead of surfacing a bare multiprocessing traceback;
* a profiled cell walks its trace once, and its ledger row (every key
  of ``CELL_KEYS``, in order) matches an independent walk of the same
  records;
* the progress log: one INFO line per finished cell, serial or sharded;
* the acceptance path end-to-end: a fig2 smoke sweep with 4 workers and
  a ledger emits a BENCH record byte-identical to the plain serial
  sweep, each ledger row carries its cell's attribution, and ``analyze
  fleet`` over the ledger passes the conservation check exactly.
"""

import json
import math

import pytest

from repro.bench.schema import dump_record, params_digest, wrap_result
from repro.experiments import cli, defaults, parallel
from repro.experiments.figures import run_figures
from repro.experiments.parallel import (
    SweepCellError,
    run_cells,
    run_cells_observed,
)
from repro.experiments.runner import ExperimentConfig
from repro.obs import analyze
from repro.obs.analyze import RESOURCE_CLASSES, build_trees, request_roots
from repro.obs.fleet import fleet_report
from repro.obs.ledger import CELL_KEYS, LEDGER_VERSION
from repro.traces import datasets

_SCALE = 0.005
_REQUESTS = 300
_CLIENTS = 8

#: The keys every ledger record carries besides its kind's own.
_ENVELOPE = {"ledger_version", "kind", "status", "git_sha", "recorded_at",
             "parent", "run_id"}
#: The row keys a cell fills only when it ran and was profiled.
_PROFILED_KEYS = ("p95_ms", "p99_ms", "binding_resource", "attribution")


def _smoke_trace():
    return datasets.scaled("rutgers", _SCALE, num_requests=_REQUESTS)


@pytest.fixture
def smoke_defaults(monkeypatch):
    monkeypatch.setattr(defaults, "SCALE", _SCALE)
    monkeypatch.setattr(defaults, "NUM_REQUESTS", _REQUESTS)
    monkeypatch.setattr(defaults, "NUM_CLIENTS", _CLIENTS)


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
        # The row's digest is the BENCH records' digest of the cell's
        # six coordinates.
        digest = params_digest({
            "system": "bogus", "workload": "rutgers@0.005", "num_nodes": 2,
            "mem_mb_per_node": 0.25, "num_clients": _CLIENTS, "seed": 0,
        })
        assert exc.value.outcomes[0].row["params_digest"] == digest
        assert digest in message
        assert "unknown system" in message

    def test_failures_collector_keeps_the_merge_alive(self):
        failures = []
        results, outcomes = run_cells_observed(
            self._cells(), workers=1, failures=failures)
        assert results[0] is not None and results[1] is None
        assert [o.ok for o in outcomes] == [True, False]
        assert len(failures) == 1
        row = failures[0].row
        assert list(row) == list(CELL_KEYS)
        assert row["index"] == 1
        assert "unknown system" in row["error"]
        assert "ValueError" in failures[0].traceback
        assert row["wall_s"] >= 0.0
        # A failed cell produced no metric: each one is null.
        assert all(row[k] is None for k in (
            "throughput_rps", "mean_response_ms", "hit_rate_total",
            *_PROFILED_KEYS))

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
            assert out.ok and out.row["p95_ms"] > 0
            assert out.row["attribution"]["requests"] > 0


# ---------------------------------------------------------------------------
# a profiled cell: one trace walk, checked against an independent one
# ---------------------------------------------------------------------------
def _nearest_rank(sorted_vals, q):
    return sorted_vals[math.ceil(q * len(sorted_vals)) - 1]


def test_profiled_cell_walks_its_trace_once(monkeypatch):
    """A profiled cell builds its span trees once, and its p95, p99 and
    request count equal an independent walk over the same records."""
    seen = []

    def spy_build_trees(records):
        seen.append(records)
        return build_trees(records)

    monkeypatch.setattr(analyze, "build_trees", spy_build_trees)
    cfg = ExperimentConfig(system="cc-kmc", trace=_smoke_trace(),
                           num_nodes=4, mem_mb_per_node=0.25,
                           num_clients=_CLIENTS)
    _results, (outcome,) = run_cells_observed([cfg], workers=1,
                                              profile=True)
    assert len(seen) == 1
    roots, _index = build_trees(seen[0])
    durs = sorted(r.dur for r in request_roots(roots, measured_only=True))
    assert len(durs) > 20
    row = outcome.row
    assert list(row) == list(CELL_KEYS)
    assert row["p95_ms"] == _nearest_rank(durs, 0.95)
    assert row["p99_ms"] == _nearest_rank(durs, 0.99)
    assert row["attribution"]["requests"] == len(durs)
    assert row["attribution"]["kind"] == "attribution"
    assert row["binding_resource"] in RESOURCE_CLASSES
    assert row["binding_resource"] \
        == row["attribution"]["binding_resource"]["resource"]
    assert row["throughput_rps"] == outcome.result.throughput_rps
    assert row["error"] is None and outcome.traceback is None


def test_unprofiled_outcome_has_no_attribution():
    cfg = ExperimentConfig(system="press", trace=_smoke_trace(),
                           num_nodes=2, mem_mb_per_node=0.25,
                           num_clients=_CLIENTS)
    _results, (outcome,) = run_cells_observed([cfg], workers=1)
    assert list(outcome.row) == list(CELL_KEYS)
    assert all(outcome.row[k] is None for k in _PROFILED_KEYS)
    assert outcome.row["hit_rate_total"] \
        == outcome.result.hit_rates["total"]


@pytest.mark.parametrize("level", ["INFO", "DEBUG"])
def test_profiled_cells_log_one_info_line_each(level, caplog):
    """At INFO (``sweep -v``) a profiled 2-cell run logs one progress
    line per cell and nothing else from ``repro.*``; at DEBUG (``-vv``)
    each cell adds the runner's start and end lines and the attribution
    line."""
    trace = _smoke_trace()
    cells = [
        ExperimentConfig(system="cc-kmc", trace=trace, num_nodes=2,
                         mem_mb_per_node=m, num_clients=_CLIENTS)
        for m in (0.1, 0.5)
    ]
    caplog.set_level(level, logger="repro")
    run_cells_observed(cells, workers=1, profile=True)
    lines = [(r.levelname, r.name, " ".join(r.getMessage().split()[:2]))
             for r in caplog.records if r.name.startswith("repro")]
    progress = [("INFO", parallel.logger.name, f"cell {done}/2")
                for done in (1, 2)]
    if level == "INFO":
        assert lines == progress
        return
    per_cell = [("DEBUG", "repro.experiments.runner", "running cc-kmc"),
                ("DEBUG", "repro.experiments.runner", "done in"),
                ("DEBUG", "repro.obs.analyze", "attributing 225")]
    assert lines == per_cell + progress[:1] + per_cell + progress[1:]


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

    @pytest.mark.parametrize("workers", [1, 2])
    def test_verbose_sweep_logs_one_line_per_cell(
        self, sweep_defaults, workers, caplog, capsys
    ):
        caplog.set_level("INFO", logger=parallel.logger.name)
        assert cli.main(["sweep", "-v", "--workload", "rutgers",
                         "--nodes", "4", "--workers", str(workers)]) == 0
        lines = [r.getMessage() for r in caplog.records
                 if r.name == parallel.logger.name
                 and r.getMessage().startswith("cell ")]
        assert [line.split()[1] for line in lines] == [
            f"{done}/8" for done in range(1, 9)]
        coords = sorted(line.split()[2] for line in lines)
        assert len(set(coords)) == 8
        assert all(c.startswith("[") and c.endswith("]") for c in coords)
        for line in lines:
            assert " ok, " in line and " s wall, worker " in line
        if workers == 2:
            assert all("ForkPoolWorker" in line or "SpawnPoolWorker" in line
                       for line in lines)
        else:
            assert all(line.endswith("worker MainProcess")
                       for line in lines)
        capsys.readouterr()

    def test_ledgered_sweep_is_passive_and_fleet_checks_out(
        self, sweep_defaults, tmp_path, capsys
    ):
        plain = tmp_path / "BENCH_plain.json"
        observed = tmp_path / "BENCH_observed.json"
        ledger = tmp_path / "ledger.jsonl"

        assert cli.main([
            "sweep", "--workload", "rutgers", "--nodes", "4",
            "--workers", "1", "--bench-out", str(plain),
        ]) == 0
        assert cli.main([
            "sweep", "--workload", "rutgers", "--nodes", "4",
            "--workers", "4", "--bench-out", str(observed),
            "--ledger", str(ledger),
        ]) == 0
        out = capsys.readouterr().out
        assert "(sweep run id " in out and ", 8 cell records)" in out

        # Telemetry is passive: byte-identical trajectory records.
        assert plain.read_bytes() == observed.read_bytes()

        # The ledger holds the sweep manifest + one record per cell.
        from repro.obs.ledger import load_ledger
        records = load_ledger(str(ledger))
        sweeps = [r for r in records if r["kind"] == "sweep"]
        assert len(sweeps) == 1
        assert sweeps[0]["figure"] == "fig2"
        assert sweeps[0]["git_sha"] == "cafebabe"
        assert sweeps[0]["ledger_version"] == LEDGER_VERSION == 3
        assert sweeps[0]["elapsed_s"] > 0
        assert sweeps[0]["artifacts"] == {"bench": str(observed)}
        assert "progress" not in sweeps[0]
        cells = [r for r in records if r["kind"] == "cell"
                 and r["parent"] == sweeps[0]["run_id"]]
        assert len(cells) == 8 == len(records) - 1
        for cell in cells:
            # The worker's row, appended unchanged inside the envelope.
            assert set(cell) == set(CELL_KEYS) | _ENVELOPE
            assert cell["status"] == "ok" and cell["error"] is None
            assert len(cell["params_digest"]) == 16
            assert cell["throughput_rps"] > 0
            assert cell["attribution"]["kind"] == "attribution"
        assert sorted(cell["index"] for cell in cells) == list(range(8))
        # The rows are the only record: no per-cell files beside them.
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "BENCH_observed.json", "BENCH_plain.json", "ledger.jsonl"]

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
        assert sum(report["sweep"]["cells_per_worker"].values()) == 8
        assert report["binding_resources"]
        for resource in report["binding_resources"]:
            assert resource in RESOURCE_CLASSES
        for entry in report["cells"]:
            assert set(entry) == {
                "run_id", "index", "system", "workload", "mem_mb_per_node",
                "seed", "status", "wall_s", "worker", "error",
                "throughput_rps", "mean_response_ms", "hit_rate_total",
                "p95_ms", "p99_ms", "binding_resource"}
        matrix = report["matrix"]
        assert matrix["traces"] == ["rutgers@0.005"]  # scaled trace name
        assert len(matrix["memories_mb"]) == 2
        rendered = capsys.readouterr().out
        assert "conservation check [OK]" in rendered

    def test_sweep_record_is_the_fig2_bench_record(
        self, sweep_defaults, tmp_path, monkeypatch, capsys
    ):
        """With every flag at its default, ``sweep --bench-out`` writes
        the record the figure bench writes for fig2, byte for byte, so
        ``cmp`` against the committed record is its gate."""
        monkeypatch.setenv("REPRO_WORKERS", "1")
        sweep = tmp_path / "sweep.json"
        assert cli.main(["sweep", "--bench-out", str(sweep)]) == 0
        memories = defaults.memory_points_mb(defaults.BENCH_MEMORY_MB)
        bench = tmp_path / "fig2.json"
        dump_record(wrap_result(
            "fig2", run_figures(["fig2"], memories_mb=memories)["fig2"],
            seed=0, params=defaults.bench_params(),
        ), bench)
        assert sweep.read_bytes() == bench.read_bytes()
        capsys.readouterr()

    def test_paper_axis_record_names_its_axis(
        self, sweep_defaults, tmp_path, monkeypatch, capsys
    ):
        """A paper-axis record carries the paper's axis in its params,
        and so its own digest, next to the data of its own points."""
        monkeypatch.setattr(defaults, "PAPER_MEMORY_MB", [10, 20, 100])
        records = {}
        for axis in ("bench", "paper"):
            path = tmp_path / f"{axis}.json"
            assert cli.main([
                "sweep", "--workload", "rutgers", "--nodes", "4",
                "--workers", "1", "--memory-axis", axis,
                "--bench-out", str(path),
            ]) == 0
            records[axis] = json.loads(path.read_text())
        capsys.readouterr()
        for axis, points in (("bench", [20, 100]), ("paper", [10, 20, 100])):
            rec = records[axis]
            assert rec["params"]["memory_mb"] == points
            assert rec["params_digest"] == params_digest(rec["params"])
            assert rec["data"]["rutgers"]["memories_mb"] == [
                m * _SCALE for m in points]
        assert (records["paper"]["params_digest"]
                != records["bench"]["params_digest"])

    def test_record_names_its_cluster_size_and_traces(
        self, sweep_defaults, tmp_path, capsys
    ):
        """Two cluster sizes give two params digests: a record names a
        non-default ``--nodes`` and ``--workload`` in its params."""
        records = {}
        for nodes in (2, 4):
            path = tmp_path / f"n{nodes}.json"
            assert cli.main([
                "sweep", "--workload", "rutgers", "--nodes", str(nodes),
                "--workers", "1", "--bench-out", str(path),
            ]) == 0
            records[nodes] = json.loads(path.read_text())
        capsys.readouterr()
        for nodes, rec in records.items():
            assert rec["params"]["nodes"] == nodes
            assert rec["params"]["traces"] == ["rutgers"]
            assert rec["params_digest"] == params_digest(rec["params"])
        assert records[2]["data"] != records[4]["data"]
        assert records[2]["params_digest"] != records[4]["params_digest"]

    def test_failed_cells_are_named_recorded_and_skip_the_bench(
        self, sweep_defaults, tmp_path, monkeypatch, capsys
    ):
        """Ledgered or not, a sweep with failing cells names each one on
        stderr, writes no BENCH record and exits 1; the ledger keeps a
        failed row per cell, which the fleet report lists."""
        real_run = parallel.run_experiment

        def flaky(cfg, obs=None):
            if cfg.system == "cc-sched":
                raise RuntimeError("boom")
            return real_run(cfg, obs=obs)

        monkeypatch.setattr(parallel, "run_experiment", flaky)
        bench = tmp_path / "BENCH.json"
        ledger = tmp_path / "ledger.jsonl"
        for extra in ([], ["--ledger", str(ledger)]):
            assert cli.main([
                "sweep", "--workload", "rutgers", "--nodes", "4",
                "--workers", "1", "--bench-out", str(bench), *extra,
            ]) == 1
            err = capsys.readouterr().err.splitlines()
            assert err[0] == "sweep: 2 cell(s) failed:"
            assert all("cc-sched/rutgers" in line
                       and line.endswith("RuntimeError: boom")
                       for line in err[1:3])
            assert err[3:] == [
                "sweep: skipping BENCH record (incomplete matrix)"]
            assert not bench.exists()
        from repro.obs.ledger import load_ledger
        records = load_ledger(str(ledger))
        assert records[0]["status"] == "failed"
        assert records[0]["artifacts"] == {}  # no BENCH record was written
        failed = [r for r in records if r["status"] == "failed"][1:]
        assert [r["system"] for r in failed] == ["cc-sched", "cc-sched"]
        assert all(set(r) == set(CELL_KEYS) | _ENVELOPE for r in failed)
        assert all(r["throughput_rps"] is None and r["attribution"] is None
                   for r in failed)
        report = fleet_report(records)
        assert report["sweep"]["cells_failed"] == 2
        assert [f["error"] for f in report["failed_cells"]] == [
            "RuntimeError: boom"] * 2
        assert report["conservation"]["cells_checked"] == 6
