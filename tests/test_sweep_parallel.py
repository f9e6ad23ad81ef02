"""Determinism tests for the sharded sweep runner.

The contract (DESIGN.md §17): sharding experiment cells across worker
processes changes *when* each cell runs, never *what* it produces —
``workers=N`` output is byte-identical to a serial run.  The argument
has three legs (worker isolation, per-cell seeding, ordered merge);
these tests exercise all of them end to end with a fig2 smoke sweep,
down to the serialized BENCH trajectory record.
"""

import json

import pytest

from repro.bench.schema import dump_record, wrap_result
from repro.experiments import defaults, parallel
from repro.experiments.figures import (
    ALL_SYSTEMS, FIGURES, cell_configs, run_figures,
)
from repro.experiments.parallel import default_workers, run_cells
from repro.experiments.runner import ExperimentConfig
from repro.traces import datasets

#: Small enough for the tier-1 suite, big enough that every system does
#: peer fetches, disk reads and evictions (same shape as the golden runs).
_SCALE = 0.005
_REQUESTS = 300
_CLIENTS = 8


def _smoke_trace():
    return datasets.scaled("rutgers", _SCALE, num_requests=_REQUESTS)


@pytest.fixture
def smoke_defaults(monkeypatch):
    """Pin the scale knobs so the figure table's workload() calls are
    tiny and test output is independent of the ambient REPRO_* environment."""
    monkeypatch.setattr(defaults, "SCALE", _SCALE)
    monkeypatch.setattr(defaults, "NUM_REQUESTS", _REQUESTS)
    monkeypatch.setattr(defaults, "NUM_CLIENTS", _CLIENTS)


def test_fig2_parallel_bench_record_byte_identical(smoke_defaults, tmp_path):
    """The headline determinism claim: a fig2 smoke sweep sharded across
    4 workers emits a BENCH trajectory record byte-identical to the
    serial run's — same payload, same params digest, same file bytes."""
    spec = FIGURES["fig2"]([0.1, 0.5], [("rutgers", 4)])

    def fig2(workers):
        results = run_cells(cell_configs(spec.cells), workers=workers)
        return spec.view(dict(zip(spec.cells, results)))

    serial = fig2(workers=1)
    sharded = fig2(workers=4)

    params = {"scale": _SCALE, "requests": _REQUESTS, "clients": _CLIENTS}
    paths = {}
    for tag, data in [("w1", serial), ("w4", sharded)]:
        record = wrap_result("fig2", data, seed=0, params=params)
        paths[tag] = tmp_path / f"BENCH_fig2_{tag}.json"
        dump_record(record, paths[tag])
    assert paths["w1"].read_bytes() == paths["w4"].read_bytes()

    # And the payload is live data, not a degenerate empty sweep.
    panel = json.loads(paths["w1"].read_text())["data"]["rutgers"]
    assert panel["memories_mb"] == [0.1, 0.5]
    for system in ALL_SYSTEMS:
        assert all(t > 0 for t in panel["throughput_rps"][system])


def test_run_figures_parallel_matches_serial(smoke_defaults):
    """run_figures maps the sharded union back onto each figure's cells:
    every result must land in its serial position."""
    kw = dict(memories_mb=[0.1, 0.5])
    serial = run_figures(["fig4", "fig6b"], workers=1, **kw)
    sharded = run_figures(["fig4", "fig6b"], workers=3, **kw)
    assert serial == sharded
    assert serial["fig4"]["memories_mb"] == [0.1, 0.5]
    assert serial["fig6b"]["node_counts"] == [4, 8, 16, 32]


def test_union_runs_each_distinct_cell_once(smoke_defaults, monkeypatch):
    """Figs 3 and 5 read the same 16 cells at two memory points, and
    Fig 4's 6 and Fig 6a's 2 are among them: the union submits 16 cells
    where four solo runs submit 40, and each figure's data is the same
    bytes either way."""
    submitted = []

    def counting_run_cells(cells, workers=None):
        submitted.append(len(cells))
        return run_cells(cells, workers=workers)

    monkeypatch.setattr(parallel, "run_cells", counting_run_cells)
    names = ["fig3", "fig4", "fig5", "fig6a"]
    union = run_figures(names, memories_mb=[0.1, 0.5])
    assert submitted == [16]
    solo = {name: run_figures([name], memories_mb=[0.1, 0.5])[name]
            for name in names}
    assert submitted[1:] == [16, 6, 16, 2]
    for name in names:
        assert (json.dumps(union[name], sort_keys=True)
                == json.dumps(solo[name], sort_keys=True)), name


def test_run_cells_preserves_submission_order():
    """The ordered-merge leg in isolation: results come back in cell
    order even when cells finish out of order across processes."""
    trace = _smoke_trace()
    mems = [0.1, 0.25, 0.5, 1.0]
    cells = [
        ExperimentConfig(
            system="press", trace=trace, num_nodes=2,
            mem_mb_per_node=m, num_clients=_CLIENTS,
        )
        for m in mems
    ]
    results = run_cells(cells, workers=4)
    assert [r.config.mem_mb_per_node for r in results] == mems


def test_sharded_results_keep_the_submitted_configs(smoke_defaults):
    """Workers send results back without the config, whose trace would
    otherwise arrive as one private copy per cell: every sharded result
    carries the very config it was submitted as, so fig6b's four cells
    share one trace as they do serially."""
    cells = cell_configs(FIGURES["fig6b"]([0.1]).cells)
    results = run_cells(cells, workers=2)
    assert all(res.config is cfg for res, cfg in zip(results, cells))
    assert len({id(res.config.trace) for res in results}) == 1
    outcome = parallel._run_pooled_cell_job(parallel._CellJob(0, cells[0]))
    assert "config" not in vars(outcome.result)


def test_default_workers_env_knob(monkeypatch):
    monkeypatch.delenv("REPRO_WORKERS", raising=False)
    assert default_workers() == 1
    monkeypatch.setenv("REPRO_WORKERS", "6")
    assert default_workers() == 6
    monkeypatch.setenv("REPRO_WORKERS", "0")
    with pytest.raises(ValueError, match="REPRO_WORKERS"):
        default_workers()
