"""Shared helpers for the benchmark harness.

Every benchmark regenerates one paper table/figure (``bench_ablations.py``
runs the A1-A9 ablation studies, one parametrized case each), prints the
same rows/series the paper reports, and archives the rendered output
under ``benchmarks/results/``.  The trajectory benchmarks (fig2, a10 and
ring) also write a top-level ``BENCH_<name>.json`` record (sorted keys,
schema version, git sha, seed, params digest; see
:mod:`repro.bench.schema`) that ``python -m repro.bench compare`` gates
against committed baselines.

Workload scale is controlled by the environment (see
``repro.experiments.defaults``): default is SCALE=0.02 with 10k-request
traces; ``REPRO_FULL=1`` runs paper-size workloads (slow).
"""

import pathlib

import pytest

from repro.experiments.defaults import BENCH_MEMORY_MB  # shared with `sweep` CLI

RESULTS_DIR = pathlib.Path(__file__).parent / "results"
REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent

#: Every experiment runner defaults to this seed (ExperimentConfig.seed).
BENCH_SEED = 0

#: Artifacts whose record also lands at the repo root as the
#: ``BENCH_<name>.json`` trajectory record that bench-trajectory.yml
#: gates and uploads (``bench_fig_ring.py`` writes ``BENCH_ring.json``
#: itself).
TRAJECTORY = ("fig2", "a10_faults")


def bench_params():
    """The workload knobs that shaped this run — recorded in every
    trajectory record so comparisons refuse mismatched workloads."""
    from repro.experiments.defaults import bench_params as _bench_params

    return _bench_params()


@pytest.fixture
def artifact(request, capsys):
    """Save + display a rendered experiment table.

    Usage::

        def test_bench_fig4(benchmark, artifact):
            data = benchmark.pedantic(run_fig4, rounds=1, iterations=1)
            artifact("fig4", render_fig4(data), data)

    With ``data``, the JSON lands wrapped in the shared artifact schema
    under ``benchmarks/results/<name>.json`` and, for the
    :data:`TRAJECTORY` artifacts, as the top-level trajectory record
    ``BENCH_<name>.json``.
    """

    def save(name: str, text: str, data=None) -> None:
        RESULTS_DIR.mkdir(exist_ok=True)
        path = RESULTS_DIR / f"{name}.txt"
        path.write_text(text + "\n")
        if data is not None:
            from repro.bench.schema import dump_record, wrap_result

            record = wrap_result(
                name, data, seed=BENCH_SEED, params=bench_params()
            )
            dump_record(record, RESULTS_DIR / f"{name}.json")
            if name in TRAJECTORY:
                dump_record(record, REPO_ROOT / f"BENCH_{name}.json")
        # Emit through pytest's terminal (shown with -s or on failure).
        with capsys.disabled():
            print(f"\n{text}\n[saved to {path}]")

    return save


def bench_memories():
    """The benchmark memory axis at the active scale."""
    from repro.experiments.defaults import memory_points_mb

    return memory_points_mb(BENCH_MEMORY_MB)
