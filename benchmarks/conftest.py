"""Shared helpers for the benchmark harness.

Every benchmark regenerates one paper table/figure (``bench_ablations.py``
runs the A1-A9 ablation studies, one parametrized case each), prints the
same rows/series the paper reports, and archives the rendered output
under ``benchmarks/results/``.  A result's data is written once, as the
trajectory record ``benchmarks/results/<name>.json`` (sorted keys,
schema version, git sha, seed, params digest; see
:mod:`repro.bench.schema`).  ``python -m repro.bench compare`` gates the
fig2 and a10 records on the committed ``benchmarks/baselines/``.

Workload scale is controlled by the environment (see
``repro.experiments.defaults``): default is SCALE=0.02 with 10k-request
traces; ``REPRO_FULL=1`` runs paper-size workloads (slow).
"""

import pathlib

import pytest

from repro.experiments.defaults import BENCH_MEMORY_MB  # shared with `sweep` CLI

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

#: Every experiment runner defaults to this seed (ExperimentConfig.seed).
BENCH_SEED = 0


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
    as ``benchmarks/results/<name>.json``, the artifact's one record.
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
        # Emit through pytest's terminal (shown with -s or on failure).
        with capsys.disabled():
            print(f"\n{text}\n[saved to {path}]")

    return save


def bench_memories():
    """The benchmark memory axis at the active scale."""
    from repro.experiments.defaults import memory_points_mb

    return memory_points_mb(BENCH_MEMORY_MB)
