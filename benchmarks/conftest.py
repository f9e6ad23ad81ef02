"""Shared helpers for the benchmark harness.

Every benchmark regenerates paper tables/figures or studies
(``bench_figures.py`` runs Figs 2-6b, ``bench_ablations.py`` the A1-A9
studies, one parametrized case each), checks the paper's claims on
them, and archives the rendered output under ``benchmarks/results/``.
A result's data is written once, as the trajectory record
``benchmarks/results/<name>.json`` (sorted keys, schema version, seed,
params and their digest; see :mod:`repro.bench.schema`).  The
committed results are the regression gate: after a run at the default
knobs, ``git diff --exit-code -- benchmarks/results`` must be clean.

Workload scale is controlled by the environment (see
``repro.experiments.defaults``): default is SCALE=0.02 with 10k-request
traces; ``REPRO_FULL=1`` runs paper-size workloads (slow).
"""

import pathlib

import pytest

from repro.bench.schema import dump_record, wrap_result
from repro.experiments.defaults import bench_params

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

#: Every experiment runner defaults to this seed (ExperimentConfig.seed).
BENCH_SEED = 0


@pytest.fixture
def artifact(capsys):
    """Save + display a rendered experiment table.

    Usage::

        def test_bench_fig1(artifact):
            data = fig1()
            artifact("fig1", render_fig1(data), data)

    With ``data``, the JSON lands wrapped in the shared artifact schema
    as ``benchmarks/results/<name>.json``, the artifact's one record;
    ``seed`` and ``params`` default to the bench seed and the workload
    knobs.
    """

    def save(name: str, text: str, data=None, *, seed=BENCH_SEED,
             params=None) -> None:
        RESULTS_DIR.mkdir(exist_ok=True)
        path = RESULTS_DIR / f"{name}.txt"
        path.write_text(text + "\n")
        if data is not None:
            if params is None:
                params = bench_params()
            record = wrap_result(name, data, seed=seed, params=params)
            dump_record(record, RESULTS_DIR / f"{name}.json")
        # Emit through pytest's terminal (shown with -s or on failure).
        with capsys.disabled():
            print(f"\n{text}\n[saved to {path}]")

    return save
