"""Experiment harness (system S10 in DESIGN.md).

The paper's tables (:mod:`~repro.experiments.tables`), its figures as
one cell table that :func:`run_figures` runs
(:mod:`~repro.experiments.figures`), ablations beyond the paper
(:mod:`~repro.experiments.ablations`), the point runner
(:mod:`~repro.experiments.runner`) and the sharded cell runner
(:mod:`~repro.experiments.parallel`).

Scaling: by default workloads run at ``defaults.SCALE`` (see
:mod:`~repro.experiments.defaults`); set ``REPRO_FULL=1`` for full-size
traces.
"""

from .defaults import PAPER_MEMORY_MB, workload
from .figures import (
    ALL_SYSTEMS,
    CC_VARIANTS,
    FIGURES,
    fig1,
    render_fig1,
    render_fig2,
    render_fig3,
    render_fig4,
    render_fig5,
    render_fig6a,
    render_fig6b,
    run_figures,
)
from .report import banner, format_table
from .runner import (
    SYSTEMS,
    ExperimentConfig,
    ExperimentResult,
    run_experiment,
    system_label,
)
from .tables import render_table1, render_table2, table1, table2

__all__ = [
    "ExperimentConfig",
    "ExperimentResult",
    "run_experiment",
    "SYSTEMS",
    "ALL_SYSTEMS",
    "CC_VARIANTS",
    "system_label",
    "table1",
    "table2",
    "render_table1",
    "render_table2",
    "FIGURES", "run_figures", "fig1",
    "render_fig1", "render_fig2", "render_fig3", "render_fig4",
    "render_fig5", "render_fig6a", "render_fig6b",
    "format_table", "banner",
    "PAPER_MEMORY_MB", "workload",
]
