"""Experiment harness (system S10 in DESIGN.md).

One function per paper table/figure (:mod:`~repro.experiments.tables`,
:mod:`~repro.experiments.figures`), ablations beyond the paper
(:mod:`~repro.experiments.ablations`), the point runner
(:mod:`~repro.experiments.runner`) and sweep helpers
(:mod:`~repro.experiments.sweep`).

Scaling: by default workloads run at ``SCALE`` (see
:mod:`~repro.experiments.defaults`); set ``REPRO_FULL=1`` for full-size
traces.
"""

from .defaults import NUM_CLIENTS, NUM_REQUESTS, PAPER_MEMORY_MB, SCALE, workload
from .figures import (
    ALL_SYSTEMS,
    CC_VARIANTS,
    fig1,
    fig2,
    fig3,
    fig4,
    fig5,
    fig6a,
    fig6b,
    render_fig1,
    render_fig2,
    render_fig3,
    render_fig4,
    render_fig5,
    render_fig6a,
    render_fig6b,
)
from .report import banner, format_kv, format_table
from .runner import (
    SYSTEMS,
    ExperimentConfig,
    ExperimentResult,
    run_experiment,
    system_label,
)
from .sweep import memory_sweep, node_sweep
from .tables import render_table1, render_table2, table1, table2

__all__ = [
    "ExperimentConfig",
    "ExperimentResult",
    "run_experiment",
    "SYSTEMS",
    "ALL_SYSTEMS",
    "CC_VARIANTS",
    "memory_sweep",
    "node_sweep",
    "system_label",
    "table1",
    "table2",
    "render_table1",
    "render_table2",
    "fig1", "fig2", "fig3", "fig4", "fig5", "fig6a", "fig6b",
    "render_fig1", "render_fig2", "render_fig3", "render_fig4",
    "render_fig5", "render_fig6a", "render_fig6b",
    "format_table", "format_kv", "banner",
    "SCALE", "NUM_REQUESTS", "NUM_CLIENTS", "PAPER_MEMORY_MB", "workload",
]
