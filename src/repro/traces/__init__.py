"""Workload infrastructure (system S9 in DESIGN.md).

* :class:`~repro.traces.model.TraceSpec` / :class:`~repro.traces.model.Trace`
  — the data model.
* :func:`~repro.traces.synthetic.generate` — Table-2-calibrated synthesis.
* :mod:`~repro.traces.datasets` — the paper's four workloads.
* :mod:`~repro.traces.analysis` — Figure 1 / Table 2 / hit-bound math.
"""

from .analysis import (
    bytes_for_request_fraction,
    recency_reference_fraction,
    popularity_cdf,
    table2_row,
    theoretical_max_hit_rate,
)
from .datasets import SPECS, TRACE_NAMES, load, scaled, spec
from .model import Trace, TraceSpec
from .synthetic import generate, lognormal_sizes_kb, zipf_weights

__all__ = [
    "Trace",
    "TraceSpec",
    "generate",
    "zipf_weights",
    "lognormal_sizes_kb",
    "SPECS",
    "TRACE_NAMES",
    "spec",
    "load",
    "scaled",
    "popularity_cdf",
    "bytes_for_request_fraction",
    "theoretical_max_hit_rate",
    "table2_row",
    "recency_reference_fraction",
]
