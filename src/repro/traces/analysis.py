"""Trace analysis: the quantities Figure 1, Table 2 and Figure 4 report.

All functions operate on any :class:`~repro.traces.model.Trace`.
"""

from __future__ import annotations


import numpy as np

from .model import Trace

__all__ = [
    "popularity_cdf",
    "bytes_for_request_fraction",
    "theoretical_max_hit_rate",
    "table2_row",
    "recency_reference_fraction",
]


def popularity_cdf(trace: Trace) -> tuple[np.ndarray, np.ndarray]:
    """Figure 1's two curves.

    Files are sorted by decreasing request frequency; returns
    ``(cum_request_fraction, cum_size_mb)``, both length ``num_files``:
    element *k* covers the *k+1* most popular files.
    """
    counts = trace.request_counts()
    order = np.argsort(-counts, kind="stable")
    cum_req = np.cumsum(counts[order]) / trace.num_requests
    cum_mb = np.cumsum(trace.sizes_kb[order]) / 1024.0
    return cum_req, cum_mb


def bytes_for_request_fraction(trace: Trace, fraction: float) -> float:
    """MB of the hottest files needed to cover ``fraction`` of requests.

    The paper's Figure 1 anchor: "in order to cache 99% of the requests,
    494 MB of memory is needed" (Rutgers).
    """
    if not 0.0 < fraction <= 1.0:
        raise ValueError("fraction must be in (0, 1]")
    cum_req, cum_mb = popularity_cdf(trace)
    idx = int(np.searchsorted(cum_req, fraction))
    idx = min(idx, len(cum_mb) - 1)
    return float(cum_mb[idx])


def theoretical_max_hit_rate(trace: Trace, total_memory_mb: float) -> float:
    """Best possible hit rate with ``total_memory_mb`` of aggregate cache.

    Greedy upper bound: cache the most-requested files first until memory
    runs out.  Figure 4 compares measured hit rates against this bound
    ("96% ... compared to the theoretical maximum of 99% for 512 MB of
    total memory").
    """
    if total_memory_mb <= 0:
        return 0.0
    cum_req, cum_mb = popularity_cdf(trace)
    idx = int(np.searchsorted(cum_mb, total_memory_mb, side="right"))
    if idx == 0:
        return 0.0
    return float(cum_req[min(idx - 1, len(cum_req) - 1)])


def table2_row(trace: Trace) -> dict[str, float]:
    """One row of Table 2, computed from the trace itself."""
    return {
        "num_files": trace.num_files,
        "avg_file_kb": trace.mean_file_kb,
        "num_requests": trace.num_requests,
        "avg_request_kb": trace.mean_request_kb,
        "file_set_mb": trace.file_set_mb,
    }


def recency_reference_fraction(trace: Trace, window: int = 256) -> float:
    """Fraction of requests whose file was requested within the previous
    ``window`` requests.

    A direct read-out of short-term temporal locality: i.i.d. Zipf
    streams score whatever popularity alone produces; traces generated
    with ``temporal_alpha > 0`` (and real logs) score higher.  Used by
    ablation A8 and the trace-calibration tests.
    """
    if window < 1:
        raise ValueError("window must be >= 1")
    recent: dict = {}
    hits = 0
    reqs = trace.requests
    for i, f in enumerate(reqs):
        f = int(f)
        last = recent.get(f)
        if last is not None and i - last <= window:
            hits += 1
        recent[f] = i
    return hits / len(reqs)
