"""Trace data model.

A :class:`Trace` is what every experiment consumes: an ordered stream of
whole-file GET requests over a fixed file set.  Timing information is
deliberately absent — the paper ignores it ("To measure the maximum
achievable throughput of the cluster, we ignore the timing information
present in the traces") and drives the server with closed-loop clients.

The synthetic generators (:mod:`repro.traces.synthetic`) produce this
type; any other source of a request stream over a file set can build
one directly.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from collections.abc import Iterator

import numpy as np

__all__ = ["TraceSpec", "Trace"]


@dataclass(frozen=True)
class TraceSpec:
    """Statistical profile of a workload (one paper Table 2 row).

    The four named instances live in :mod:`repro.traces.datasets`.  The
    real mid-1990s logs are not redistributable, so the generator
    synthesizes a trace matching these aggregates plus the Figure 1
    popularity shape; DESIGN.md §4.5 records the substitution.
    """

    name: str
    #: Distinct files.
    num_files: int
    #: Requests in the trace.
    num_requests: int
    #: Mean file size (KB) — Table 2 "Avg. file size".
    mean_file_kb: float
    #: Zipf exponent of the popularity distribution (Figure 1 shape).
    zipf_theta: float = 0.8
    #: Lognormal sigma of the size body (Arlitt & Williamson report
    #: heavy-tailed sizes; ~1.4 reproduces their spread).
    size_sigma: float = 1.4
    #: Rank correlation between popularity and smallness: 1 = the most
    #: popular file is the smallest, 0 = independent.  Arlitt &
    #: Williamson's invariant is a mild negative size-popularity
    #: correlation.
    size_popularity_rho: float = 0.3
    #: Short-term temporal locality beyond popularity: each request is,
    #: with this probability, a re-reference drawn from the recent
    #: request window instead of the popularity distribution.  0 = the
    #: paper-default i.i.d. Zipf stream (see DESIGN.md §4.5); real logs
    #: sit around 0.1-0.3 (ablation A8 sweeps it).
    temporal_alpha: float = 0.0
    #: Number of recent requests the re-reference draw samples from.
    temporal_window: int = 256
    #: RNG seed for the generator.
    seed: int = 1

    def __post_init__(self):
        if self.num_files < 1 or self.num_requests < 1:
            raise ValueError("need at least one file and one request")
        if self.mean_file_kb <= 0:
            raise ValueError("mean_file_kb must be positive")
        if self.zipf_theta < 0:
            raise ValueError("zipf_theta must be >= 0")
        if not 0.0 <= self.size_popularity_rho <= 1.0:
            raise ValueError("size_popularity_rho must be in [0, 1]")
        if not 0.0 <= self.temporal_alpha < 1.0:
            raise ValueError("temporal_alpha must be in [0, 1)")
        if self.temporal_window < 1:
            raise ValueError("temporal_window must be >= 1")

    @property
    def file_set_mb(self) -> float:
        """Expected file-set size in MB (Table 2 "File set size")."""
        return self.num_files * self.mean_file_kb / 1024.0

    def scaled(self, factor: float, *, min_files: int = 50,
               min_requests: int = 500) -> "TraceSpec":
        """A statistically similar but ``factor``-times-smaller workload.

        File and request counts shrink together; per-file sizes and the
        popularity shape are unchanged, so cache-behaviour experiments
        scale node memory by the same factor and keep the working-set /
        memory ratio of the full-size run.  Used by the benchmark harness
        to keep pure-Python simulation affordable.
        """
        if factor <= 0:
            raise ValueError("factor must be positive")
        return replace(
            self,
            name=f"{self.name}@{factor:g}",
            num_files=max(min_files, int(round(self.num_files * factor))),
            num_requests=max(min_requests, int(round(self.num_requests * factor))),
        )

    def with_requests(self, num_requests: int) -> "TraceSpec":
        """Same workload profile with a different trace length."""
        return replace(self, num_requests=num_requests)


@dataclass
class Trace:
    """A concrete request stream over a concrete file set."""

    #: Provenance: the spec that generated it.
    spec: TraceSpec
    #: Per-file sizes in KB, indexed by file id.
    sizes_kb: np.ndarray
    #: The request stream: file id per request, in order.
    requests: np.ndarray

    def __post_init__(self):
        self.sizes_kb = np.asarray(self.sizes_kb, dtype=np.float64)
        self.requests = np.asarray(self.requests, dtype=np.int64)
        if self.sizes_kb.ndim != 1 or self.requests.ndim != 1:
            raise ValueError("sizes_kb and requests must be 1-D")
        if len(self.sizes_kb) == 0 or len(self.requests) == 0:
            raise ValueError("empty trace")
        if not ((self.sizes_kb > 0) & np.isfinite(self.sizes_kb)).all():
            raise ValueError("all file sizes must be positive and finite")
        if self.requests.min() < 0 or self.requests.max() >= len(self.sizes_kb):
            raise ValueError("request references file id out of range")

    # -- aggregates (Table 2 columns) --------------------------------------
    @property
    def num_files(self) -> int:
        """Distinct files in the file set."""
        return len(self.sizes_kb)

    @property
    def num_requests(self) -> int:
        """Length of the request stream."""
        return len(self.requests)

    @property
    def mean_file_kb(self) -> float:
        """Average file size (Table 2 "Avg. file size")."""
        return float(self.sizes_kb.mean())

    @property
    def mean_request_kb(self) -> float:
        """Average *request* size — popularity-weighted file size
        (Table 2 "Avg. request size")."""
        return float(self.sizes_kb[self.requests].mean())

    @property
    def file_set_mb(self) -> float:
        """Total bytes across distinct files, in MB."""
        return float(self.sizes_kb.sum() / 1024.0)

    @property
    def total_requested_mb(self) -> float:
        """Total bytes moved if every request is fully served, in MB."""
        return float(self.sizes_kb[self.requests].sum() / 1024.0)

    # -- access ------------------------------------------------------------
    def __iter__(self) -> Iterator[int]:
        return iter(self.requests)

    def head(self, n: int) -> "Trace":
        """The first ``n`` requests over the same file set."""
        if n < 1:
            raise ValueError("n must be >= 1")
        return Trace(self.spec, self.sizes_kb, self.requests[:n])

    def request_counts(self) -> np.ndarray:
        """Per-file request counts (length ``num_files``)."""
        return np.bincount(self.requests, minlength=self.num_files)
