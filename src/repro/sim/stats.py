"""Measurement instruments for simulations.

The paper measures *steady-state* behaviour: caches are warmed first, then
throughput, mean response time, hit rates and per-resource utilization are
collected.  Every instrument here therefore supports ``reset(now)`` so the
warm-up phase can be discarded without restarting the run.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from ..obs.metrics import MetricsRegistry

__all__ = [
    "UtilizationTracker",
    "ThroughputMeter",
    "RunningStats",
    "ReservoirQuantiles",
    "CounterSet",
    "block_hit_rates",
    "hit_fractions",
    "WindowedSeries",
]


class UtilizationTracker:
    """Time-integral of busy servers for one service center.

    Utilization over the measured window is
    ``busy_time / (capacity * elapsed)`` — the quantity Figure 6a plots per
    resource (disk / CPU / NIC).
    """

    __slots__ = ("capacity", "_busy", "_last_change", "_busy_integral", "_window_start")

    def __init__(self, capacity: int = 1, now: float = 0.0) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._busy = 0
        self._last_change = now
        self._busy_integral = 0.0
        self._window_start = now

    # on_start/on_stop run twice per service-center job, so each updates
    # the busy integral in line rather than through a shared helper.
    def on_start(self, now: float) -> None:
        """A server became busy at ``now``."""
        self._busy_integral += self._busy * (now - self._last_change)
        self._last_change = now
        self._busy += 1
        if self._busy > self.capacity:
            raise ValueError("more busy servers than capacity")

    def on_stop(self, now: float) -> None:
        """A server became idle at ``now``."""
        self._busy_integral += self._busy * (now - self._last_change)
        self._last_change = now
        self._busy -= 1
        if self._busy < 0:
            raise ValueError("negative busy count")

    def reset(self, now: float) -> None:
        """Discard history; start a fresh measurement window at ``now``."""
        self._last_change = now
        self._busy_integral = 0.0
        self._window_start = now

    @property
    def busy(self) -> int:
        """Number of currently busy servers."""
        return self._busy

    def utilization(self, now: float) -> float:
        """Mean utilization in [0, 1] over the current window."""
        elapsed = now - self._window_start
        if elapsed <= 0.0:
            return 0.0
        integral = self._busy_integral + self._busy * (now - self._last_change)
        return integral / (self.capacity * elapsed)


class ThroughputMeter:
    """Counts completions and reports a rate over the measurement window."""

    __slots__ = ("_count", "_window_start")

    def __init__(self, now: float = 0.0) -> None:
        self._count = 0
        self._window_start = now

    def record(self) -> None:
        """One unit of work (a request) completed."""
        self._count += 1

    def reset(self, now: float) -> None:
        """Zero the counter and restart the window at ``now``."""
        self._count = 0
        self._window_start = now

    @property
    def count(self) -> int:
        """Completions since the window started."""
        return self._count

    def per_second(self, now: float) -> float:
        """Completions per second (sim time is in ms)."""
        elapsed_ms = now - self._window_start
        if elapsed_ms <= 0.0:
            return 0.0
        return self._count / (elapsed_ms / 1000.0)


class RunningStats:
    """Streaming mean (Welford's update)."""

    __slots__ = ("n", "_mean")

    def __init__(self) -> None:
        self.n = 0
        self._mean = 0.0

    def record(self, x: float) -> None:
        """Add one observation."""
        self.n += 1
        delta = x - self._mean
        self._mean += delta / self.n

    def reset(self) -> None:
        """Discard all observations."""
        self.n = 0
        self._mean = 0.0

    @property
    def mean(self) -> float:
        """Sample mean (0.0 when empty)."""
        return self._mean if self.n else 0.0


class ReservoirQuantiles:
    """Fixed-size deterministic reservoir for approximate quantiles.

    Keeps every k-th observation once the reservoir fills (systematic
    sampling).  Deterministic by construction — no RNG — so repeated runs
    report identical percentiles.
    """

    __slots__ = ("_capacity", "_samples", "_seen", "_stride")

    def __init__(self, capacity: int = 4096) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self._capacity = capacity
        self._samples: list[float] = []
        self._seen = 0
        self._stride = 1

    def record(self, x: float) -> None:
        """Add one observation (may be subsampled)."""
        if self._seen % self._stride == 0:
            if len(self._samples) >= self._capacity:
                # Halve the resolution: keep every other sample.
                self._samples = self._samples[::2]
                self._stride *= 2
            if self._seen % self._stride == 0:
                self._samples.append(x)
        self._seen += 1

    def reset(self) -> None:
        """Discard all observations."""
        self._samples.clear()
        self._seen = 0
        self._stride = 1

    def quantile(self, q: float) -> float:
        """Approximate q-quantile, q in [0, 1]; 0.0 when empty."""
        if not 0.0 <= q <= 1.0:
            raise ValueError("q must be in [0, 1]")
        if not self._samples:
            return 0.0
        data = sorted(self._samples)
        idx = min(len(data) - 1, int(round(q * (len(data) - 1))))
        return data[idx]

    @property
    def count(self) -> int:
        """Observations seen (not the reservoir size)."""
        return self._seen


class WindowedSeries:
    """A time series binned into fixed-width windows of simulated time.

    Two accumulation modes:

    * :meth:`add` drops a point sample (e.g. one completed request) into
      the window containing ``t`` — rendering rates per window;
    * :meth:`add_interval` spreads ``value`` over ``[t0, t1)``
      proportionally to each window's overlap — rendering busy-time
      integrals (utilization) and time-averaged queue depths.

    Windows are indexed from ``t_origin``; only touched windows are
    stored, so sparse series stay cheap.
    """

    __slots__ = ("window_ms", "t_origin", "_bins")

    def __init__(self, window_ms: float, t_origin: float = 0.0) -> None:
        if not 0 < window_ms < math.inf:
            raise ValueError("window_ms must be positive and finite")
        self.window_ms = float(window_ms)
        self.t_origin = float(t_origin)
        self._bins: dict[int, float] = {}

    def _index(self, t: float) -> int:
        return int((t - self.t_origin) // self.window_ms)

    def add(self, t: float, value: float = 1.0) -> None:
        """Add a point sample at time ``t``."""
        idx = self._index(t)
        self._bins[idx] = self._bins.get(idx, 0.0) + value

    def add_interval(self, t0: float, t1: float, value: float = 1.0) -> None:
        """Spread ``value`` (a rate, per ms) over the interval ``[t0, t1)``.

        Each overlapped window accumulates ``value * overlap_ms`` — so a
        busy interval with ``value=1.0`` integrates busy-time, and
        dividing a window's total by ``window_ms`` recovers the mean
        level over that window.
        """
        if t1 < t0:
            raise ValueError("interval end precedes start")
        if t1 == t0:
            return
        first, last = self._index(t0), self._index(t1)
        for idx in range(first, last + 1):
            lo = self.t_origin + idx * self.window_ms
            hi = lo + self.window_ms
            overlap = min(t1, hi) - max(t0, lo)
            if overlap > 0.0:
                self._bins[idx] = self._bins.get(idx, 0.0) + value * overlap

    @property
    def empty(self) -> bool:
        """True when nothing has been accumulated."""
        return not self._bins

    def window_range(self) -> tuple[int, int]:
        """(first_index, last_index) of touched windows; (0, -1) if empty."""
        if not self._bins:
            return (0, -1)
        return (min(self._bins), max(self._bins))

    def values(self, first: int | None = None,
               last: int | None = None) -> list[float]:
        """Dense per-window totals over ``[first, last]`` (default: the
        touched range), zero-filled where nothing accumulated."""
        lo, hi = self.window_range()
        if first is None:
            first = lo
        if last is None:
            last = hi
        return [self._bins.get(i, 0.0) for i in range(first, last + 1)]

    def window_start(self, index: int) -> float:
        """Simulated time at which window ``index`` begins."""
        return self.t_origin + index * self.window_ms


class CounterSet:
    """A named bundle of integer counters (hit/miss/forward/... events)."""

    __slots__ = ("_counts",)

    def __init__(self) -> None:
        self._counts: dict[str, int] = {}

    def incr(self, name: str, by: int = 1) -> None:
        """Increment ``name`` by ``by`` (creates it at zero)."""
        self._counts[name] = self._counts.get(name, 0) + by

    def get(self, name: str) -> int:
        """Current value of ``name`` (0 if never incremented)."""
        return self._counts.get(name, 0)

    def reset(self) -> None:
        """Zero every counter."""
        self._counts.clear()

    def as_dict(self) -> dict[str, int]:
        """Snapshot of all counters."""
        return dict(self._counts)

    def bind(self, registry: MetricsRegistry, prefix: str) -> None:
        """Expose this bundle through a shared
        :class:`~repro.obs.metrics.MetricsRegistry` under ``prefix``.

        Registered as a collector, so the registry reads :meth:`as_dict`
        only at snapshot time — ``incr`` stays a plain dict update on the
        simulation hot path.
        """
        registry.register_collector(prefix, self.as_dict)


def block_hit_rates(counters: CounterSet) -> dict[str, float]:
    """Block-level local / remote / disk fractions of a server's
    ``local_hit``, ``remote_hit`` and ``disk_read`` counters (Figure 4)."""
    return hit_fractions(counters.get("local_hit"), counters.get("remote_hit"),
                         counters.get("disk_read"))


def hit_fractions(local: int, remote: int, disk: int) -> dict[str, float]:
    """Shares of ``local``, ``remote`` and ``disk`` block accesses in
    their total, and ``total``: the share served from memory."""
    total = local + remote + disk
    if total == 0:
        return {"local": 0.0, "remote": 0.0, "disk": 0.0, "total": 0.0}
    return {
        "local": local / total,
        "remote": remote / total,
        "disk": disk / total,
        "total": (local + remote) / total,
    }
