"""Service centers: the building block of the hardware model.

The paper: "our simulator ... is event driven and models hardware
components as service centers with finite queues."  A
:class:`ServiceCenter` has ``capacity`` parallel servers and a bounded
FIFO queue; jobs carry a fixed service demand in milliseconds.  CPUs,
NICs, buses and the router are plain service centers; the disk (which
needs state-dependent service times and a reorderable queue) subclasses
the queue-management core in :mod:`repro.cluster.disk`.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Any

from .engine import Event, Simulator
from .stats import UtilizationTracker

if TYPE_CHECKING:
    from ..obs.metrics import MetricsRegistry

__all__ = ["QueueFullError", "ServiceCenter"]


class QueueFullError(RuntimeError):
    """A job arrived at a service center whose finite queue was full."""

    def __init__(self, center: "ServiceCenter") -> None:
        super().__init__(f"queue full at service center {center.name!r}")
        self.center = center


class ServiceCenter:
    """``capacity`` servers fed by one bounded FIFO queue.

    ``submit(demand_ms)`` returns an :class:`Event` that fires when the
    job's service completes.  If the queue is full the event *fails* with
    :class:`QueueFullError`, which a waiting process sees as a raised
    exception — overload is loud, never silent.
    """

    __slots__ = ("sim", "name", "capacity", "queue_limit", "utilization",
                 "_queue", "_in_service", "completed", "dropped")

    def __init__(
        self,
        sim: Simulator,
        name: str,
        capacity: int = 1,
        queue_limit: int = 100_000,
    ) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        if queue_limit < 0:
            raise ValueError("queue_limit must be >= 0")
        self.sim = sim
        self.name = name
        self.capacity = capacity
        self.queue_limit = queue_limit
        #: Busy-time integral, feeds Figure 6a.
        self.utilization = UtilizationTracker(capacity, sim.now)
        self._queue: deque[tuple[float, Event]] = deque()
        self._in_service = 0
        #: Total jobs completed since construction (not windowed).
        self.completed = 0
        #: Total jobs dropped because the queue was full.
        self.dropped = 0

    # -- client API ---------------------------------------------------------
    def submit(self, demand_ms: float, value: Any = None) -> Event:
        """Enqueue a job needing ``demand_ms`` of service.

        The returned event fires with ``value`` when service completes.
        """
        if demand_ms < 0:
            raise ValueError(f"negative service demand: {demand_ms!r}")
        done = Event(self.sim)
        if self._in_service < self.capacity:
            self._start(demand_ms, done, value)
        elif len(self._queue) < self.queue_limit:
            self._queue.append((demand_ms, done))
            done._value = value  # stash; delivered on completion
        else:
            self.dropped += 1
            done.fail(QueueFullError(self))
        return done

    @property
    def queue_length(self) -> int:
        """Jobs waiting (not counting those in service)."""
        return len(self._queue)

    @property
    def load(self) -> int:
        """Jobs in the center: waiting plus in service.

        PRESS's load-aware dispatcher reads this.
        """
        return len(self._queue) + self._in_service

    # -- internals ------------------------------------------------------------
    def _start(self, demand_ms: float, done: Event, value: Any) -> None:
        self._in_service += 1
        sim = self.sim
        now = sim._now
        self.utilization.on_start(now)
        # Stamp service entry on the completion event so the profiler can
        # split the wait into queueing vs. service after the fact.
        done.svc_start = now
        done.svc_ms = demand_ms
        sim.call_after(demand_ms, self._finish, done, value)

    def _finish(self, done: Event, value: Any) -> None:
        self._in_service -= 1
        self.utilization.on_stop(self.sim._now)
        self.completed += 1
        # Batched dequeue: drain every startable job in one pass.  A
        # single completion frees exactly one server, so the loop body
        # runs at most once today (same event stream as the old
        # single-dequeue — golden-pinned); it only iterates further if
        # capacity grows while jobs wait, instead of stranding them.
        queue = self._queue
        while queue and self._in_service < self.capacity:
            demand_ms, next_done = queue.popleft()
            stashed = next_done._value
            next_done._value = None
            self._start(demand_ms, next_done, stashed)
        done.succeed(value)

    def reset_stats(self) -> None:
        """Start a fresh measurement window (end of warm-up)."""
        self.utilization.reset(self.sim.now)

    def metrics(self) -> dict:
        """Current occupancy statistics for the metrics registry."""
        return {
            "completed": self.completed,
            "dropped": self.dropped,
            "queue_length": len(self._queue),
            "in_service": self._in_service,
            "utilization": self.utilization.utilization(self.sim.now),
        }

    def bind_metrics(self, registry: MetricsRegistry) -> None:
        """Register this center as a collector under its own name."""
        registry.register_collector(self.name, self.metrics)
