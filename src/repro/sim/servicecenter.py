"""Service centers: the building block of the hardware model.

The paper: "our simulator ... is event driven and models hardware
components as service centers with finite queues."  A
:class:`ServiceCenter` has ``capacity`` parallel servers and a bounded
FIFO queue; jobs carry a fixed service demand in milliseconds.  CPUs,
NICs, buses and the router are plain service centers.  The disk needs
state-dependent service times and a reorderable queue, so
:class:`repro.cluster.disk.Disk` is a standalone class that shares no
code with :class:`ServiceCenter`.

A job is one :class:`Event`, pushed once when service starts.  When it
pops, the centre's bookkeeping runs (free the server, start the next
queued job), then the job completes.  If that completion would be the
kernel's very next pop (``Simulator._fire_in_place``), the waiters fire
in place and the job takes the ``seq`` its ``succeed`` push would have
taken; otherwise it pushes itself at ``now`` exactly as ``succeed`` does.
Either way every event, its ``(time, seq)`` order and the event count
are unchanged.
"""

from __future__ import annotations

import math
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


class _Job(Event):
    """One accepted job: its own service-completion event and the event
    its waiters wait on.  Service demand is ``svc_ms``; ``svc_start`` is
    stamped when it enters service.  :meth:`ServiceCenter.submit` builds
    it (there is no ``__init__``)."""

    __slots__ = ("_center",)

    def _fire(self) -> None:
        if not self._triggered:
            # Service ends: free the server, then complete the job.
            self._triggered = True
            sim = self.sim
            center = self._center
            center._in_service -= 1
            center.utilization.on_stop(sim._now)
            center.completed += 1
            # The freed server takes the next queued job before this job
            # completes, so that job's push precedes the waiters' pushes.
            queue = center._queue
            if queue:
                center._start(queue.popleft())
            if not sim._fire_in_place():
                sim._push(0.0, self)  # deliver on a later pop, as succeed() does
                return
        # Event._fire, inlined: this runs once per job.
        self._processed = True
        callbacks, self.callbacks = self.callbacks, []
        for cb in callbacks:
            cb(self)


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
        self._queue: deque[_Job] = deque()
        self._in_service = 0
        #: Total jobs completed since construction (not windowed).
        self.completed = 0
        #: Total jobs dropped because the queue was full.
        self.dropped = 0

    # -- client API ---------------------------------------------------------
    def submit(self, demand_ms: float, value: Any = None) -> Event:
        """Enqueue a job needing ``demand_ms`` of service.

        The returned event fires with ``value`` when service completes.
        ``demand_ms`` must be finite and >= 0.
        """
        if not 0 <= demand_ms < math.inf:  # NaN fails both comparisons
            raise ValueError(
                f"service demand must be finite and >= 0 ms, got {demand_ms!r}")
        free = self._in_service < self.capacity
        if not free and len(self._queue) >= self.queue_limit:
            self.dropped += 1
            return Event(self.sim).fail(QueueFullError(self))
        # The job's slots are set here, flat: calling the class would run
        # an __init__ frame, once per job.
        job = _Job.__new__(_Job)
        job.sim = self.sim
        job.callbacks = []
        job._value = value
        job._ok = True
        job._triggered = False
        job._processed = False
        job._center = self
        job.svc_ms = demand_ms
        if free:
            self._start(job)
        else:
            self._queue.append(job)
        return job

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
    def _start(self, job: _Job) -> None:
        self._in_service += 1
        sim = self.sim
        now = sim._now
        self.utilization.on_start(now)
        # Stamp service entry on the job so the profiler can split the
        # wait into queueing vs. service after the fact.
        job.svc_start = now
        sim._push(job.svc_ms, job)

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
