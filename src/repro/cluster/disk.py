"""Disk model with position-dependent service times and pluggable scheduling.

This is the component the paper's Section 5 turns on:

* A request is a **contiguous run of blocks inside one 64 KB extent** (the
  pre-allocation assumption guarantees contiguity only within an extent).
* A run costs media transfer only if the head is already positioned there
  — i.e. the *previous* run served was the immediately preceding blocks of
  the same file extent.  Otherwise it pays a data seek **plus** the
  metadata seek the paper charges per 64 KB access.
* Under FIFO, runs from concurrently active request streams interleave and
  almost every run pays both seeks — the paper's "12 seeks instead of 4"
  pathology that makes one disk the whole cluster's bottleneck.
* The ``scan`` discipline reorders the queue to keep serving the stream
  the head is on, then sweeps in (file, extent, block) order — the
  "simple scheduling algorithm in our queue of disk requests" that turns
  CC-Basic into CC-Sched.

A run is one :class:`Event`, pushed once when it enters service, that
completes in place when it is the kernel's next pop, as a service-centre
job does (see :mod:`repro.sim.servicecenter`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from ..params import SimParams
from ..sim.engine import Event, Simulator
from ..sim.stats import UtilizationTracker

if TYPE_CHECKING:
    from ..obs.metrics import MetricsRegistry

__all__ = ["DiskRequest", "Disk", "FIFO", "SCAN"]

#: Queue-discipline names accepted by :class:`Disk`.
FIFO = "fifo"
SCAN = "scan"


@dataclass(frozen=True)
class DiskRequest:
    """One contiguous run of blocks within a single extent of a file."""

    # Hot-path object: one instance per disk run on every miss path.
    __slots__ = ("file_id", "extent", "start_block", "nblocks", "size_kb")

    file_id: int
    #: Index of the 64 KB extent within the file (0-based).
    extent: int
    #: First block within the file (0-based, global across extents).
    start_block: int
    #: Number of blocks in the run (must stay inside the extent).
    nblocks: int
    #: Bytes actually read, in KB (the last block may be partial).
    size_kb: float

    def __post_init__(self) -> None:
        if self.nblocks < 1:
            raise ValueError("run must contain at least one block")
        if self.size_kb <= 0:
            raise ValueError("run must read a positive number of KB")

    @property
    def end_block(self) -> int:
        """Block index one past the last block of the run."""
        return self.start_block + self.nblocks

    def sort_key(self) -> tuple[int, int, int]:
        """Elevator sweep position."""
        return (self.file_id, self.extent, self.start_block)


class _Run(Event):
    """One accepted run: its own service-completion event and the event
    its waiter waits on (with the request as value)."""

    __slots__ = ("_disk", "request")

    def __init__(self, disk: "Disk", request: DiskRequest) -> None:
        self.sim = disk.sim
        self.callbacks = []
        self._value = None
        self._ok = True
        self._triggered = False
        self._processed = False
        self._disk = disk
        self.request = request

    def _fire(self) -> None:
        if self._triggered:  # delivered through the heap
            Event._fire(self)
            return
        self._triggered = True
        sim = self.sim
        disk = self._disk
        request = self._value = self.request
        disk._busy = False
        disk.utilization.on_stop(sim._now)
        disk.completed += 1
        disk.reads_kb += request.size_kb
        # Wake the waiter *before* picking the next request: a stream
        # that immediately submits its next block (same timestamp) gets
        # that block into the queue in time for SCAN to recognise the
        # head continuation.  The deferred dispatch is a no-op if the
        # waiter's own submit() already restarted the disk.
        if not sim._fire_in_place():
            sim._push(0.0, self)
            sim.call_after(0.0, disk._maybe_dispatch)
            return
        Event._fire(self)
        # The deferred dispatch is the next pop too: the waiter's pushes
        # all come after it.  Run it in place with the seq it would take.
        sim._seq += 1
        disk._maybe_dispatch()


class Disk:
    """A single disk with one head, a bounded queue and a discipline.

    ``submit(request)`` returns an event firing when the run has been read.
    Statistics: seek counts (total and avoided), completed runs, KB read
    and busy-time utilization — the seek counters make the FIFO-vs-SCAN
    ablation (A4) directly observable.
    """

    __slots__ = (
        "sim", "name", "params", "discipline", "queue_limit", "utilization",
        "seeks", "contiguous_hits", "completed", "reads_kb",
        "_queue", "_busy", "_head", "stall_until",
    )

    def __init__(
        self,
        sim: Simulator,
        name: str,
        params: SimParams,
        discipline: str = SCAN,
        queue_limit: int = 100_000,
    ) -> None:
        if discipline not in (FIFO, SCAN):
            raise ValueError(f"unknown disk discipline: {discipline!r}")
        self.sim = sim
        self.name = name
        self.params = params
        self.discipline = discipline
        self.queue_limit = queue_limit
        self.utilization = UtilizationTracker(1, sim.now)
        #: Runs that paid the seek + metadata-seek penalty.
        self.seeks = 0
        #: Runs served with the head already positioned (no seek).
        self.contiguous_hits = 0
        #: Total runs completed.
        self.completed = 0
        #: Total KB read.
        self.reads_kb = 0.0
        self._queue: list[_Run] = []
        self._busy = False
        #: (file_id, extent, next_block) the head would continue at.
        self._head: tuple[int, int, int] | None = None
        #: Fault injection: no run enters service before this instant.
        #: 0.0 (the past) means never stalled — the dispatch-path check
        #: is then always false and costs one comparison.
        self.stall_until = 0.0

    def stall(self, duration_ms: float) -> None:
        """Freeze the head for ``duration_ms`` (fault injection).

        Queued and newly submitted runs wait; the run currently in
        service (if any) completes normally — the stall models a firmware
        hiccup between operations, not a torn read.  Overlapping stalls
        extend to the latest deadline.
        """
        if duration_ms <= 0:
            raise ValueError("stall duration must be positive")
        self.stall_until = max(self.stall_until, self.sim.now + duration_ms)

    # -- client API ---------------------------------------------------------
    def submit(self, request: DiskRequest) -> Event:
        """Enqueue a run; the returned event fires when it has been read."""
        if len(self._queue) >= self.queue_limit:
            from ..sim.servicecenter import QueueFullError

            return Event(self.sim).fail(QueueFullError(self))  # type: ignore[arg-type]
        run = _Run(self, request)
        self._queue.append(run)
        if not self._busy:
            self._dispatch()
        return run

    @property
    def queue_length(self) -> int:
        """Runs waiting for the head."""
        return len(self._queue)

    @property
    def load(self) -> int:
        """Runs waiting plus the one in service."""
        return len(self._queue) + (1 if self._busy else 0)

    def reset_stats(self) -> None:
        """Start a fresh measurement window (end of warm-up)."""
        self.utilization.reset(self.sim.now)
        self.seeks = 0
        self.contiguous_hits = 0
        self.reads_kb = 0.0

    def metrics(self) -> dict:
        """Current head/seek statistics for the metrics registry."""
        return {
            "seeks": self.seeks,
            "contiguous_hits": self.contiguous_hits,
            "completed": self.completed,
            "reads_kb": self.reads_kb,
            "queue_length": len(self._queue),
            "utilization": self.utilization.utilization(self.sim.now),
        }

    def bind_metrics(self, registry: MetricsRegistry) -> None:
        """Register this disk as a collector under its own name."""
        registry.register_collector(self.name, self.metrics)

    # -- scheduling -----------------------------------------------------------
    def _select_index(self) -> int:
        """Pick the queue index to serve next under the active discipline."""
        if self.discipline == FIFO or len(self._queue) == 1:
            return 0
        # SCAN: 1) keep streaming if any run continues the current head
        # position; 2) otherwise sweep upward in (file, extent, block)
        # order from the head, wrapping at the end.
        if self._head is not None:
            for i, run in enumerate(self._queue):
                req = run.request
                if (req.file_id, req.extent, req.start_block) == self._head:
                    return i
        best_idx = 0
        best_key = None
        wrap_idx = 0
        wrap_key = None
        head_key = self._head if self._head is not None else (-1, -1, -1)
        for i, run in enumerate(self._queue):
            key = run.request.sort_key()
            if key >= head_key:
                if best_key is None or key < best_key:
                    best_key, best_idx = key, i
            if wrap_key is None or key < wrap_key:
                wrap_key, wrap_idx = key, i
        return best_idx if best_key is not None else wrap_idx

    def _dispatch(self) -> None:
        if not self._queue:
            return
        sim = self.sim
        now = sim._now
        if now < self.stall_until:
            # Stalled: re-attempt dispatch the instant the stall clears.
            sim.call_at(self.stall_until, self._maybe_dispatch)
            return
        run = self._queue.pop(self._select_index())
        request = run.request
        contiguous = (
            self._head is not None
            and self._head == (request.file_id, request.extent, request.start_block)
        )
        service_ms = self.params.disk.read_ms(request.size_kb, contiguous=contiguous)
        if contiguous:
            self.contiguous_hits += 1
        else:
            self.seeks += 1
        self._busy = True
        self.utilization.on_start(now)
        self._head = (request.file_id, request.extent, request.end_block)
        # Stamp service entry + seek/transfer split on the run; the
        # profiler reads these to decompose disk waits.
        run.svc_start = now
        run.svc_ms = service_ms
        run.svc_seek_ms = (
            0.0 if contiguous
            else self.params.disk.seek_ms + self.params.disk.metadata_seek_ms
        )
        sim._push(service_ms, run)

    def _maybe_dispatch(self) -> None:
        if not self._busy and self._queue:
            self._dispatch()
