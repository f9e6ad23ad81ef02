"""Discrete-event simulation kernel.

A compact, deterministic, generator-based kernel in the style the paper's
simulator implies ("event driven ... hardware components as service centers
with finite queues").  The design goals, in order:

1. **Determinism** — events at equal timestamps fire in schedule order
   (FIFO by a monotonically increasing sequence number), so every
   experiment is reproducible bit-for-bit given a seed.
2. **Readability** — request flows are written as Python generators that
   ``yield`` events (:class:`Timeout`, service-center grants, or
   combinators), which keeps multi-hop protocol code linear.
3. **Speed** — the pending-event set is one binary heap of
   ``(time, seq, event)`` triples that the :class:`Simulator` pushes to
   and pops from directly (``heapq`` is C-implemented); kernel-internal
   paths read slots rather than properties, and nothing dispatches
   dynamically beyond one ``callbacks`` list.

This is intentionally a small subset of a general-purpose DES library:
exactly what the cluster model needs, nothing more.
"""

from __future__ import annotations

from collections.abc import Callable, Generator, Iterable
from heapq import heappop, heappush
from typing import Any

__all__ = [
    "Event",
    "Timeout",
    "AllOf",
    "AnyOf",
    "Process",
    "Simulator",
    "SimulationError",
]


class SimulationError(RuntimeError):
    """Raised for kernel misuse (e.g. scheduling into the past)."""


class Event:
    """A one-shot occurrence that callbacks and processes can wait on.

    An event starts *pending*, becomes *triggered* when :meth:`succeed` or
    :meth:`fail` is called, and fires its callbacks when the kernel
    processes it.  Events are single-use: triggering twice is an error.
    """

    __slots__ = (
        "sim", "callbacks", "_value", "_ok", "_triggered", "_processed",
        # Service-phase stamps, assigned only by service centers: the
        # service time once it is known, and the instant a job enters
        # service (see ServiceCenter._start / Disk._dispatch).  Left
        # unset on every other event; the profiler reads them with
        # getattr(ev, ..., None) to split queueing from service time.
        "svc_start", "svc_ms", "svc_seek_ms",
    )

    def __init__(self, sim: "Simulator") -> None:
        self.sim = sim
        #: Callables invoked as ``cb(event)`` when the event is processed.
        self.callbacks: list[Callable[["Event"], None]] = []
        self._value: Any = None
        self._ok: bool = True
        self._triggered = False
        self._processed = False

    # -- state inspection -------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once the event has a value (it may not have fired yet)."""
        return self._triggered

    @property
    def processed(self) -> bool:
        """True once callbacks have run."""
        return self._processed

    @property
    def ok(self) -> bool:
        """False if the event was failed."""
        return self._ok

    @property
    def value(self) -> Any:
        """The value passed to :meth:`succeed` (or the failure exception)."""
        return self._value

    # -- triggering --------------------------------------------------------
    def succeed(self, value: Any = None, delay: float = 0.0) -> "Event":
        """Trigger the event successfully after ``delay`` sim-ms."""
        if self._triggered:
            raise SimulationError("event already triggered")
        self._triggered = True
        self._value = value
        self.sim._push(delay, self)
        return self

    def fail(self, exc: BaseException, delay: float = 0.0) -> "Event":
        """Trigger the event as failed; waiting processes see ``exc`` thrown."""
        if self._triggered:
            raise SimulationError("event already triggered")
        self._triggered = True
        self._ok = False
        self._value = exc
        self.sim._push(delay, self)
        return self

    def _fire(self) -> None:
        self._processed = True
        callbacks, self.callbacks = self.callbacks, []
        for cb in callbacks:
            cb(self)


class Timeout(Event):
    """An event that fires after a fixed delay (created already triggered)."""

    __slots__ = ()

    def __init__(self, sim: "Simulator", delay: float, value: Any = None) -> None:
        if not delay >= 0:  # also rejects NaN, which passes "delay < 0"
            raise SimulationError(f"negative timeout delay (or NaN): {delay!r}")
        # Slots set flat, without the Event.__init__ frame.
        self.sim = sim
        self.callbacks = []
        self._value = value
        self._ok = True
        self._triggered = True
        self._processed = False
        sim._push(delay, self)


class _Callback(Event):
    """Internal: a pre-triggered event that calls ``fn(*args)`` when fired.

    This is the allocation-light fast path behind :meth:`Simulator.call_at`
    / :meth:`Simulator.call_after` — one slotted object, no closure, no
    ``succeed`` round-trip.  It is pushed exactly once, so its position in
    the ``(time, seq)`` order is identical to the ``Event`` + lambda chain
    it replaced; golden digests cannot observe the difference.
    """

    __slots__ = ("_fn", "_args")

    def __init__(self, sim: "Simulator", fn: Callable[..., None],
                 args: tuple[Any, ...]) -> None:
        self.sim = sim
        self.callbacks = []
        self._value = None
        self._ok = True
        self._triggered = True
        self._processed = False
        self._fn = fn
        self._args = args

    def _fire(self) -> None:
        self._processed = True
        self._fn(*self._args)
        if self.callbacks:
            callbacks, self.callbacks = self.callbacks, []
            for cb in callbacks:
                cb(self)


class AllOf(Event):
    """Fires when *all* child events have fired; value = list of values.

    Used by nodes that fan out block fetches to several sources and resume
    when the last reply arrives.  An empty iterable fires immediately.  A
    child that was already processed counts at once (and fails the
    combinator at once if it failed), as :meth:`Process._resume` treats
    an already-processed target.
    """

    __slots__ = ("_pending", "_values")

    def __init__(self, sim: "Simulator", events: Iterable[Event]) -> None:
        super().__init__(sim)
        events = list(events)
        self._values: list[Any] = [None] * len(events)
        self._pending = len(events)
        if self._pending == 0:
            self.succeed([])
            return
        for i, ev in enumerate(events):
            cb = self._make_child_cb(i)
            if ev._processed:
                cb(ev)
            else:
                ev.callbacks.append(cb)

    def _make_child_cb(self, index: int) -> Callable[[Event], None]:
        def cb(ev: Event) -> None:
            """Collect child event values; fire when the last lands."""
            if not ev._ok:
                if not self._triggered:
                    self.fail(ev._value)
                return
            self._values[index] = ev._value
            self._pending -= 1
            if self._pending == 0 and not self._triggered:
                self.succeed(self._values)

        return cb


class AnyOf(Event):
    """Fires when the *first* child event fires; value = that event's value.

    An already-processed child wins at once (the first such in argument
    order), as :meth:`Process._resume` treats an already-processed target.
    """

    __slots__ = ()

    def __init__(self, sim: "Simulator", events: Iterable[Event]) -> None:
        super().__init__(sim)
        events = list(events)
        if not events:
            raise SimulationError("AnyOf requires at least one event")
        for ev in events:
            if ev._processed:
                self._child_cb(ev)
            else:
                ev.callbacks.append(self._child_cb)

    def _child_cb(self, ev: Event) -> None:
        if self._triggered:
            return
        if ev._ok:
            self.succeed(ev._value)
        else:
            self.fail(ev._value)


class Process(Event):
    """Drives a generator; itself an event that fires when the generator ends.

    The generator yields :class:`Event` objects; the process resumes with
    the event's value when it fires (or has the failure exception thrown
    into it).  The process's own value is the generator's return value.
    """

    __slots__ = ("_gen",)

    def __init__(self, sim: "Simulator", gen: Generator[Event, Any, Any]) -> None:
        self.sim = sim
        self.callbacks = []
        self._value = None
        self._ok = True
        self._triggered = False
        self._processed = False
        self._gen = gen
        # Bootstrap on the next kernel step so creation order == start
        # order.  The process itself is the one pushed entry: it fires
        # untriggered, which _fire reads as "start the generator".
        sim._push(0.0, self)

    def _fire(self) -> None:
        if not self._triggered:
            # Bootstrap: an untriggered process reads as ok with value
            # None, so _resume starts the generator with send(None).
            self._resume(self)
            return
        self._processed = True
        callbacks, self.callbacks = self.callbacks, []
        for cb in callbacks:
            cb(self)

    def _resume(self, ev: Event) -> None:
        try:
            if ev._ok:
                target = self._gen.send(ev._value)
            else:
                target = self._gen.throw(ev._value)
        except StopIteration as stop:
            self.succeed(stop.value)
            return
        except BaseException as exc:  # propagate model bugs loudly
            if isinstance(exc, (KeyboardInterrupt, SystemExit)):
                raise
            self.fail(exc)
            return
        if not isinstance(target, Event):
            raise SimulationError(
                f"process yielded {target!r}; processes must yield Event objects"
            )
        if target._processed:
            # Already fired: resume on the next kernel step with its value.
            imm = Event(self.sim)
            imm.callbacks.append(self._resume)
            if target._ok:
                imm.succeed(target._value)
            else:
                imm.fail(target._value)
        else:
            target.callbacks.append(self._resume)


class Simulator:
    """The event loop over one heap of pending ``(time, seq, event)`` triples.

    ``seq`` breaks timestamp ties in schedule order, which makes runs
    deterministic: same-timestamp events fire in the order they were
    scheduled.
    """

    __slots__ = ("_now", "_heap", "_seq", "_step_hooks", "_draining")

    def __init__(self) -> None:
        self._now: float = 0.0
        self._heap: list[tuple[float, int, Event]] = []
        self._seq = 0
        # Observability hooks fired after each processed event; empty on
        # the hot path (one truthiness check per step when unused).
        self._step_hooks: list[Callable[["Simulator"], None]] = []
        # True only while run()'s unconditional drain runs with no step
        # hooks: the one mode in which _fire_in_place may say yes.
        self._draining = False

    @property
    def now(self) -> float:
        """Current simulation time in milliseconds."""
        return self._now

    @property
    def event_count(self) -> int:
        """Total events processed so far (for budget checks in tests).

        Every event takes one ``seq``: a push takes it when scheduling,
        and a completion fired in place takes the one its push would
        have.  So the count is ``seq`` less the entries still pending;
        the dispatch loop keeps no counter.
        """
        return self._seq - len(self._heap)

    # -- factories ----------------------------------------------------------
    def event(self) -> Event:
        """Create a fresh pending event."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """An event that fires ``delay`` ms from now."""
        return Timeout(self, delay, value)

    def process(self, gen: Generator[Event, Any, Any]) -> Process:
        """Start a coroutine process; returns its completion event."""
        return Process(self, gen)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        """Event that fires once every event in ``events`` has fired."""
        return AllOf(self, events)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        """Event that fires when the first event in ``events`` fires."""
        return AnyOf(self, events)

    def call_at(self, when: float, fn: Callable[..., None], *args: Any) -> Event:
        """Schedule a plain callback at absolute time ``when``."""
        if when < self._now:
            raise SimulationError(f"call_at into the past: {when} < {self._now}")
        ev = _Callback(self, fn, args)
        self._push(when - self._now, ev)
        return ev

    def call_after(self, delay: float, fn: Callable[..., None], *args: Any) -> Event:
        """Schedule a plain callback ``delay`` ms from now."""
        ev = _Callback(self, fn, args)
        self._push(delay, ev)  # validates delay >= 0
        return ev

    # -- kernel --------------------------------------------------------------
    def _push(self, delay: float, event: Event) -> None:
        if not delay >= 0:  # also rejects NaN, which passes "delay < 0"
            raise SimulationError(f"negative delay (or NaN): {delay!r}")
        # The tie-break contract: seq is assigned here, strictly
        # increasing, so same-timestamp events fire in schedule order.
        # The only other takers are events that skip a push they would
        # have made (see _fire_in_place); they take the same seq.
        seq = self._seq + 1
        self._seq = seq
        heappush(self._heap, (self._now + delay, seq, event))

    def _fire_in_place(self) -> bool:
        """May an event about to push itself at ``now`` fire in place?

        Yes when that push would be the very next pop and nothing can run
        in between: run()'s drain is running with no step hooks, and no
        pending entry is due at ``now`` (one there has a smaller ``seq``).
        The caller then fires the event itself, and this takes the
        ``seq`` the push would have, so ``event_count`` and the order of
        later pushes are unchanged.  step(), budgeted runs and hooked
        runs always get no, so they see one event per pop.
        """
        heap = self._heap
        if self._draining and (not heap or heap[0][0] > self._now):
            self._seq += 1
            return True
        return False

    # -- observability hooks -------------------------------------------------
    def add_step_hook(self, hook: Callable[["Simulator"], None]) -> None:
        """Call ``hook(sim)`` after every processed event.

        This is the attachment point for samplers and tracers (see
        :mod:`repro.obs`); hooks must not schedule into the past and
        should be cheap — they run on the kernel hot path.  A hook sees
        every event, so it turns in-place firing off.
        """
        self._step_hooks.append(hook)
        self._draining = False

    def remove_step_hook(self, hook: Callable[["Simulator"], None]) -> None:
        """Detach a previously added step hook."""
        self._step_hooks.remove(hook)

    def step(self) -> None:
        """Process the single next event; IndexError if none is pending."""
        when, _seq, event = heappop(self._heap)
        self._now = when
        event._fire()
        if self._step_hooks:
            for hook in self._step_hooks:
                hook(self)

    def peek(self) -> float:
        """Time of the next event, or ``inf`` if none is pending."""
        return self._heap[0][0] if self._heap else float("inf")

    def run(
        self,
        until: float | None = None,
        max_events: int | None = None,
        stop: Event | None = None,
    ) -> None:
        """Run until the heap drains, ``until`` is reached, ``stop``
        fires, or ``max_events`` more events have been processed.

        ``until`` is exclusive in the usual DES sense: an event scheduled
        exactly at ``until`` is *not* processed, and ``now`` is advanced to
        ``until``.
        """
        heap = self._heap
        if until is None and max_events is None and stop is None:
            # The unconditional drain — every experiment's hot loop.
            # Same semantics as the general loop below, minus the three
            # per-event guard checks and the step() call indirection.
            # Nothing here stops between two events, so an event that
            # is the next pop may fire in place (see _fire_in_place).
            hooks = self._step_hooks
            self._draining = not hooks
            try:
                while heap:
                    when, _seq, event = heappop(heap)
                    self._now = when
                    event._fire()
                    if hooks:
                        for hook in hooks:
                            hook(self)
            finally:
                self._draining = False
            return
        budget = max_events if max_events is not None else -1
        while heap:
            if stop is not None and stop._processed:
                return
            if until is not None and heap[0][0] >= until:
                self._now = until
                return
            if budget == 0:
                return
            self.step()
            if budget > 0:
                budget -= 1
        if until is not None and until > self._now:
            self._now = until
