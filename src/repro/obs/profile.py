"""Inline critical-path profiler: phase spans around every blocking wait.

The protocol coroutines are *serial*: between two ``yield``\\ s no
simulated time passes, so the intervals a request spends blocked on
events tile its span exactly.  The profiler exploits this by wrapping
each wait in a zero-overhead-when-off phase span (name ``"ph"``), which
lets :mod:`repro.obs.analyze` decompose measured response time into
exhaustive, non-overlapping phases offline — router, CPU queue/service,
NIC, wire, disk queue/seek/transfer, peer/master/coalesce waits.

Two design rules keep golden traces byte-identical when profiling is
off:

* Call sites always read ``yield prof.wait(...)``: a wait is a plain
  call that returns the event to yield.  The :class:`NullProfiler`
  returns the event it is given, so the kernel sees the same event
  sequence either way.  The :class:`Profiler` builds the phase span, a
  slotted :class:`~repro.obs.tracing.Span` that holds the event it waits
  on, and appends the span's bound ``close`` to that event's callbacks.
  The waiting process appends its own resume callback right after, so
  the span closes at the instant the process resumes, just before it:
  ``close`` reads the event's outcome and stamps and writes the record
  straight into the tracer's log.  An event that has already fired gets
  a relay event in its place (see :func:`_relay`), which takes the
  ``seq`` of the relay the kernel would push for it, so event counts
  match too.
* Service centers stamp ``svc_start`` / ``svc_ms`` / ``svc_seek_ms``
  onto completion events as plain attribute stores — behaviour-neutral,
  and read by ``close`` to split queueing from service.

A span whose event never fires stays open, and exports flag it
``"unfinished"``.
"""

from __future__ import annotations

from collections.abc import Iterable
from typing import TYPE_CHECKING, Any

from .tracing import NULL_SPAN, Span, Tracer

if TYPE_CHECKING:
    from ..sim.engine import Event

__all__ = ["PHASE_SPAN", "Profiler", "NullProfiler", "NULL_PROFILER"]

#: Span name reserved for profiler phase spans.
PHASE_SPAN = "ph"


class _PhaseSpan(Span):
    """A phase span open on the event it waits on.

    Its bound :meth:`close` is that event's closing callback.  A ``disk``
    span also holds the runs whose stamps it sums (``_runs``; None for
    every other phase).
    """

    __slots__ = ("_event", "_runs")

    def __init__(self, tracer: Tracer, parent: Span | None, node: int | None,
                 attrs: dict[str, Any], event: Event,
                 runs: list[Event] | None = None):
        tracer._next_id = span_id = tracer._next_id + 1
        self._tracer = tracer
        self.span_id = span_id
        if parent is None or parent is NULL_SPAN:
            self.trace_id = span_id
            self.parent_id = None
        else:
            self.trace_id = parent.trace_id
            self.parent_id = parent.span_id
        self.name = PHASE_SPAN
        self.node = node
        self.start = tracer._clock()
        self.end = None
        self.attrs = attrs
        self._event = event
        self._runs = runs
        tracer._open[span_id] = self

    def close(self, _fired: Event) -> None:
        """Close at the current instant: with ``error=True`` if the event
        failed; else a ``disk`` span with its runs' summed ``seek`` and
        ``svc``, and any other with ``q``, the time queued before service
        began, if a service center stamped the event.

        The record goes straight into the tracer's log, in the layout
        :meth:`Tracer._emit <repro.obs.tracing.Tracer._emit>` writes.
        """
        if self.end is not None:
            raise RuntimeError(f"span {self.span_id} ({self.name}) finished twice")
        event = self._event
        attrs = self.attrs
        start = self.start
        if not event._ok:
            attrs["error"] = True
        elif self._runs is not None:
            # Plain left-to-right float additions: from Python 3.12 on,
            # builtin sum() compensates rounding over floats, and the
            # stamps must not depend on the interpreter.
            seek = svc = 0.0
            for run in self._runs:
                seek += getattr(run, "svc_seek_ms", 0.0)
                svc += getattr(run, "svc_ms", 0.0)
            attrs["seek"] = seek
            attrs["svc"] = svc
        else:
            svc_start = getattr(event, "svc_start", None)
            if svc_start is not None and svc_start >= start:
                attrs["q"] = svc_start - start
        tracer = self._tracer
        self.end = end = tracer._clock()
        span_id = self.span_id
        tracer._open.pop(span_id, None)
        log = tracer._log
        log += (self.trace_id, span_id, self.parent_id, PHASE_SPAN,
                self.node, start, end, len(attrs))
        for item in attrs.items():
            log += item


def _relay(event: Event) -> Event:
    """A stand-in for the already processed ``event``: pushed at ``now``
    with its value or failure.  It is the one event ``Process._resume``
    would have pushed to resume on ``event``, so it takes the same
    ``seq``."""
    relay = event.sim.event()
    if event._ok:
        return relay.succeed(event._value)
    return relay.fail(event._value)


class Profiler:
    """Records one ``"ph"`` span per blocking wait on the request path.

    Each phase span carries ``p`` (the phase name: ``cpu``, ``nic``,
    ``bus``, ``disk``, ``wire``, ``router``, ``fetch``, ``master_wait``,
    ``coalesce_wait``) plus whatever queue/service split the completion
    event was stamped with.
    """

    enabled = True

    __slots__ = ("tracer",)

    def __init__(self, tracer: Tracer):
        self.tracer = tracer

    def wait(
        self,
        parent: Span | None,
        node: int | None,
        phase: str,
        event: Event,
        **attrs: Any,
    ) -> Event:
        """Open a phase span on ``event``; returns the event to yield.

        Use as ``value = yield prof.wait(span, nid, "cpu", ev)``.  The
        span closes when the event fires: with ``error=True`` if it
        failed, and otherwise with ``q``, the time spent queued before
        service began, if a service center stamped the event.
        """
        span = _PhaseSpan(self.tracer, parent, node, {"p": phase, **attrs}, event)
        if event._processed:
            event = _relay(event)
        event.callbacks.append(span.close)
        return event

    def disk_wait(
        self,
        parent: Span | None,
        node: int | None,
        event: Event,
        runs: Iterable[Event],
        **attrs: Any,
    ) -> Event:
        """Open one ``disk`` phase span on disk run(s); returns the event
        to yield.

        ``event`` is what the caller blocks on (a single run's completion
        event, or an ``all_of`` over several parallel runs); ``runs`` are
        the underlying per-run completion events.  The span records the
        summed seek (``seek``) and busy (``svc``) components so the
        analyzer can split the wait into queue / seek / transfer.
        """
        runs = list(runs)
        span = _PhaseSpan(self.tracer, parent, node,
                          {"p": "disk", "n": len(runs), **attrs}, event, runs)
        if event._processed:
            event = _relay(event)
        event.callbacks.append(span.close)
        return event


class NullProfiler:
    """Disabled profiler: waits return their event untouched, no spans.

    A profiled run creates the same events in the same ``(time, seq)``
    order (see :func:`_relay`), so trace bytes and metrics are
    identical with profiling on or off.
    """

    enabled = False

    __slots__ = ()

    def wait(self, parent, node, phase, event: Event, **attrs) -> Event:
        return event

    def disk_wait(self, parent, node, event: Event, runs, **attrs) -> Event:
        return event


#: Process-wide disabled profiler (components default to this).
NULL_PROFILER = NullProfiler()
