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
  sequence either way.  The :class:`Profiler` opens the phase span and
  appends the callback that closes it to the event; the waiting process
  appends its own resume callback right after, so the span closes at
  the instant the process resumes, just before it.  An event that has
  already fired gets a relay event in its place (see :func:`_closing`),
  which takes the ``seq`` of the relay the kernel would push for it, so
  event counts match too.
* Service centers stamp ``svc_start`` / ``svc_ms`` / ``svc_seek_ms``
  onto completion events as plain attribute stores — behaviour-neutral,
  and read by the closing callback to split queueing from service.

A span whose event never fires stays open, and exports flag it
``"unfinished"``.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable
from typing import TYPE_CHECKING, Any

from .tracing import Span, Tracer

if TYPE_CHECKING:
    from ..sim.engine import Event

__all__ = ["PHASE_SPAN", "Profiler", "NullProfiler", "NULL_PROFILER"]

#: Span name reserved for profiler phase spans.
PHASE_SPAN = "ph"


def _closing(event: Event, close: Callable[[Event], None]) -> Event:
    """The event a process yields to wait on ``event`` with ``close`` run
    as it resumes.

    A pending event takes ``close`` as its next callback, and the
    waiting process's own resume callback goes right after it.  An event
    that was already processed runs no more callbacks, so a relay stands
    in: pushed at ``now`` with the event's value or failure.  It is the
    one event ``Process._resume`` would have pushed to resume on an
    already-processed event, so it takes the same ``seq``.  Either way
    ``close`` reads the outcome and stamps of ``event`` itself.
    """
    if event.processed:
        relay = event.sim.event()
        relay.callbacks.append(close)
        if event.ok:
            relay.succeed(event.value)
        else:
            relay.fail(event.value)
        return relay
    event.callbacks.append(close)
    return event


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
        span = self.tracer.start(PHASE_SPAN, parent=parent, node=node,
                                 p=phase, **attrs)

        def close(_fired: Event) -> None:
            if not event.ok:
                span.finish(error=True)
                return
            svc_start = getattr(event, "svc_start", None)
            if svc_start is not None and svc_start >= span.start:
                span.finish(q=svc_start - span.start)
            else:
                span.finish()

        return _closing(event, close)

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
        span = self.tracer.start(PHASE_SPAN, parent=parent, node=node,
                                 p="disk", n=len(runs), **attrs)

        def close(_fired: Event) -> None:
            if not event.ok:
                span.finish(error=True)
                return
            # Plain left-to-right float additions: from Python 3.12 on,
            # builtin sum() compensates rounding over floats, and the
            # stamps must not depend on the interpreter.
            seek = svc = 0.0
            for run in runs:
                seek += getattr(run, "svc_seek_ms", 0.0)
                svc += getattr(run, "svc_ms", 0.0)
            span.finish(seek=seek, svc=svc)

        return _closing(event, close)


class NullProfiler:
    """Disabled profiler: waits return their event untouched, no spans.

    A profiled run creates the same events in the same ``(time, seq)``
    order (see :func:`_closing`), so trace bytes and metrics are
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
