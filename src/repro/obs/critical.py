"""Critical-path extraction over the causal span DAG: the one span walker.

For each request this module extracts the **critical path**, the ordered
chain of leaf intervals that bounded its response time.  Everything that
turns spans into time derives from it: :func:`repro.obs.analyze.attribute`
is the per-phase sum of each request's path, and
:mod:`repro.obs.timeseries` takes its queue/service intervals from
:func:`phase_segments`, so the rules that turn a phase span's ``q`` /
``svc`` / ``seek`` stamps into time live only here.

The walk rests on two structural facts about the simulator:

* serial protocol coroutines — the phase spans (and nested sub-spans)
  under a span tile its interval, so every serial child is on the
  critical path and gaps between children are genuine unexplained wait;
* parallel fan-out happens only behind a ``fetch`` phase whose spawned
  spans are *siblings* under the same parent — a backward walk from the
  end of the fetch interval (always stepping to the candidate ending
  latest but no later than the current frontier) recovers the serial
  chain that bounded the wait, and uncovered time is waiting on another
  request's work (coalesce / peer / disk queue).

Each request's :class:`CriticalSegment` list tiles its root span
exactly, so per-phase critical milliseconds sum to the measured response
time (~0 residual).
"""

from __future__ import annotations

from collections.abc import Iterable
from typing import NamedTuple

from .analyze import SpanNode
from .profile import PHASE_SPAN

__all__ = [
    "CriticalSegment",
    "critical_path",
    "phase_segments",
]

#: Absolute float slack for interval containment / chain stepping (ms).
_EPS = 1e-9


class CriticalSegment(NamedTuple):
    """One leaf interval on a request's critical path."""

    #: Attribution bucket (``disk.queue``, ``cpu.service``, ...).
    phase: str
    #: Name of the span the interval came from (``"ph"`` for phases).
    name: str
    node: int | None
    start: float
    end: float

    @property
    def dur(self) -> float:
        return self.end - self.start


def _inside(phases: Iterable[SpanNode], c: SpanNode) -> bool:
    """True if finished span ``c`` lies within one of ``phases``' intervals.

    Span ids are monotone in creation order, so a span created during a
    wait always has a higher id than the wait's phase span — which
    disambiguates exact-timestamp boundaries (zero-duration gaps).
    """
    c_id, c_start, c_end = c.span_id, c.start, c.end
    if c_end is None:
        return False
    for p in phases:
        if p.span_id < c_id and p.start - _EPS <= c_start:
            p_end = p.end
            if p_end is not None and c_end <= p_end + _EPS:
                return True
    return False


def _seg(phase: str, src: SpanNode, start: float, end: float,
         out: list[CriticalSegment]) -> None:
    """Append a segment unless it is empty (within float slack)."""
    if end - start > _EPS:
        out.append(CriticalSegment(phase, src.name, src.node, start, end))


def _fill_gaps(
    lo: float,
    hi: float,
    covered: list[tuple[float, float]],
    bucket: str,
    src: SpanNode,
    out: list[CriticalSegment],
) -> None:
    """Emit ``bucket`` segments for the parts of [lo, hi] not covered."""
    cur = lo
    for s, e in sorted(covered):
        if s > cur + _EPS:
            _seg(bucket, src, cur, s, out)
        if e > cur:
            cur = e
    if hi > cur + _EPS:
        _seg(bucket, src, cur, hi, out)


def phase_segments(p: SpanNode, out: list[CriticalSegment]) -> None:
    """Append one profiler phase span's bucket-labelled segments to ``out``.

    The stamps (``q`` / ``svc`` / ``seek``) position the service portion
    at the *end* of the wait, which is where the service center ran it;
    a ``fetch`` phase expands into the critical chain of its fan-out.
    """
    attrs = p.attrs
    name = attrs.get("p", "other")
    s, e = p.start, p.end
    if e is None:  # unfinished phase: nothing bounded the response
        return
    dur = e - s
    if name in ("cpu", "nic", "bus"):
        q = min(max(attrs.get("q", 0.0), 0.0), dur)
        _seg(f"{name}.queue", p, s, s + q, out)
        _seg(f"{name}.service", p, s + q, e, out)
    elif name == "disk":
        svc = min(attrs.get("svc", dur), dur)
        seek = min(max(attrs.get("seek", 0.0), 0.0), svc)
        _seg("disk.queue", p, s, e - svc, out)
        _seg("disk.seek", p, e - svc, e - svc + seek, out)
        _seg("disk.transfer", p, e - svc + seek, e, out)
    elif name in ("router", "wire"):
        _seg(name, p, s, e, out)
    elif name == "master_wait":
        _seg("master.wait", p, s, e, out)
    elif name == "coalesce_wait":
        _seg("coalesce.wait", p, s, e, out)
    elif name == "fault_detect":
        _seg("fault.detect", p, s, e, out)
    elif name == "retry_wait":
        _seg("retry.backoff", p, s, e, out)
    elif name == "fetch":
        _fetch_segments(p, out)
    else:
        _seg("other", p, s, e, out)


def _fetch_segments(p: SpanNode, out: list[CriticalSegment]) -> None:
    """Critical chain through a parallel fan-out wait.

    The backward walk's chosen spans are pairwise disjoint by
    construction (each new frontier is the previous choice's start);
    uncovered time becomes wait segments labelled by what the fan-out
    contained (coalesce / peer / disk queue).
    """
    parent = p.parent
    p_end = p.end
    if p_end is None:  # unfinished fetch: no bounded wait to explain
        return
    candidates = [
        c for c in (parent.children if parent is not None else [])
        if _inside((p,), c) and (c.dur or 0.0) > 0.0
    ]
    frontier = p_end
    chosen: list[SpanNode] = []
    used: set[int] = set()
    while True:
        best: SpanNode | None = None
        best_key: tuple[float, float, int] | None = None
        for c in candidates:
            c_end, c_dur = c.end, c.dur
            if c_end is None or c_dur is None:
                continue  # filtered above; narrows for the comparisons
            if c.span_id in used or c_end > frontier + _EPS:
                continue
            key = (c_end, c_dur, c.span_id)
            if best_key is None or key > best_key:
                best, best_key = c, key
        if best is None:
            break
        used.add(best.span_id)
        chosen.append(best)
        frontier = best.start
        if frontier <= p.start + _EPS:
            break
    for c in chosen:
        if c.name == PHASE_SPAN:
            phase_segments(c, out)
        else:
            _span_segments(c, out)
    attrs = p.attrs
    if attrs.get("j"):
        bucket = "coalesce.wait"
    elif attrs.get("pe"):
        bucket = "peer.wait"
    else:
        bucket = "disk.queue"
    _fill_gaps(p.start, p_end,
               [(c.start, c.end) for c in chosen if c.end is not None],
               bucket, p, out)


def _span_segments(span: SpanNode, out: list[CriticalSegment]) -> None:
    """Serial decomposition of a span into leaf segments.

    Phase spans plus sub-spans not contained in any phase interval tile
    the span; anything uncovered is an ``other`` gap.
    """
    children = [c for c in span.children if c.end is not None]
    ph_children = [c for c in children if c.name == PHASE_SPAN]
    segments = [c for c in children if not _inside(ph_children, c)]
    for child in segments:
        if child.name == PHASE_SPAN:
            phase_segments(child, out)
        else:
            _span_segments(child, out)
    span_end = span.end
    if span_end is not None:
        _fill_gaps(span.start, span_end,
                   [(c.start, c.end) for c in segments if c.end is not None],
                   "other", span, out)


def critical_path(root: SpanNode) -> list[CriticalSegment]:
    """The ordered critical path of one finished request root.

    Segments are non-overlapping, sorted by start time, and tile the
    root span exactly: their durations sum to the root duration up to
    float tolerance.
    """
    segs: list[CriticalSegment] = []
    _span_segments(root, segs)
    segs.sort(key=lambda s: (s.start, s.end))
    return segs

