"""Span-style request tracing with deterministic JSONL export.

Every request the cluster serves becomes a *trace*: a root ``request``
span plus child spans for each hop the protocol takes (cache probe, peer
fetch, disk run, writeback, forward).  Timestamps are simulated
milliseconds, so a trace answers "why was this request classified
``disk``?" exactly — and, because the kernel is deterministic, two runs
with the same seed produce byte-identical trace files, which is what the
golden-trace regression harness snapshots.

Design constraints:

* **No calls when off** — a per-request site reads ``tracer.enabled``
  once and, when it is False, skips ``start``, ``point`` and ``finish``
  together with the arguments they take; its span is :data:`NULL_SPAN`.
  Rare paths (crash repair, restart, retries, aborted requests) still
  call the :data:`NULL_TRACER` singleton, whose every call is a no-op
  returning :data:`NULL_SPAN`.
* **Deterministic output** — span/trace ids are a simple monotone
  sequence, records are emitted in finish order (which the kernel makes
  deterministic), and JSON is serialized with sorted keys.
* **Scalars only once a span finishes** — a finished span is appended
  to one flat list of scalars, not kept as a dict: a profiled run
  finishes ~19 spans per request, and retained containers cost both
  memory and cyclic-GC passes over all of them.  :attr:`Tracer.records`
  decodes that log into dicts on first read; exports stream one line at
  a time without building the record list.
"""

from __future__ import annotations

import functools
import hashlib
import json
from collections.abc import Callable, Iterable, Iterator
from itertools import islice
from typing import Any

__all__ = ["Span", "Tracer", "NullTracer", "NULL_TRACER", "NULL_SPAN"]

#: ``json.dumps(rec, sort_keys=True, default=float)``, built once.
_ENCODER = json.JSONEncoder(sort_keys=True, default=float)


class Span:
    """One timed hop of a request (or a zero-duration point event)."""

    __slots__ = (
        "_tracer", "trace_id", "span_id", "parent_id",
        "name", "node", "start", "end", "attrs",
    )

    def __init__(
        self,
        tracer: "Tracer",
        trace_id: int,
        span_id: int,
        parent_id: int | None,
        name: str,
        node: int | None,
        start: float,
        attrs: dict[str, Any],
    ):
        self._tracer = tracer
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.node = node
        self.start = start
        self.end: float | None = None
        self.attrs = attrs

    @property
    def finished(self) -> bool:
        """True once :meth:`finish` ran (the record has been emitted)."""
        return self.end is not None

    def finish(self, **attrs: Any) -> None:
        """Close the span at the current simulated time and emit it."""
        if self.end is not None:
            raise RuntimeError(f"span {self.span_id} ({self.name}) finished twice")
        self.end = self._tracer._clock()
        if attrs:
            self.attrs.update(attrs)
        self._tracer._emit(self)

    def to_record(self) -> dict[str, Any]:
        """The span as a flat, JSON-ready dict."""
        rec: dict[str, Any] = {
            "trace": self.trace_id,
            "span": self.span_id,
            "parent": self.parent_id,
            "name": self.name,
            "node": self.node,
            "start": self.start,
            "end": self.end,
        }
        if self.attrs:
            rec["attrs"] = self.attrs
        return rec


class Tracer:
    """Collects spans; exports deterministic JSONL.

    ``clock`` supplies the current simulated time; bind it to a
    :class:`~repro.sim.engine.Simulator` with :meth:`attach`.
    """

    enabled = True

    def __init__(self, clock: Callable[[], float] | None = None):
        self._clock = clock or (lambda: 0.0)
        # Finished spans not yet decoded: per span its seven record
        # fields, the attr count, then each attr key and value.  _emit,
        # point and the profiler's phase spans (repro.obs.profile)
        # write it; _decode and finished_count read it.
        self._log: list[Any] = []
        # Records decoded by earlier ``records`` reads, in emission order.
        self._records: list[dict[str, Any]] = []
        self._next_id = 0
        # Spans started but not yet finished, by span id (insertion order).
        # Exports append these as ``"unfinished": true`` records so a dump
        # taken mid-run (or after a crashed process) loses nothing.
        self._open: dict[int, Span] = {}

    def attach(self, sim) -> None:
        """Read timestamps from ``sim`` from now on."""
        # A partial calls getattr in C: no lambda frame per timestamp.
        self._clock = functools.partial(getattr, sim, "now")

    def _emit(self, span: Span) -> None:
        self._open.pop(span.span_id, None)
        attrs = span.attrs
        log = self._log
        log += (span.trace_id, span.span_id, span.parent_id, span.name,
                span.node, span.start, span.end, len(attrs))
        for item in attrs.items():
            log += item

    # -- span creation ------------------------------------------------------
    def start(
        self,
        name: str,
        parent: Span | None = None,
        node: int | None = None,
        **attrs: Any,
    ) -> Span:
        """Open a span; a None/null parent starts a new trace."""
        self._next_id += 1
        span_id = self._next_id
        if parent is None or parent is NULL_SPAN:
            trace_id, parent_id = span_id, None
        else:
            trace_id, parent_id = parent.trace_id, parent.span_id
        span = Span(
            self, trace_id, span_id, parent_id, name, node, self._clock(), attrs
        )
        self._open[span_id] = span
        return span

    def point(
        self,
        name: str,
        parent: Span | None = None,
        node: int | None = None,
        **attrs: Any,
    ) -> Span:
        """A zero-duration event (eviction, coalesce); emitted at once.

        Returns the finished span; its record goes straight into the
        log, as :meth:`_emit` writes it, without ever being open."""
        self._next_id = span_id = self._next_id + 1
        if parent is None or parent is NULL_SPAN:
            trace_id, parent_id = span_id, None
        else:
            trace_id, parent_id = parent.trace_id, parent.span_id
        now = self._clock()
        span = Span(self, trace_id, span_id, parent_id, name, node, now, attrs)
        span.end = now
        log = self._log
        log += (trace_id, span_id, parent_id, name, node, now, now, len(attrs))
        for item in attrs.items():
            log += item
        return span

    # -- export -------------------------------------------------------------
    @property
    def records(self) -> list[dict[str, Any]]:
        """Finished span records in emission order.

        Always the same list: each read first appends the spans finished
        since the last one.
        """
        if self._log:
            # Decode a tuple copy and free the list first: the collections
            # the new dicts trigger would walk every list entry each time,
            # but stop walking a tuple of scalars after their first pass.
            entries = tuple(self._log)
            self._log.clear()
            self._records.extend(_decode(entries))
        return self._records

    def finished_count(self) -> int:
        """``len(records)``, counted without decoding the log: each span
        takes eight entries plus two per attr."""
        log = self._log
        count, i, size = len(self._records), 0, len(log)
        while i < size:
            count += 1
            i += 8 + 2 * log[i + 7]
        return count

    @property
    def open_spans(self) -> list[Span]:
        """Spans started but not yet finished, in start order."""
        return list(self._open.values())

    def clear(self) -> None:
        """Drop all recorded and open spans (id sequence keeps counting)."""
        self._records.clear()
        self._log.clear()
        self._open.clear()

    def _lines(self) -> Iterator[str]:
        """The JSONL export, one line at a time (see :meth:`to_jsonl`)."""
        encode = _ENCODER.encode
        for rec in self._records:
            yield encode(rec) + "\n"
        for rec in _decode(self._log):
            yield encode(rec) + "\n"
        for span in self._open.values():
            rec = span.to_record()
            rec["unfinished"] = True
            yield encode(rec) + "\n"

    def to_jsonl(self) -> str:
        """One sorted-keys JSON object per line, emission order.

        Spans still open when the export happens (a dump taken mid-run,
        or a span orphaned by an exception) are appended after the
        finished records, in start order, flagged ``"unfinished": true``
        with a null ``end`` — they are never silently dropped.
        """
        return "".join(self._lines())

    def dump_jsonl(self, path) -> str:
        """Write the JSONL trace to ``path``, one line at a time, and
        return the sha256 of the bytes written (what :meth:`digest`
        returns)."""
        sha = hashlib.sha256()
        with open(path, "wb") as fp:
            for line in self._lines():
                data = line.encode("utf-8")
                fp.write(data)
                sha.update(data)
        return sha.hexdigest()

    def digest(self) -> str:
        """SHA-256 of the JSONL bytes — the golden-trace fingerprint."""
        sha = hashlib.sha256()
        for line in self._lines():
            sha.update(line.encode("utf-8"))
        return sha.hexdigest()


def _decode(log: Iterable[Any]) -> Iterator[dict[str, Any]]:
    """The record dicts of a :class:`Tracer` log, in emission order."""
    it = iter(log)
    # zip over one iterator eight times: the eight fixed entries of a span.
    for trace, span, parent, name, node, start, end, n in zip(*[it] * 8):
        rec: dict[str, Any] = {
            "trace": trace,
            "span": span,
            "parent": parent,
            "name": name,
            "node": node,
            "start": start,
            "end": end,
        }
        if n:
            pairs = islice(it, 2 * n)
            rec["attrs"] = dict(zip(pairs, pairs))
        yield rec


class _NullSpan:
    """Shared inert span: every mutation is a no-op."""

    __slots__ = ()
    trace_id = 0
    span_id = 0
    parent_id = None
    name = "null"
    node = None
    start = 0.0
    end = 0.0
    attrs: dict[str, Any] = {}
    finished = True

    def finish(self, **attrs: Any) -> None:
        pass

    def to_record(self) -> dict[str, Any]:
        return {}


#: The span NullTracer hands out; safe to finish any number of times.
NULL_SPAN = _NullSpan()


class NullTracer:
    """Disabled tracer: all operations are no-ops returning NULL_SPAN."""

    enabled = False

    def attach(self, sim) -> None:
        pass

    def start(self, name, parent=None, node=None, **attrs) -> _NullSpan:
        return NULL_SPAN

    def point(self, name, parent=None, node=None, **attrs) -> _NullSpan:
        return NULL_SPAN

    @property
    def records(self) -> list[dict[str, Any]]:
        return []

    def clear(self) -> None:
        pass

    def to_jsonl(self) -> str:
        return ""

    def dump_jsonl(self, path) -> str:
        return self.digest()

    def digest(self) -> str:
        return hashlib.sha256(b"").hexdigest()


#: Process-wide disabled tracer (components default to this).
NULL_TRACER = NullTracer()
