"""Offline trace analysis: span trees and per-request phase attribution.

Input is the tracer's JSONL (or its in-memory record list) from a
*profiled* run (``Observability(profile=True)``).  This module wires the
records into span trees; :mod:`repro.obs.critical` walks them.
``attribute()`` sums each request's critical path by phase, so its
per-request phase tables sum to the span-tree root durations (and, over
measured client roots, to the run's measured mean response time) up to
float tolerance.
"""

from __future__ import annotations

import json
import logging
from collections import defaultdict
from dataclasses import dataclass, field
from collections.abc import Iterable
from typing import Any

from .schema import as_report

__all__ = [
    "PHASE_ORDER",
    "SpanNode",
    "load_jsonl",
    "build_trees",
    "request_roots",
    "decompose_request",
    "RequestProfile",
    "Attribution",
    "attribute",
    "binding_resource",
    "attribution_to_dict",
]

logger = logging.getLogger(__name__)

#: Canonical display order of attribution phases.
PHASE_ORDER: tuple[str, ...] = (
    "router",
    "cpu.queue", "cpu.service",
    "nic.queue", "nic.service",
    "bus.queue", "bus.service",
    "wire",
    "disk.queue", "disk.seek", "disk.transfer",
    "peer.wait", "master.wait", "coalesce.wait",
    "fault.detect", "retry.backoff",
    "other",
)

#: Span names treated as per-request roots (profiled runs produce
#: ``client`` roots; plain traced runs produce ``request`` roots).
REQUEST_ROOT_NAMES = ("client", "request")


class SpanNode:
    """One span record wired into its trace tree."""

    __slots__ = ("rec", "parent", "children")

    def __init__(self, rec: dict[str, Any]):
        self.rec = rec
        self.parent: "SpanNode" | None = None
        self.children: list["SpanNode"] = []

    @property
    def span_id(self) -> int:
        return self.rec["span"]

    @property
    def trace_id(self) -> int:
        return self.rec["trace"]

    @property
    def parent_id(self) -> int | None:
        return self.rec.get("parent")

    @property
    def name(self) -> str:
        return self.rec["name"]

    @property
    def node(self) -> int | None:
        return self.rec.get("node")

    @property
    def start(self) -> float:
        return self.rec["start"]

    @property
    def end(self) -> float | None:
        return self.rec.get("end")

    @property
    def dur(self) -> float | None:
        """Duration in ms, or None for unfinished spans."""
        end = self.end
        return None if end is None else end - self.start

    @property
    def attrs(self) -> dict[str, Any]:
        return self.rec.get("attrs", {})

    @property
    def unfinished(self) -> bool:
        return bool(self.rec.get("unfinished")) or self.end is None

    def walk(self):
        """Yield this node and every descendant, depth-first."""
        yield self
        for child in self.children:
            yield from child.walk()


#: The fields every span record carries, whatever the tracer mode.
_SPAN_FIELDS = frozenset(("span", "trace", "name", "start"))


def load_jsonl(path) -> list[dict[str, Any]]:
    """Read a tracer JSONL file into a list of span records.

    Raises ``ValueError`` naming the file and line of any row that is
    not an object carrying ``span``, ``trace``, ``name`` and ``start``.
    """
    records = []
    with open(path, "r", encoding="utf-8") as fp:
        for lineno, line in enumerate(fp, 1):
            line = line.strip()
            if not line:
                continue
            rec = json.loads(line)
            if not (isinstance(rec, dict) and _SPAN_FIELDS <= rec.keys()):
                raise ValueError(
                    f"{path}:{lineno}: not a span record (an object with "
                    f"span, trace, name and start): {line[:80]}")
            records.append(rec)
    return records


def build_trees(
    records: Iterable[dict[str, Any]],
) -> tuple[list[SpanNode], dict[int, SpanNode]]:
    """Wire span records into trees; returns (roots, index by span id).

    Children are ordered by (start, span id); records whose parent is
    missing from the trace become roots (robust to partial dumps).
    """
    index: dict[int, SpanNode] = {}
    for rec in records:
        node = SpanNode(rec)
        index[node.span_id] = node
    roots: list[SpanNode] = []
    for node in index.values():
        pid = node.parent_id
        parent = index.get(pid) if pid is not None else None
        if parent is None:
            roots.append(node)
        else:
            node.parent = parent
            parent.children.append(node)
    for node in index.values():
        node.children.sort(key=lambda c: (c.start, c.span_id))
    roots.sort(key=lambda c: (c.start, c.span_id))
    return roots, index


def request_roots(
    roots: Iterable[SpanNode], measured_only: bool = False
) -> list[SpanNode]:
    """Finished per-request root spans (``client`` or ``request``).

    ``measured_only`` keeps roots whose ``measured`` attr is true (or
    absent — plain traced runs don't mark warm-up).
    """
    out = []
    for root in roots:
        if root.name not in REQUEST_ROOT_NAMES or root.dur is None:
            continue
        if measured_only and not root.attrs.get("measured", True):
            continue
        out.append(root)
    return out


# ---------------------------------------------------------------------------
# attribution
# ---------------------------------------------------------------------------
def ordered_sum(values: Iterable[float]) -> float:
    """Plain left-to-right float additions: from Python 3.12 on, builtin
    ``sum()`` compensates rounding over floats, and attribution numbers
    must not depend on the interpreter."""
    total = 0.0
    for v in values:
        total += v
    return total


@dataclass
class RequestProfile:
    """One request's phase decomposition."""

    trace_id: int
    root_name: str
    node: int | None
    cls: str | None
    start: float
    dur: float
    phases: dict[str, float] = field(default_factory=dict)

    @property
    def residual(self) -> float:
        """Unattributed time (should be float noise only)."""
        return self.dur - ordered_sum(self.phases.values())


def decompose_request(root: SpanNode) -> RequestProfile:
    """Phase decomposition of one finished request root span: the
    per-phase sum of its critical path."""
    from .critical import critical_path

    phases: dict[str, float] = defaultdict(float)
    for seg in critical_path(root):
        phases[seg.phase] += seg.dur
    return RequestProfile(
        trace_id=root.trace_id,
        root_name=root.name,
        node=root.node,
        cls=root.attrs.get("cls"),
        start=root.start,
        dur=root.dur or 0.0,
        phases=dict(phases),
    )


@dataclass
class Attribution:
    """Aggregate phase attribution over a set of requests."""

    requests: list[RequestProfile]

    @property
    def count(self) -> int:
        return len(self.requests)

    @property
    def mean_response_ms(self) -> float:
        """Mean span-tree root duration = mean response time."""
        if not self.requests:
            return 0.0
        return ordered_sum(r.dur for r in self.requests) / len(self.requests)

    def phase_means(self) -> dict[str, float]:
        """Mean per-request contribution of each phase (ms)."""
        if not self.requests:
            return {}
        sums: dict[str, float] = defaultdict(float)
        for r in self.requests:
            for phase, ms in r.phases.items():
                sums[phase] += ms
        n = len(self.requests)
        return {phase: total / n for phase, total in sums.items()}

    @property
    def mean_residual_ms(self) -> float:
        """Mean unattributed time per request (float noise)."""
        if not self.requests:
            return 0.0
        return (ordered_sum(r.residual for r in self.requests)
                / len(self.requests))

    def by_class(self) -> dict[str, "Attribution"]:
        """Per-service-class sub-attributions ("local"/"remote"/...)."""
        groups: dict[str, list[RequestProfile]] = defaultdict(list)
        for r in self.requests:
            groups[r.cls or "?"].append(r)
        return {cls: Attribution(reqs) for cls, reqs in sorted(groups.items())}


def attribute(
    records: Iterable[dict[str, Any]], measured_only: bool = True
) -> Attribution:
    """Full-trace attribution: one :class:`RequestProfile` per request.

    ``measured_only`` drops warm-up requests (profiled client roots are
    marked; plain ``request`` roots are all kept).
    """
    roots, _index = build_trees(records)
    reqs = request_roots(roots, measured_only=measured_only)
    logger.debug("attributing %d request roots (%d spans total)",
                 len(reqs), len(roots))
    return Attribution([decompose_request(root) for root in reqs])


# ---------------------------------------------------------------------------
# binding resource (from a metrics snapshot)
# ---------------------------------------------------------------------------
#: Resource classes whose per-node utilization identifies the bottleneck.
RESOURCE_CLASSES = ("cpu", "nic", "bus", "disk")


def binding_resource(metrics: dict[str, Any]) -> dict[str, Any] | None:
    """Name the binding resource from a metrics snapshot.

    Scans ``collected`` entries shaped ``node<N>.<resource>`` for their
    ``utilization`` and returns the resource class with the highest
    cluster-mean utilization::

        {"resource": "disk", "mean": 0.74, "max": 0.83,
         "max_node": "node3",
         "per_resource": {"cpu": {"mean": ..., "max": ..., ...}, ...}}

    Returns None when the snapshot has no per-node utilizations.
    """
    per: dict[str, list[tuple[str, float]]] = defaultdict(list)
    for key, vals in metrics.get("collected", {}).items():
        if "." not in key or not isinstance(vals, dict):
            continue
        node_part, resource = key.split(".", 1)
        if resource in RESOURCE_CLASSES and "utilization" in vals:
            per[resource].append((node_part, float(vals["utilization"])))
    if not per:
        return None
    per_resource: dict[str, dict[str, Any]] = {}
    for resource, samples in per.items():
        max_node, max_util = max(samples, key=lambda s: (s[1], s[0]))
        per_resource[resource] = {
            "mean": ordered_sum(u for _n, u in samples) / len(samples),
            "max": max_util,
            "max_node": max_node,
        }
    winner = max(per_resource, key=lambda r: per_resource[r]["mean"])
    info = per_resource[winner]
    return {
        "resource": winner,
        "mean": info["mean"],
        "max": info["max"],
        "max_node": info["max_node"],
        "per_resource": per_resource,
    }


def attribution_to_dict(
    attr: Attribution, metrics: dict[str, Any] | None = None
) -> dict[str, Any]:
    """Machine-readable attribution/bottleneck summary (``analyze --json``).

    The same quantities :func:`repro.obs.reports.render_profile_report`
    prints, as one JSON-ready dict that ``analyze diff`` reads without
    scraping tables; the committed ATTR baseline is this dict, and its
    check compares the file byte for byte.
    """
    out: dict[str, Any] = {
        "requests": attr.count,
        "mean_response_ms": attr.mean_response_ms,
        "mean_residual_ms": attr.mean_residual_ms,
        "phase_means_ms": dict(sorted(attr.phase_means().items())),
        "by_class": {
            cls: {
                "requests": sub.count,
                "mean_response_ms": sub.mean_response_ms,
                "phase_means_ms": dict(sorted(sub.phase_means().items())),
            }
            for cls, sub in attr.by_class().items()
        },
    }
    out["binding_resource"] = (
        binding_resource(metrics) if metrics is not None else None
    )
    return as_report("attribution", out)
