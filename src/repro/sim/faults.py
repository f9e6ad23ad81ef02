"""Deterministic fault injection: plans, the injector, failure semantics.

The paper evaluates a perfect cluster; its protocol nevertheless has an
implicit failure story ("fall back to the home node's disk") that only
matters when something breaks.  This module makes breakage a first-class,
*deterministic* simulation input:

* :class:`FaultPlan` — an immutable, seeded schedule of fault events
  (node crashes/restarts, link drops, disk stalls),
  serializable to JSON so a chaotic run can be replayed exactly.
* :class:`FaultInjector` — installs a plan into a running simulation,
  flips cluster state at the scheduled instants, and answers the
  liveness queries (:meth:`~FaultInjector.is_down`,
  :meth:`~FaultInjector.link_ok`) the protocol layers consult.
* :data:`NULL_FAULTS` — the disabled injector every component defaults
  to.  Its queries are constants and it schedules nothing, so a run
  without faults creates *zero* extra kernel events and reproduces the
  golden traces byte-for-byte.
* :class:`RequestAborted` — the explicit failure a request raises when
  its data is unreachable after bounded retries.  Failure is fail-stop
  and *loud*: requests terminate with an error class, they never hang.

The fault model (see DESIGN.md S14): a crash is fail-stop — the node's
memory (and every master copy in it) is lost and its disk is unreachable
until restart; a restarted node comes back cold.  Detection is modeled
as a fixed timeout (:class:`~repro.params.FaultParams.detect_timeout_ms`)
rather than a live protocol exchange, which keeps the zero-fault event
stream untouched.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field
from collections.abc import Callable
from typing import TYPE_CHECKING

from .rng import stream
from .stats import CounterSet

if TYPE_CHECKING:
    from ..cluster.cluster import Cluster
    from ..obs import Observability
    from ..params import SimParams
    from .engine import Simulator

__all__ = [
    "FAULT_KINDS",
    "FaultEvent",
    "FaultPlan",
    "FaultInjector",
    "NullFaultInjector",
    "NULL_FAULTS",
    "RequestAborted",
]

#: Recognized fault-event kinds.
FAULT_KINDS = (
    "crash",        # node loses memory; disk unreachable until restart
    "restart",      # node rejoins, cold
    "link_down",    # the (node, peer) link drops messages
    "link_up",      # the link recovers
    "disk_stall",   # node's disk head freezes for extra_ms
)

#: Mean crash downtime, link outage and disk stall of a random plan, as
#: fractions of its horizon.
MEAN_DOWNTIME_FRAC = 0.15
LINK_DOWN_FRAC = 0.05
STALL_FRAC = 0.05


class RequestAborted(RuntimeError):
    """A request's data was unreachable after bounded retries.

    Raised inside protocol coroutines; the serving layer catches it and
    reports the request's service class as ``"failed"`` — the explicit
    "degraded, never hung" contract of the fault model.
    """


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled fault (times in simulated ms)."""

    kind: str
    at_ms: float
    #: Affected node (crash/restart/disk_stall) or link endpoint A.
    node: int | None = None
    #: Link endpoint B (link_down / link_up only).
    peer: int | None = None
    #: Duration of a disk_stall, in ms.
    extra_ms: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind: {self.kind!r}")
        if not 0 <= self.at_ms < math.inf:
            raise ValueError(f"fault time must be >= 0 and finite, got {self.at_ms}")
        if not math.isfinite(self.extra_ms):
            raise ValueError(f"fault duration must be finite, got {self.extra_ms}")
        if self.kind in ("crash", "restart", "disk_stall") and self.node is None:
            raise ValueError(f"{self.kind} requires a node")
        if self.kind in ("link_down", "link_up") and (
            self.node is None or self.peer is None
        ):
            raise ValueError(f"{self.kind} requires both link endpoints")
        for end in (self.node, self.peer):
            if end is not None and end < 0:
                raise ValueError(f"{self.kind} names node {end}; node ids are >= 0")
        if self.kind == "disk_stall" and self.extra_ms <= 0:
            raise ValueError("disk_stall requires a positive duration")


@dataclass(frozen=True)
class FaultPlan:
    """An immutable, time-sorted schedule of :class:`FaultEvent`\\ s.

    Hashable (so it can live in a frozen ``ExperimentConfig``) and
    JSON-round-trippable (so a chaos run can be archived and replayed).
    """

    events: tuple[FaultEvent, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        ordered = tuple(sorted(self.events, key=lambda e: e.at_ms))
        object.__setattr__(self, "events", ordered)

    def __len__(self) -> int:
        return len(self.events)

    def __bool__(self) -> bool:
        return bool(self.events)

    @property
    def horizon_ms(self) -> float:
        """Time of the last scheduled event (0 for an empty plan)."""
        return self.events[-1].at_ms if self.events else 0.0

    def check_nodes(self, num_nodes: int) -> None:
        """Raise ``ValueError`` unless every node and peer the plan names
        exists in a cluster of ``num_nodes`` nodes."""
        for ev in self.events:
            for end in (ev.node, ev.peer):
                if end is not None and end >= num_nodes:
                    raise ValueError(
                        f"{ev.kind} at {ev.at_ms:g} ms names node {end}, "
                        f"but the cluster has {num_nodes} nodes")

    # -- construction -------------------------------------------------------
    @classmethod
    def none(cls) -> "FaultPlan":
        """The empty plan (used by tests to prove zero-fault neutrality)."""
        return cls(())

    @classmethod
    def random(
        cls,
        seed: int,
        horizon_ms: float,
        num_nodes: int,
        crashes_per_node: float = 1.0,
        link_drops: int = 0,
        disk_stalls: int = 0,
    ) -> "FaultPlan":
        """A seeded random schedule over ``[0, horizon_ms)``.

        ``crashes_per_node`` is the *expected* crash count per node over
        the horizon (each node draws a Poisson count); downtimes are
        exponential with mean ``MEAN_DOWNTIME_FRAC * horizon_ms``.  The
        generator guarantees at least one node is up at every instant —
        a fully dark cluster has no behavior worth simulating — and that
        a node never crashes while already down.
        """
        if horizon_ms <= 0:
            raise ValueError("horizon_ms must be positive")
        if num_nodes < 1:
            raise ValueError("need at least one node")
        if not 0 <= crashes_per_node < math.inf:
            raise ValueError(
                f"crashes_per_node must be >= 0 and finite, got {crashes_per_node}")
        rng = stream(seed, "faults", "plan")
        events: list[FaultEvent] = []

        # Per-node non-overlapping crash windows.
        candidates: list[tuple[float, float, int]] = []
        for node in range(num_nodes):
            count = int(rng.poisson(crashes_per_node))
            starts = sorted(float(t) for t in rng.uniform(0.0, horizon_ms, count))
            prev_end = 0.0
            for start in starts:
                if start < prev_end:
                    continue
                down = float(rng.exponential(MEAN_DOWNTIME_FRAC * horizon_ms))
                end = start + max(down, 1e-6)
                candidates.append((start, end, node))
                prev_end = end
        # Accept in crash-time order, refusing any crash that would leave
        # the cluster with zero live nodes at that instant.
        accepted: list[tuple[float, float, int]] = []
        for start, end, node in sorted(candidates):
            concurrent = sum(1 for s, e, _ in accepted if s <= start < e)
            if concurrent + 1 >= num_nodes:
                continue
            accepted.append((start, end, node))
            events.append(FaultEvent("crash", start, node=node))
            events.append(FaultEvent("restart", end, node=node))

        for _ in range(link_drops):
            if num_nodes < 2:
                break
            a, b = (int(i) for i in rng.choice(num_nodes, size=2, replace=False))
            start = float(rng.uniform(0.0, horizon_ms))
            down = max(float(rng.exponential(LINK_DOWN_FRAC * horizon_ms)), 1e-6)
            events.append(FaultEvent("link_down", start, node=a, peer=b))
            events.append(FaultEvent("link_up", start + down, node=a, peer=b))

        for _ in range(disk_stalls):
            node = int(rng.integers(num_nodes))
            start = float(rng.uniform(0.0, horizon_ms))
            dur = max(float(rng.exponential(STALL_FRAC * horizon_ms)), 1e-6)
            events.append(FaultEvent("disk_stall", start, node=node, extra_ms=dur))
        return cls(tuple(events))

    # -- serialization ------------------------------------------------------
    def to_json(self) -> str:
        """Serialize to a stable JSON document."""
        return json.dumps(
            {"events": [asdict(ev) for ev in self.events]},
            indent=2, sort_keys=True,
        ) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        """Inverse of :meth:`to_json`."""
        doc = json.loads(text)
        return cls(tuple(FaultEvent(**ev) for ev in doc["events"]))

    def dump(self, path: str) -> None:
        """Write the plan as JSON to ``path``."""
        with open(path, "w", encoding="utf-8") as fp:
            fp.write(self.to_json())

    @classmethod
    def load(cls, path: str) -> "FaultPlan":
        """Read a plan previously written with :meth:`dump`."""
        with open(path, "r", encoding="utf-8") as fp:
            return cls.from_json(fp.read())


class FaultInjector:
    """Applies a :class:`FaultPlan` to a live cluster simulation.

    Protocol layers hold a reference and consult the liveness queries on
    their fault paths; repair logic (directory purge, cache clear)
    registers via the listener lists and runs *synchronously inside* the
    fault event, so no request ever observes a half-crashed node.
    """

    #: Distinguishes a real injector from :data:`NULL_FAULTS` with one
    #: attribute read — protocol fault paths are guarded by this flag.
    active = True

    __slots__ = (
        "plan", "params", "counters", "tracer",
        "crash_listeners", "restart_listeners", "fault_listeners",
        "sim", "cluster", "_backoff_rng", "_down", "_lost_links",
    )

    def __init__(self, plan: FaultPlan, params: SimParams, seed: int = 0,
                 obs: Observability | None = None) -> None:
        from ..obs.tracing import NULL_TRACER

        self.plan = plan
        self.params = params
        self.counters = CounterSet()
        self.tracer = obs.tracer if obs is not None else NULL_TRACER
        if obs is not None:
            self.counters.bind(obs.registry, "faults")
        #: Called as ``fn(node_id)`` synchronously when a node crashes —
        #: the middleware's directory-repair hook.
        self.crash_listeners: list[Callable[[int], None]] = []
        #: Called as ``fn(node_id)`` when a node restarts (cold).
        self.restart_listeners: list[Callable[[int], None]] = []
        #: Called as ``fn(event)`` after *every* applied fault — the
        #: chaos property tests check invariants at each fault boundary.
        self.fault_listeners: list[Callable[[FaultEvent], None]] = []
        self.sim = None
        self.cluster = None
        self._backoff_rng = stream(seed, "faults", "backoff")
        self._down: set = set()
        self._lost_links: set = set()

    def install(self, sim: Simulator, cluster: Cluster) -> None:
        """Schedule the plan's events against ``cluster``.

        Raises ``ValueError`` if the plan names a node ``cluster`` lacks.
        """
        self.plan.check_nodes(len(cluster.nodes))
        self.sim = sim
        self.cluster = cluster
        for ev in self.plan.events:
            sim.call_at(ev.at_ms, self._apply, ev)

    # -- liveness queries ---------------------------------------------------
    def is_down(self, node_id: int) -> bool:
        """True while ``node_id`` is crashed."""
        return node_id in self._down

    def link_ok(self, a: int | None, b: int | None) -> bool:
        """True unless the (a, b) link is currently dropped."""
        if a is None or b is None or a == b:
            return True
        return frozenset((a, b)) not in self._lost_links

    def alive_node_ids(self) -> list[int]:
        """Ids of currently-up nodes, ascending."""
        return [n.node_id for n in self.cluster.nodes if n.up]

    def backoff_ms(self, attempt: int) -> float:
        """Capped exponential backoff with deterministic jitter.

        ``base * 2^attempt``, multiplied by a jitter factor in
        ``[1, 1 + jitter)`` drawn from a dedicated RNG stream, hard-capped
        at ``backoff_cap_ms`` — retries can spread out but can never
        starve a request (the `_retry_after` fix this PR ships).
        """
        f = self.params.faults
        base = f.backoff_base_ms * (2.0 ** attempt)
        jittered = base * (1.0 + f.backoff_jitter * float(self._backoff_rng.random()))
        return min(jittered, f.backoff_cap_ms)

    # -- event application --------------------------------------------------
    def _apply(self, ev: FaultEvent) -> None:
        kind = ev.kind
        if kind == "crash":
            if ev.node in self._down:
                return
            self._down.add(ev.node)
            self.cluster.nodes[ev.node].crash()
            self.counters.incr("node_crashes")
            self.tracer.point("fault", node=ev.node, kind="crash")
            for fn in self.crash_listeners:
                fn(ev.node)
        elif kind == "restart":
            if ev.node not in self._down:
                return
            self._down.discard(ev.node)
            self.cluster.nodes[ev.node].restore()
            self.counters.incr("node_restarts")
            self.tracer.point("fault", node=ev.node, kind="restart")
            for fn in self.restart_listeners:
                fn(ev.node)
        elif kind == "link_down":
            self._lost_links.add(frozenset((ev.node, ev.peer)))
            self.counters.incr("link_drops")
            self.tracer.point("fault", node=ev.node, kind="link_down", peer=ev.peer)
        elif kind == "link_up":
            self._lost_links.discard(frozenset((ev.node, ev.peer)))
            self.counters.incr("link_recoveries")
        elif kind == "disk_stall":
            self.cluster.nodes[ev.node].disk.stall(ev.extra_ms)
            self.counters.incr("disk_stalls")
            self.tracer.point("fault", node=ev.node, kind="disk_stall",
                              ms=ev.extra_ms)
        for fn in self.fault_listeners:
            fn(ev)


class NullFaultInjector:
    """Disabled injector: constant answers, zero scheduled events.

    Every component defaults to :data:`NULL_FAULTS`, so the fault
    machinery costs one attribute read per guarded path and a fault-free
    run's kernel event stream is byte-identical to pre-fault builds
    (the golden-trace tests pin this).
    """

    active = False

    __slots__ = ()

    def is_down(self, node_id: int) -> bool:
        return False

    def link_ok(self, a: int, b: int) -> bool:
        return True

    def backoff_ms(self, attempt: int) -> float:
        return 0.0


#: Process-wide disabled injector (components default to this).
NULL_FAULTS = NullFaultInjector()
