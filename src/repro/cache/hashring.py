"""Consistent-hash ring and the hash-partitioned master directory.

The paper assumes "a perfect global directory of master blocks"
maintained at zero cost — the scalability fiction that blocks every
>16-node scenario (ROADMAP item 2).  This module replaces it with the
standard decentralization: each block has a **home node** chosen by a
consistent-hash ring with virtual nodes (CoT-style load spreading), the
home answers location lookups for its partition, and answers are only
**boundedly stale** — a routing lookup at time *t* may reflect any state
that was true at some instant in ``[t - staleness_ms, t]``.

Design points:

* :func:`stable_hash` is a *seeded, process-stable* hash (BLAKE2b with
  the seed as key).  Python's builtin ``hash`` is salted per process
  (PYTHONHASHSEED) and would silently break cross-process determinism —
  simlint SL02 territory.
* :class:`HashRing` keeps ``vnodes`` points per node on a 64-bit ring;
  placement depends only on ``(node_id, vnode, seed)``, never on join
  order, so any process reconstructs the identical ring.
* :class:`PartitionedDirectory` subclasses
  :class:`~repro.cache.directory.GlobalDirectory`: the *authoritative*
  map stays one shared dict (the simulation is single-process), and
  partitioning is modeled as a **visibility and cost layer** over it —
  exactly how :class:`~repro.core.hints.HintDirectory` models hint
  inaccuracy.  ``route_lookup`` serves the boundedly stale view;
  ``lookup`` stays exact (consistency operations involve the nodes that
  own the truth first-hand).  Network hops for remote-home lookups are
  charged by the middleware, which knows the cluster (see
  ``CoopCacheLayer._directory_lookup_hops``).
* Staleness bookkeeping records, per block, the *previous* value at the
  first change inside a window; until that record expires every routing
  lookup serves it.  Served values are therefore always true somewhere
  in the window — the bound holds by construction — and expire in one
  step (no multi-version chains), matching a home node that batches
  update application every ``staleness_ms``.
* A fail-stop crash repairs the ring synchronously
  (:meth:`PartitionedDirectory.partition_crash`, called from the
  middleware's crash hook *before* the usual directory purge): the dead
  home's partition forgets its entries, the ring drops the node, and
  every stale record naming the dead node is invalidated — so routing
  can never chase a corpse, the same guarantee the oracle repair gives.
"""

from __future__ import annotations

import hashlib
from bisect import bisect_left, insort
from collections.abc import Callable, Iterable
from typing import Protocol

from .block import BlockId
from .directory import GlobalDirectory

__all__ = ["stable_hash", "HashRing", "PartitionedDirectory"]

_MASK64 = 0xFFFFFFFFFFFFFFFF


class _Clocked(Protocol):
    """Anything with a simulated-time attribute (duck-typed Simulator)."""

    now: float


def stable_hash(data: str, seed: int = 0) -> int:
    """Seeded 64-bit hash of ``data``, stable across processes and runs.

    BLAKE2b keyed by the seed: changing the seed permutes the ring
    wholesale, while any one seed gives the same placement everywhere
    (unlike builtin ``hash``, which is salted per process).
    """
    digest = hashlib.blake2b(
        data.encode("utf-8"),
        digest_size=8,
        key=(seed & _MASK64).to_bytes(8, "little"),
    ).digest()
    return int.from_bytes(digest, "big")


def _block_key(block: BlockId) -> str:
    """Ring key of one block (stable printable form)."""
    return f"b:{block.file_id}:{block.index}"


class HashRing:
    """Consistent-hash ring with virtual nodes.

    Each node owns ``vnodes`` points at ``stable_hash("n:<id>:<v>")``;
    a key belongs to the node owning the first point clockwise from the
    key's hash.  Adding or removing a node moves only the keys adjacent
    to its points (~``K/N`` of them), never reshuffles the rest — the
    property the join/leave tests pin.
    """

    __slots__ = ("vnodes", "seed", "_points", "_nodes")

    def __init__(
        self, node_ids: Iterable[int], vnodes: int = 32, seed: int = 0
    ) -> None:
        if vnodes < 1:
            raise ValueError("vnodes must be >= 1")
        self.vnodes = vnodes
        self.seed = seed
        #: Sorted ``(point, node_id)`` pairs; ties (astronomically rare
        #: 64-bit collisions) break to the lower node id via tuple order.
        self._points: list[tuple[int, int]] = []
        self._nodes: set[int] = set()
        for nid in node_ids:
            if nid in self._nodes:
                raise ValueError(f"duplicate node id {nid}")
            self.add_node(nid)
        if not self._nodes:
            raise ValueError("ring needs at least one node")

    def __len__(self) -> int:
        return len(self._nodes)

    def __contains__(self, node_id: int) -> bool:
        return node_id in self._nodes

    @property
    def nodes(self) -> list[int]:
        """Member node ids, ascending."""
        return sorted(self._nodes)

    def _node_points(self, node_id: int) -> list[tuple[int, int]]:
        return [
            (stable_hash(f"n:{node_id}:{v}", self.seed), node_id)
            for v in range(self.vnodes)
        ]

    def add_node(self, node_id: int) -> None:
        """Place ``node_id``'s virtual points on the ring (idempotent)."""
        if node_id in self._nodes:
            return
        self._nodes.add(node_id)
        for pt in self._node_points(node_id):
            insort(self._points, pt)

    def remove_node(self, node_id: int) -> None:
        """Drop ``node_id``'s points; its arcs fall to the successors."""
        if node_id not in self._nodes:
            return
        self._nodes.discard(node_id)
        self._points = [p for p in self._points if p[1] != node_id]

    def owner(self, key: str) -> int:
        """Node owning ``key`` (first ring point clockwise of its hash)."""
        if not self._points:
            raise ValueError("owner() on an empty ring")
        h = stable_hash(key, self.seed)
        idx = bisect_left(self._points, (h, -1))
        if idx == len(self._points):
            idx = 0  # wrap past the top of the ring
        return self._points[idx][1]


class PartitionedDirectory(GlobalDirectory):
    """Hash-partitioned directory with bounded-staleness routing.

    Implements the :class:`GlobalDirectory` protocol; consistency
    operations (``lookup`` / ``set_master`` / ``clear_master`` /
    ``purge_node``) stay exact, while :meth:`route_lookup` — the answer
    a requesting node actually acts on — may lag reality by up to
    ``staleness_ms``.  The middleware charges network round trips to
    remote ring homes; with ``staleness_ms == 0`` (and hop cost off)
    this directory is observation-identical to the oracle, which the
    differential suite pins.
    """

    __slots__ = (
        "ring", "staleness_ms", "_clock", "_stale",
        "lookups", "stale_served",
    )

    def __init__(
        self,
        num_nodes: int,
        seed: int = 0,
        staleness_ms: float = 0.0,
    ) -> None:
        if num_nodes < 1:
            raise ValueError("num_nodes must be >= 1")
        if staleness_ms < 0.0:
            raise ValueError("staleness_ms must be >= 0")
        super().__init__()
        self.ring = HashRing(range(num_nodes), seed=seed)
        self.staleness_ms = staleness_ms
        #: Staleness clock; rebound to ``sim.now`` by :meth:`attach`
        #: (mirrors ``CacheScope``).  Unattached, time stands at 0 and
        #: with ``staleness_ms == 0`` no record ever serves.
        self._clock: Callable[[], float] = lambda: 0.0
        #: block -> (previous holder or None, expiry time): the view a
        #: routing lookup serves until the window closes.
        self._stale: dict[BlockId, tuple[int | None, float]] = {}
        #: Total routing lookups.
        self.lookups = 0
        #: Routing lookups answered from an unexpired stale record.
        self.stale_served = 0

    # -- wiring ---------------------------------------------------------
    def attach(self, sim: _Clocked) -> None:
        """Read the staleness clock from ``sim.now`` from now on."""
        self._clock = lambda: float(sim.now)

    # -- ring placement -------------------------------------------------
    def home_of(self, block: BlockId) -> int:
        """Ring home of ``block`` — the node answering lookups for it."""
        return self.ring.owner(_block_key(block))

    # -- bounded-staleness bookkeeping ---------------------------------
    def _record_stale(self, block: BlockId) -> None:
        """Snapshot the pre-change value for the staleness window.

        Only the *first* change in a window records (the oldest view is
        the one that bounds staleness); later changes inside the same
        window leave it in place.
        """
        if self.staleness_ms <= 0.0:
            return
        now = self._clock()
        rec = self._stale.get(block)
        if rec is not None and now < rec[1]:
            return  # an unexpired view already bounds this window
        self._stale[block] = (self.lookup(block), now + self.staleness_ms)

    def set_master(self, block: BlockId, node_id: int) -> None:
        self._record_stale(block)
        super().set_master(block, node_id)

    def clear_master(self, block: BlockId) -> None:
        self._record_stale(block)
        super().clear_master(block)

    def route_lookup(self, block: BlockId) -> int | None:
        """Where the requester *believes* the master lives.

        Serves the recorded pre-change view while its window is open
        (``stale_served``), the authoritative answer otherwise.  The
        served value was true within the last ``staleness_ms`` — the
        bounded-staleness contract the property tests pin.
        """
        self.lookups += 1
        rec = self._stale.get(block)
        if rec is not None:
            value, expiry = rec
            if self._clock() < expiry:
                self.stale_served += 1
                return value
            del self._stale[block]  # window closed: lazily drop
        return self.lookup(block)

    # -- repair ---------------------------------------------------------
    def purge_node(self, node_id: int) -> list[BlockId]:
        purged = super().purge_node(node_id)
        if self._stale:
            gone = set(purged)
            dead = [
                # simlint: ordered -- dict insertion order: stale records
                # are created in event order, so the drop list is
                # deterministic run to run (and drops mutate no sim
                # state beyond this private table anyway).
                blk for blk, (value, _exp) in self._stale.items()
                if blk in gone or value == node_id
            ]
            for blk in dead:
                del self._stale[blk]
        return purged

    def partition_crash(self, node_id: int) -> list[tuple[BlockId, int]]:
        """Ring repair for a fail-stop crash of ``node_id``.

        The dead node's partition of the location map is lost: every
        entry *homed* at it (but held elsewhere — entries it held are
        the usual :meth:`purge_node`'s business) is forgotten, the node
        leaves the ring, and stale records naming it are invalidated
        synchronously so routing never chases a corpse.  Returns the
        forgotten ``(block, holder)`` pairs; the middleware re-registers
        the ones whose holder still has the master resident.
        """
        if node_id not in self.ring:
            return []
        if len(self.ring) == 1:
            # Last member: keep the ring non-empty so home_of() stays
            # total (everything is down anyway; requests abort on the
            # is_down checks, not here).
            return []
        lost = [
            # simlint: ordered -- dict insertion order: entries were
            # recorded in event order (see GlobalDirectory.purge_node),
            # so the lost list — and the re-registration it drives — is
            # deterministic run to run.
            (blk, holder) for blk, holder in self._masters.items()
            if holder != node_id and self.home_of(blk) == node_id
        ]
        for blk, _holder in lost:
            del self._masters[blk]
        self.ring.remove_node(node_id)
        if self._stale:
            gone = {blk for blk, _holder in lost}
            dead = [
                # simlint: ordered -- same insertion-order argument as
                # purge_node above.
                blk for blk, (value, _exp) in self._stale.items()
                if blk in gone or value == node_id
            ]
            for blk in dead:
                del self._stale[blk]
        return lost

    def partition_rejoin(self, node_id: int) -> None:
        """A restarted node re-takes its ring arcs (cold: no entries)."""
        self.ring.add_node(node_id)
