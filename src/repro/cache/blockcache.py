"""Per-node block cache with master / non-master segregation.

A node's memory holds up to ``capacity_blocks`` blocks.  Master copies
(the cluster's canonical in-memory copy of a block) and non-master copies
(local replicas made on remote hits) live in separate age-ordered sets so
replacement policies can ask for "the oldest block overall" (CC-Basic's
global-LRU victim) or "the oldest non-master" (CC-KMC's preferred victim)
in O(log n) amortized.  Each set is an :class:`~repro.cache.lru.AgedLRU`,
itself the block -> age dict, so membership and size checks run in C.

The cache is a passive data structure: *deciding* what to do with a
victim (drop vs forward to a peer) is the middleware's job in
:mod:`repro.core.middleware`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .block import BlockId
from .lru import AgedLRU

if TYPE_CHECKING:
    from ..obs.cachestats import CacheScope

__all__ = ["BlockCache", "CacheFullError"]


class CacheFullError(RuntimeError):
    """Raised on insert into a full cache (the caller must evict first)."""


class BlockCache:
    """Fixed-capacity block store for one node.

    ``scope`` is an optional :class:`~repro.obs.cachestats.CacheScope`
    notified on every insert / remove / promote — residency accounting
    flows through these three methods and nowhere else (``clear`` is a
    remove loop), so telemetry cannot drift from the cache contents.
    """

    __slots__ = ("node_id", "capacity_blocks", "_masters", "_nonmasters",
                 "_dirty", "_scope")

    def __init__(self, node_id: int, capacity_blocks: int,
                 scope: CacheScope | None = None) -> None:
        if capacity_blocks < 1:
            raise ValueError("capacity must be at least one block")
        self.node_id = node_id
        self.capacity_blocks = capacity_blocks
        self._masters = AgedLRU()
        self._nonmasters = AgedLRU()
        # Masters holding unwritten-back modifications (write extension).
        # A dict used as an insertion-ordered set: iteration order is the
        # order blocks were dirtied, which is deterministic by
        # construction (a hash-ordered set would couple flush order to
        # hash-table internals).
        self._dirty: dict[BlockId, None] = {}
        self._scope = scope

    # -- size -----------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._masters) + len(self._nonmasters)

    def __contains__(self, block: BlockId) -> bool:
        return block in self._masters or block in self._nonmasters

    @property
    def is_full(self) -> bool:
        """True when an insert would require an eviction first."""
        return len(self._masters) + len(self._nonmasters) >= self.capacity_blocks

    @property
    def free_slots(self) -> int:
        """Blocks that can be inserted without eviction."""
        return self.capacity_blocks - len(self)

    @property
    def num_masters(self) -> int:
        """Resident master copies."""
        return len(self._masters)

    @property
    def num_nonmasters(self) -> int:
        """Resident non-master (replica) copies."""
        return len(self._nonmasters)

    # -- queries -----------------------------------------------------------------
    def is_master(self, block: BlockId) -> bool:
        """True if this node holds the master copy of ``block``."""
        return block in self._masters

    def age_of(self, block: BlockId) -> float:
        """Last-access timestamp of a resident block."""
        if block in self._masters:
            return self._masters.age_of(block)
        return self._nonmasters.age_of(block)

    def oldest(self) -> tuple[BlockId, float, bool] | None:
        """Overall oldest resident block as (block, age, is_master).

        Ties between the two sets break toward the non-master — evicting
        the replica is always at least as safe.
        """
        m = self._masters.oldest()
        n = self._nonmasters.oldest()
        if m is None and n is None:
            return None
        if m is None:
            return (*n, False)  # type: ignore[misc]
        if n is None:
            return (*m, True)
        return (*n, False) if n[1] <= m[1] else (*m, True)

    def oldest_age(self) -> float:
        """Age of the overall oldest block; +inf for an empty cache.

        This is the quantity peers compare when deciding where to forward
        an evicted master ("each node always knows the age of the oldest
        blocks of its peers").

        Asks ``AgedLRU.oldest`` of both sets, where the staleness test
        lives: which stale heap entries a query drops is part of the
        tie-break order (see :class:`~repro.cache.lru.AgedLRU`).
        """
        m = self._masters.oldest()
        n = self._nonmasters.oldest()
        if m is None:
            return float("inf") if n is None else n[1]
        return m[1] if n is None else min(m[1], n[1])

    def oldest_nonmaster(self) -> tuple[BlockId, float] | None:
        """Oldest non-master copy, or None if the cache holds only masters."""
        return self._nonmasters.oldest()

    def masters(self) -> tuple[BlockId, ...]:
        """Read-only view of the resident master copies.

        A snapshot tuple, so callers (invariant checks, debugging tools)
        can iterate while the cache mutates and can never corrupt the
        master set by accident.
        """
        return tuple(self._masters)

    # -- mutation -----------------------------------------------------------------
    def touch(self, block: BlockId, now: float) -> None:
        """Record an access to a resident block (refreshes its age)."""
        if block in self._masters:
            self._masters.touch(block, now)
        else:
            self._nonmasters.touch(block, now)

    def insert(self, block: BlockId, *, master: bool, age: float) -> None:
        """Insert ``block`` (error if present or if the cache is full).

        ``age`` is the block's access timestamp — ``now`` for a fresh
        fetch, or the *original* age for a forwarded master.
        """
        masters, nonmasters = self._masters, self._nonmasters
        if block in masters or block in nonmasters:
            raise KeyError(f"{block} already cached at node {self.node_id}")
        if len(masters) + len(nonmasters) >= self.capacity_blocks:
            raise CacheFullError(
                f"node {self.node_id} cache full ({self.capacity_blocks} blocks)"
            )
        (masters if master else nonmasters).add(block, age)
        if self._scope is not None:
            self._scope.on_insert(self.node_id, block, master)

    def remove(self, block: BlockId) -> bool:
        """Remove a resident block; returns True if it was the master.

        Any dirty flag is discarded with the block — callers that must
        preserve modified data (eviction of a dirty master) check
        :meth:`is_dirty` *before* removing.
        """
        self._dirty.pop(block, None)
        if block in self._masters:
            self._masters.remove(block)
            was_master = True
        else:
            self._nonmasters.remove(block)
            was_master = False
        if self._scope is not None:
            self._scope.on_remove(self.node_id, block, was_master)
        return was_master

    # -- dirty tracking (write-protocol extension) ---------------------------
    def mark_dirty(self, block: BlockId) -> None:
        """Flag a resident *master* as modified and not yet written back."""
        if block not in self._masters:
            raise KeyError(f"{block} is not a resident master")
        self._dirty[block] = None

    def clear_dirty(self, block: BlockId) -> None:
        """The block's modifications reached disk (idempotent)."""
        self._dirty.pop(block, None)

    def is_dirty(self, block: BlockId) -> bool:
        """True if the block holds unwritten-back modifications."""
        return block in self._dirty

    @property
    def num_dirty(self) -> int:
        """Resident dirty masters."""
        return len(self._dirty)

    def dirty_blocks(self) -> tuple[BlockId, ...]:
        """Snapshot of the dirty masters, in the order they were dirtied.

        The sanctioned way for the middleware to enumerate what a flush
        must write back — reaching into ``_dirty`` would bypass the
        census code path (simlint SL04).
        """
        return tuple(self._dirty)

    def clear(self) -> tuple[BlockId, ...]:
        """Drop every resident block (fail-stop crash: memory is lost).

        Returns the blocks that were resident (masters first) so the
        middleware's crash repair can account for them; dirty flags are
        discarded with the data — that *is* the data loss being modeled.
        Routed through :meth:`remove` so all bookkeeping (dirty flags,
        scope census) decrements through the one removal code path.
        """
        lost = tuple(self._masters) + tuple(self._nonmasters)
        for block in lost:
            self.remove(block)
        return lost

    def promote_to_master(self, block: BlockId) -> None:
        """Turn a resident non-master copy into the master (age kept).

        Used when a forwarded master lands on a node already holding a
        replica of the same block: the replica absorbs master status
        instead of duplicating the block.
        """
        age = self._nonmasters.remove(block)
        self._masters.add(block, age)
        if self._scope is not None:
            self._scope.on_promote(self.node_id, block)

    def stats(self) -> dict[str, int]:
        """Occupancy snapshot, so observers never reach into private state."""
        return {
            "node": self.node_id,
            "capacity_blocks": self.capacity_blocks,
            "masters": len(self._masters),
            "nonmasters": len(self._nonmasters),
            "dirty": len(self._dirty),
            "free_slots": self.free_slots,
        }
