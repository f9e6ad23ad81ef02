"""Unit tests for BlockCache, GlobalDirectory and HomeMap."""

from __future__ import annotations

import heapq
from collections.abc import Iterator
from typing import TYPE_CHECKING

import pytest
from hypothesis import given, settings, strategies as st

from repro.cache import BlockCache, BlockId, CacheFullError, GlobalDirectory, HomeMap
from repro.core.policies import HYBRID_BIAS_MS, POLICIES, select_victim

if TYPE_CHECKING:
    from repro.obs.cachestats import CacheScope


def b(i):
    return BlockId(0, i)


class TestBlockCache:
    def test_insert_and_contains(self):
        c = BlockCache(0, 4)
        c.insert(b(1), master=True, age=1.0)
        assert b(1) in c and c.is_master(b(1))
        assert len(c) == 1

    def test_capacity_enforced(self):
        c = BlockCache(0, 2)
        c.insert(b(1), master=True, age=1.0)
        c.insert(b(2), master=False, age=2.0)
        assert c.is_full
        with pytest.raises(CacheFullError):
            c.insert(b(3), master=True, age=3.0)

    def test_duplicate_insert_raises(self):
        c = BlockCache(0, 4)
        c.insert(b(1), master=True, age=1.0)
        with pytest.raises(KeyError):
            c.insert(b(1), master=False, age=2.0)

    def test_free_slots(self):
        c = BlockCache(0, 3)
        assert c.free_slots == 3
        c.insert(b(1), master=True, age=1.0)
        assert c.free_slots == 2

    def test_master_nonmaster_counts(self):
        c = BlockCache(0, 4)
        c.insert(b(1), master=True, age=1.0)
        c.insert(b(2), master=False, age=2.0)
        c.insert(b(3), master=False, age=3.0)
        assert c.num_masters == 1 and c.num_nonmasters == 2

    def test_oldest_across_both_sets(self):
        c = BlockCache(0, 4)
        c.insert(b(1), master=True, age=5.0)
        c.insert(b(2), master=False, age=3.0)
        assert c.oldest() == (b(2), 3.0, False)

    def test_oldest_tie_prefers_nonmaster(self):
        c = BlockCache(0, 4)
        c.insert(b(1), master=True, age=3.0)
        c.insert(b(2), master=False, age=3.0)
        assert c.oldest() == (b(2), 3.0, False)

    def test_oldest_empty(self):
        assert BlockCache(0, 4).oldest() is None
        assert BlockCache(0, 4).oldest_age() == float("inf")

    def test_oldest_nonmaster_only_masters(self):
        c = BlockCache(0, 4)
        c.insert(b(1), master=True, age=1.0)
        assert c.oldest_nonmaster() is None

    def test_touch_refreshes(self):
        c = BlockCache(0, 4)
        c.insert(b(1), master=True, age=1.0)
        c.insert(b(2), master=False, age=2.0)
        c.touch(b(1), 10.0)
        assert c.oldest() == (b(2), 2.0, False)
        assert c.age_of(b(1)) == 10.0

    def test_remove_returns_masterness(self):
        c = BlockCache(0, 4)
        c.insert(b(1), master=True, age=1.0)
        c.insert(b(2), master=False, age=2.0)
        assert c.remove(b(1)) is True
        assert c.remove(b(2)) is False
        assert len(c) == 0

    def test_promote_to_master_keeps_age(self):
        c = BlockCache(0, 4)
        c.insert(b(1), master=False, age=7.0)
        c.promote_to_master(b(1))
        assert c.is_master(b(1))
        assert c.age_of(b(1)) == 7.0
        assert c.num_nonmasters == 0

    def test_forwarded_old_block_becomes_victim(self):
        # A forwarded master arriving with an ancient age must become the
        # next eviction victim, not sit at the MRU end.
        c = BlockCache(0, 4)
        c.insert(b(1), master=True, age=100.0)
        c.insert(b(2), master=True, age=200.0)
        c.insert(b(3), master=True, age=0.5)  # forwarded, ancient
        assert c.oldest() == (b(3), 0.5, True)

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            BlockCache(0, 0)

    def test_stats_snapshot(self):
        c = BlockCache(3, 4)
        c.insert(b(1), master=True, age=1.0)
        c.insert(b(2), master=False, age=2.0)
        c.mark_dirty(b(1))
        assert c.stats() == {
            "node": 3, "capacity_blocks": 4, "masters": 1,
            "nonmasters": 1, "dirty": 1, "free_slots": 2,
        }

    def test_clear_routes_through_remove(self):
        """clear() must decrement every counter through the single remove
        code path — an attached scope sees each block leave."""

        class Recorder:
            def __init__(self):
                self.removed = []

            def on_insert(self, node_id, key, master, kb=None):
                pass

            def on_remove(self, node_id, key, master, kb=None):
                self.removed.append((key, master))

        rec = Recorder()
        c = BlockCache(0, 4, scope=rec)
        c.insert(b(1), master=True, age=1.0)
        c.insert(b(2), master=False, age=2.0)
        c.mark_dirty(b(1))
        lost = c.clear()
        assert set(lost) == {b(1), b(2)}
        assert lost[0] == b(1)  # masters first
        assert set(rec.removed) == {(b(1), True), (b(2), False)}
        assert len(c) == 0 and c.num_dirty == 0
        assert c.stats()["free_slots"] == 4

    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["insert_m", "insert_n", "touch", "remove"]),
                st.integers(min_value=0, max_value=7),
            ),
            max_size=150,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_capacity_and_counts_invariants(self, ops):
        cap = 4
        c = BlockCache(0, cap)
        model = {}  # block -> is_master
        clock = 0.0
        for op, i in ops:
            blk = b(i)
            clock += 1.0
            if op.startswith("insert") and blk not in model and len(model) < cap:
                master = op == "insert_m"
                c.insert(blk, master=master, age=clock)
                model[blk] = master
            elif op == "touch" and blk in model:
                c.touch(blk, clock)
            elif op == "remove" and blk in model:
                assert c.remove(blk) == model.pop(blk)
            assert len(c) == len(model) <= cap
            assert c.num_masters == sum(model.values())
            assert c.num_nonmasters == len(model) - sum(model.values())
            assert c.is_full == (len(model) == cap)


# ---------------------------------------------------------------------------
# Reference implementation for the differential test below: AgedLRU with
# its ages in a separate dict, and BlockCache's query and mutation methods
# over it, copied verbatim from that implementation (only the class names
# differ).  Do not edit it to make the test pass: its lazy-deletion heap
# defines the tie-break order evictions depend on, including the revival
# of a stale entry when a block comes back at the same age.
# ---------------------------------------------------------------------------


class RefAgedLRU:
    """A set of blocks ordered by age (older = smaller timestamp).

    Ties in age break by insertion order (earlier insertion = older),
    which keeps runs deterministic.
    """

    __slots__ = ("_ages", "_heap", "_seq")

    def __init__(self) -> None:
        self._ages: dict[BlockId, float] = {}
        self._heap: list[tuple[float, int, BlockId]] = []
        self._seq = 0

    def __len__(self) -> int:
        return len(self._ages)

    def __contains__(self, block: BlockId) -> bool:
        return block in self._ages

    def __iter__(self) -> Iterator[BlockId]:
        return iter(self._ages)

    def age_of(self, block: BlockId) -> float:
        """Last-access timestamp of ``block`` (KeyError if absent)."""
        return self._ages[block]

    def add(self, block: BlockId, age: float) -> None:
        """Insert ``block`` with the given age (error if present)."""
        if block in self._ages:
            raise KeyError(f"{block} already present")
        self._set(block, age)

    def touch(self, block: BlockId, age: float) -> None:
        """Refresh ``block``'s age (KeyError if absent).

        Ages must not go backwards for a resident block: a touch models a
        new access, which can only make the block younger.
        """
        old = self._ages[block]
        if age < old:
            raise ValueError(f"age moving backwards for {block}: {age} < {old}")
        self._set(block, age)

    def remove(self, block: BlockId) -> float:
        """Remove ``block``; returns its age (KeyError if absent)."""
        return self._ages.pop(block)  # heap entry goes stale; lazily dropped

    def _set(self, block: BlockId, age: float) -> None:
        self._ages[block] = age
        self._seq += 1
        heapq.heappush(self._heap, (age, self._seq, block))

    def oldest(self) -> tuple[BlockId, float] | None:
        """The (block, age) with the smallest age, or None when empty."""
        while self._heap:
            age, _seq, block = self._heap[0]
            current = self._ages.get(block)
            # simlint: disable=SL03 -- staleness check: compares the heap
            # entry against the *same stored float*, not a computed sum;
            # exact equality is the correct predicate here.
            if current is not None and current == age:
                return block, age
            heapq.heappop(self._heap)  # stale: removed or re-aged
        return None

    def oldest_age(self) -> float:
        """Age of the oldest block; +inf when empty (so comparisons like
        "does any peer hold an older block" degrade gracefully)."""
        entry = self.oldest()
        return entry[1] if entry is not None else float("inf")


class RefBlockCache:
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
        self._masters = RefAgedLRU()
        self._nonmasters = RefAgedLRU()
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
        return len(self) >= self.capacity_blocks

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
        """
        return min(self._masters.oldest_age(), self._nonmasters.oldest_age())

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
        if block in self:
            raise KeyError(f"{block} already cached at node {self.node_id}")
        if self.is_full:
            raise CacheFullError(
                f"node {self.node_id} cache full ({self.capacity_blocks} blocks)"
            )
        (self._masters if master else self._nonmasters).add(block, age)
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


#: Ages come from a small set so that ties are common, and lie more than
#: the hybrid bias apart so that both of its branches fire.
AGES = (0.0, 2 * HYBRID_BIAS_MS)
UNIVERSE = [b(i) for i in range(6)]

#: (operation, pick, is_master, age or age step); ``pick`` indexes the
#: blocks the operation applies to, so almost every drawn op does work.
cache_ops = st.lists(
    st.tuples(
        st.sampled_from(("insert", "insert", "remove", "remove", "readd", "readd",
                         "touch", "promote", "evict")),
        st.integers(0, 5),
        st.booleans(),
        st.sampled_from(AGES),
    ),
    min_size=20,
    max_size=60,
)


def assert_same_answers(new: BlockCache, ref: RefBlockCache) -> None:
    """Every query, asked of both caches in the same order (queries drop
    stale heap entries, so the order is part of the behaviour)."""
    assert len(new) == len(ref)
    assert new.is_full == ref.is_full
    assert (new.num_masters, new.num_nonmasters) == (ref.num_masters, ref.num_nonmasters)
    for blk in UNIVERSE:
        assert (blk in new) == (blk in ref)
    assert new.masters() == ref.masters()
    assert new.oldest_nonmaster() == ref.oldest_nonmaster()
    assert new.oldest() == ref.oldest()
    assert new.oldest_age() == ref.oldest_age()
    for policy in sorted(POLICIES):
        assert select_victim(policy, new) == select_victim(policy, ref)


class TestMatchesReference:
    @given(cache_ops)
    @settings(max_examples=300, deadline=None)
    def test_same_answers_as_reference(self, ops):
        """Random inserts (tied ages), touches that keep or raise a block's
        age, removes, promotions, re-adds at the old age and policy
        evictions leave BlockCache answering exactly like the reference."""
        new, ref = BlockCache(0, 4), RefBlockCache(0, 4)
        removed: dict[BlockId, tuple[float, bool]] = {}  # block -> (age, was master)
        for kind, pick, master, age in ops:
            resident = [blk for blk in UNIVERSE if blk in ref]
            if kind == "insert":
                absent = [blk for blk in UNIVERSE if blk not in ref]
                if absent and not ref.is_full:
                    blk = absent[pick % len(absent)]
                    for c in (ref, new):
                        c.insert(blk, master=master, age=age)
            elif kind == "touch" and resident:
                blk = resident[pick % len(resident)]
                later = ref.age_of(blk) + age  # a step of 0 is a same-age touch
                for c in (ref, new):
                    c.touch(blk, later)
            elif kind == "remove" and resident:
                blk = resident[pick % len(resident)]
                removed[blk] = (ref.age_of(blk), ref.is_master(blk))
                assert new.remove(blk) == ref.remove(blk)
            elif kind == "promote":
                replicas = [blk for blk in resident if not ref.is_master(blk)]
                if replicas:
                    blk = replicas[pick % len(replicas)]
                    for c in (ref, new):
                        c.promote_to_master(blk)
            elif kind == "readd" and not ref.is_full:
                gone = [blk for blk in removed if blk not in ref]
                if gone:
                    # Back at its old age and into its old set: a forwarded
                    # master returning to a node it was evicted from.
                    blk = gone[pick % len(gone)]
                    old_age, was_master = removed[blk]
                    for c in (ref, new):
                        c.insert(blk, master=was_master, age=old_age)
            elif kind == "evict" and resident:
                policy = sorted(POLICIES)[pick % len(POLICIES)]
                victim = select_victim(policy, ref)
                assert select_victim(policy, new) == victim
                removed[victim[0]] = victim[1:]
                assert new.remove(victim[0]) == ref.remove(victim[0])
            assert_same_answers(new, ref)

    def test_readded_block_keeps_its_old_place(self):
        """The revival rule, spelled out: a block removed while its heap
        entry is buried and re-added at the same age sorts by its first
        entry, ahead of a block that tied with it later."""
        new, ref = BlockCache(0, 5), RefBlockCache(0, 5)
        for c in (ref, new):
            c.insert(b(0), master=True, age=0.0)
            c.insert(b(1), master=True, age=1.0)
            c.insert(b(2), master=True, age=1.0)
            c.remove(b(1))
            c.insert(b(1), master=True, age=1.0)
            c.remove(b(0))
        assert ref.oldest() == (b(1), 1.0, True)
        assert new.oldest() == ref.oldest()


class TestGlobalDirectory:
    def test_lookup_absent(self):
        assert GlobalDirectory().lookup(b(1)) is None

    def test_set_and_lookup(self):
        d = GlobalDirectory()
        d.set_master(b(1), 3)
        assert d.lookup(b(1)) == 3
        assert len(d) == 1

    def test_move_master(self):
        d = GlobalDirectory()
        d.set_master(b(1), 3)
        d.set_master(b(1), 5)
        assert d.lookup(b(1)) == 5
        assert len(d) == 1

    def test_clear_master(self):
        d = GlobalDirectory()
        d.set_master(b(1), 3)
        d.clear_master(b(1))
        assert d.lookup(b(1)) is None
        d.clear_master(b(1))  # idempotent

    def test_masters_at(self):
        d = GlobalDirectory()
        d.set_master(b(1), 0)
        d.set_master(b(2), 0)
        d.set_master(b(3), 1)
        assert d.masters_at(0) == 2 and d.masters_at(1) == 1

    def test_census(self):
        d = GlobalDirectory()
        assert d.census() == {}
        d.set_master(b(1), 0)
        d.set_master(b(2), 0)
        d.set_master(b(3), 1)
        assert d.census() == {0: 2, 1: 1}
        d.clear_master(b(2))
        assert d.census() == {0: 1, 1: 1}


class TestHomeMap:
    def test_round_robin_spread(self):
        h = HomeMap(num_files=10, num_nodes=4)
        assert [h.home_of(f) for f in range(10)] == [f % 4 for f in range(10)]

    def test_concentrate_subset(self):
        h = HomeMap(num_files=10, num_nodes=4)
        h.concentrate([1, 2, 3], node_id=2)
        assert h.home_of(1) == h.home_of(2) == h.home_of(3) == 2
        assert h.home_of(0) == 0

    def test_concentrate_bad_node(self):
        h = HomeMap(num_files=10, num_nodes=4)
        with pytest.raises(ValueError):
            h.concentrate([1], node_id=7)

    def test_bad_counts(self):
        with pytest.raises(ValueError):
            HomeMap(0, 2)
        with pytest.raises(ValueError):
            HomeMap(2, 0)
