"""Age-ordered block sets with O(log n) amortized operations.

A plain LRU list is not enough for cooperative caching: a *forwarded*
master block arrives at its destination carrying its **original age**, so
it must sort into the recency order rather than enter at the MRU end
(the paper relies on this: "when a forwarded block arrives at its
destination, all blocks at the destination may now be younger than the
forwarded block; in this case, the forwarded block is dropped").

:class:`AgedLRU` therefore stores an explicit age (last-access timestamp)
per block and finds the minimum through a lazy-deletion binary heap:
stale heap entries (from touches and removals) are discarded when they
surface.  Amortized cost per operation is O(log n).
"""

from __future__ import annotations

import heapq

from .block import BlockId

__all__ = ["AgedLRU"]


class AgedLRU(dict[BlockId, float]):
    """A set of blocks ordered by age (older = smaller timestamp).

    The object *is* the block -> age dict, so membership, size, lookup,
    iteration and deletion (``in``, ``len``, ``[]``, ``get``, ``pop``)
    run in C.  :meth:`add` and :meth:`touch` are the only writers: each
    stores the age and pushes an ``(age, seq, block)`` heap entry.

    Ties in age break by ``seq``, the order of those writes (earlier =
    older), which keeps runs deterministic.  A heap entry is live while
    the dict still maps its block to its age, so a block removed and
    re-added at the same age revives its old entry, which then sorts by
    its old ``seq``.
    """

    __slots__ = ("_heap", "_seq")

    def __init__(self) -> None:
        super().__init__()
        self._heap: list[tuple[float, int, BlockId]] = []
        self._seq = 0

    #: Last-access timestamp of ``block`` (KeyError if absent).
    age_of = dict.__getitem__
    #: Remove ``block`` and return its age (KeyError if absent); its heap
    #: entry goes stale and is dropped lazily.
    remove = dict.pop

    def add(self, block: BlockId, age: float) -> None:
        """Insert ``block`` with the given age (error if present)."""
        if block in self:
            raise KeyError(f"{block} already present")
        self[block] = age
        self._seq += 1
        heapq.heappush(self._heap, (age, self._seq, block))

    def touch(self, block: BlockId, age: float) -> None:
        """Refresh ``block``'s age (KeyError if absent).

        Ages must not go backwards for a resident block: a touch models a
        new access, which can only make the block younger.
        """
        old = self[block]
        if age < old:
            raise ValueError(f"age moving backwards for {block}: {age} < {old}")
        self[block] = age
        self._seq += 1
        heapq.heappush(self._heap, (age, self._seq, block))

    def oldest(self) -> tuple[BlockId, float] | None:
        """The (block, age) with the smallest age, or None when empty."""
        heap = self._heap
        while heap:
            age, _seq, block = heap[0]
            # simlint: disable=SL03 -- staleness check: compares the heap
            # entry against the *same stored float*, not a computed sum;
            # exact equality is the correct predicate here.
            if self.get(block) == age:
                return block, age
            heapq.heappop(heap)  # stale: removed or re-aged
        return None

    def oldest_age(self) -> float:
        """Age of the oldest block; +inf when empty (so comparisons like
        "does any peer hold an older block" degrade gracefully)."""
        entry = self.oldest()
        return entry[1] if entry is not None else float("inf")

    def pop_oldest(self) -> tuple[BlockId, float]:
        """Remove and return the oldest (block, age); error when empty."""
        entry = self.oldest()
        if entry is None:
            raise KeyError("pop from empty AgedLRU")
        block, age = entry
        del self[block]
        heapq.heappop(self._heap)
        return block, age
