"""Global master-block directory and the file-to-home mapping.

The paper's optimistic baseline assumes "a perfect global directory of
master blocks" maintained at zero cost, plus "perfect global knowledge of
the age of the oldest block on each node".  :class:`GlobalDirectory`
implements the former; the age oracle lives with the middleware (it reads
peer caches directly, which *is* the perfect-knowledge assumption).

The hint-based alternative (Sarkar & Hartman, the paper's future work)
subclasses the directory in :mod:`repro.core.hints`.

:class:`HomeMap` is the "general case of files being distributed across
all nodes, with each node having a copy of the global file-to-node
mapping"; a file's home is where its blocks live on disk.
"""

from __future__ import annotations

from collections.abc import Iterable

from .block import BlockId

__all__ = ["GlobalDirectory", "HomeMap"]


class GlobalDirectory:
    """Perfect, instantaneously consistent block -> master-holder map."""

    __slots__ = ("_masters",)

    def __init__(self) -> None:
        self._masters: dict[BlockId, int] = {}

    def lookup(self, block: BlockId) -> int | None:
        """Node currently holding the master of ``block``, or None."""
        return self._masters.get(block)

    def set_master(self, block: BlockId, node_id: int) -> None:
        """Record that ``node_id`` now holds the master of ``block``."""
        self._masters[block] = node_id

    def clear_master(self, block: BlockId) -> None:
        """The master of ``block`` left cluster memory (dropped)."""
        self._masters.pop(block, None)

    def __len__(self) -> int:
        return len(self._masters)

    def masters_at(self, node_id: int) -> int:
        """Count of master blocks recorded at ``node_id`` (O(n); debugging
        and invariant checks only)."""
        # simlint: ordered -- integer count over the whole view; the
        # result is independent of iteration order.
        return sum(1 for holder in self._masters.values() if holder == node_id)

    def census(self) -> dict[int, int]:
        """Recorded master count per node id (one O(n) pass; telemetry
        snapshots and invariant checks, not the request path)."""
        counts: dict[int, int] = {}
        # simlint: ordered -- entries were inserted in event order
        # (set_master is only called from the deterministic event loop;
        # HintDirectory inherits these same event-ordered methods), and
        # integer counting is order-independent anyway.
        for holder in self._masters.values():
            counts[holder] = counts.get(holder, 0) + 1
        return counts

    def purge_node(self, node_id: int) -> list[BlockId]:
        """Drop every entry pointing at ``node_id``; returns those blocks.

        Directory repair after a fail-stop crash: the node's memory — and
        with it every master copy it held — is gone, so entries naming it
        are orphans.  Only its own entries are touched (O(n) over the
        directory; crashes are rare events, not a hot path).
        """
        purged = [
            # simlint: ordered -- dict insertion order: entries were
            # recorded in event order, so the purge list (and the repair
            # events it drives) is deterministic run to run.
            # HintDirectory inserts through the same methods, so the
            # argument survives the directory seam.
            blk for blk, holder in self._masters.items() if holder == node_id
        ]
        for blk in purged:
            del self._masters[blk]
        return purged


class HomeMap:
    """Static assignment of files to the nodes whose disks store them.

    File *f* lives on node ``f % N`` — the even spread the paper
    assumes.  :meth:`concentrate` re-homes chosen files onto one node
    (the hot-spot stress of ablation A2).
    """

    __slots__ = ("num_nodes", "num_files", "_home")

    def __init__(self, num_files: int, num_nodes: int) -> None:
        if num_nodes < 1 or num_files < 1:
            raise ValueError("need at least one file and one node")
        self.num_nodes = num_nodes
        self.num_files = num_files
        self._home = [f % num_nodes for f in range(num_files)]

    def home_of(self, file_id: int) -> int:
        """Node whose disk stores ``file_id``."""
        return self._home[file_id]

    def concentrate(self, file_ids: Iterable[int], node_id: int = 0) -> None:
        """Re-home the given files onto one node (ablation A2)."""
        if not 0 <= node_id < self.num_nodes:
            raise ValueError(f"node {node_id} out of range")
        for f in file_ids:
            self._home[f] = node_id
