"""Whole-file caches with PRESS-style de-replication.

PRESS "uses whole files as the caching granularity, employing a custom
de-replication algorithm instead of block replacement.  This algorithm
behaves like local LRU ... and tries to keep at least one copy of each
file in memory whenever possible."

:class:`FileCache` is one node's memory; :class:`ReplicaDirectory` is the
cluster-wide view of which nodes cache which files (PRESS maintains this
to do content-aware dispatch).  Victim selection walks the local LRU
order and skips files whose only in-memory copy this is, unless nothing
else can be evicted — that *is* the de-replication preference.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from collections.abc import Iterator

__all__ = ["FileCache", "ReplicaDirectory"]


class ReplicaDirectory:
    """file id -> set of node ids currently caching the whole file."""

    __slots__ = ("_where",)

    def __init__(self) -> None:
        self._where: dict[int, set[int]] = {}

    def holders(self, file_id: int) -> frozenset:
        """Nodes caching ``file_id`` (possibly empty)."""
        return frozenset(self._where.get(file_id, ()))

    def copies(self, file_id: int) -> int:
        """Number of in-memory copies of ``file_id`` cluster-wide."""
        return len(self._where.get(file_id, ()))

    def add(self, file_id: int, node_id: int) -> None:
        """Record that ``node_id`` now caches ``file_id``."""
        self._where.setdefault(file_id, set()).add(node_id)

    def remove(self, file_id: int, node_id: int) -> None:
        """Record that ``node_id`` dropped ``file_id``."""
        nodes = self._where.get(file_id)
        if nodes is None or node_id not in nodes:
            raise KeyError(f"node {node_id} does not cache file {file_id}")
        nodes.discard(node_id)
        if not nodes:
            del self._where[file_id]

    def cached_files(self) -> Iterator[int]:
        """All files with at least one in-memory copy."""
        return iter(self._where)


class FileCache:
    """One node's whole-file LRU cache with de-replication preference.

    ``scope`` is an optional :class:`~repro.obs.cachestats.CacheScope`;
    every residency change flows through :meth:`insert` / :meth:`_drop`
    (``drop`` and ``clear`` are wrappers), so the census cannot drift.
    """

    __slots__ = ("node_id", "capacity_kb", "used_kb", "_lru", "directory",
                 "_scope")

    def __init__(self, node_id: int, capacity_kb: float,
                 directory: ReplicaDirectory, scope=None):
        if not 0 < capacity_kb < math.inf:
            raise ValueError("capacity must be positive and finite")
        self.node_id = node_id
        self.capacity_kb = capacity_kb
        self.used_kb = 0.0
        # file_id -> size_kb; insertion order == LRU order (oldest first).
        self._lru: "OrderedDict[int, float]" = OrderedDict()
        self.directory = directory
        self._scope = scope

    def __contains__(self, file_id: int) -> bool:
        return file_id in self._lru

    def __len__(self) -> int:
        return len(self._lru)

    @property
    def free_kb(self) -> float:
        """Capacity not currently used."""
        return self.capacity_kb - self.used_kb

    def touch(self, file_id: int) -> None:
        """Record an access (moves to MRU)."""
        self._lru.move_to_end(file_id)

    def fits(self, size_kb: float) -> bool:
        """Could this file ever be cached here?"""
        return size_kb <= self.capacity_kb

    def insert(self, file_id: int, size_kb: float) -> list[int]:
        """Cache ``file_id``, evicting per de-replication; returns the
        evicted file ids.

        Raises if the file is present or can never fit.  The directory is
        kept in sync for both the insertion and every eviction.
        """
        if file_id in self._lru:
            raise KeyError(f"file {file_id} already cached at {self.node_id}")
        if not self.fits(size_kb):
            raise ValueError(
                f"file {file_id} ({size_kb} KB) exceeds cache capacity"
            )
        evicted: list[int] = []
        while self.used_kb + size_kb > self.capacity_kb:
            victim = self._select_victim()
            evicted.append(victim)
            self._drop(victim)
        self._lru[file_id] = size_kb
        self.used_kb += size_kb
        self.directory.add(file_id, self.node_id)
        if self._scope is not None:
            # Whole-file caches have no master concept: every copy is a
            # plain replica in the census.
            self._scope.on_insert(self.node_id, file_id, False, kb=size_kb)
        return evicted

    def _select_victim(self) -> int:
        """LRU order, preferring files that have another copy elsewhere.

        "tries to keep at least one copy of each file in memory whenever
        possible": a file whose only copy is here survives unless *every*
        resident file is a last copy, in which case plain LRU applies.
        """
        fallback: int | None = None
        for file_id in self._lru:  # oldest first
            if fallback is None:
                fallback = file_id
            if self.directory.copies(file_id) > 1:
                return file_id
        if fallback is None:
            raise KeyError("eviction from empty cache")
        return fallback

    def _drop(self, file_id: int) -> None:
        size = self._lru.pop(file_id)
        self.used_kb -= size
        self.directory.remove(file_id, self.node_id)
        if self._scope is not None:
            self._scope.on_remove(self.node_id, file_id, False, kb=size)

    def drop(self, file_id: int) -> None:
        """Explicitly remove a resident file (de-replication by command)."""
        if file_id not in self._lru:
            raise KeyError(f"file {file_id} not cached at {self.node_id}")
        self._drop(file_id)

    def clear(self) -> int:
        """Drop every resident file (fail-stop crash: memory is lost);
        returns how many were dropped.  The directory is kept in sync, so
        content-aware dispatch stops routing at this node immediately."""
        files = list(self._lru)
        for file_id in files:
            self._drop(file_id)
        return len(files)

    def lru_order(self) -> list[int]:
        """Resident files, oldest first (for tests and introspection)."""
        return list(self._lru)

    def metrics(self) -> dict[str, float]:
        """Current occupancy for the metrics registry."""
        return {
            "files": float(len(self._lru)),
            "used_kb": self.used_kb,
            "free_kb": self.free_kb,
        }

    def bind_metrics(self, registry) -> None:
        """Register occupancy as a collector under ``press.cacheN``."""
        registry.register_collector(f"press.cache{self.node_id}", self.metrics)
