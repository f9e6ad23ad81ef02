"""Timing-free partitioned-LRU model for the ring-convergence study.

*Asymptotic Miss Ratio of LRU Caching with Consistent Hashing*
(PAPERS.md) predicts that hash-partitioning an LRU cache across nodes —
each key served by exactly one node's LRU — has the **same asymptotic
miss ratio as one big LRU of the aggregate capacity**: the gap vanishes
as per-node capacity grows, at *every* node count.  That is the
falsifiable claim behind the ``fig_ring`` experiment and the nightly
statistical test, and the reason a global LRU of the aggregate capacity
is a fair hit-ratio bound for a content-partitioned cache.

This model deliberately strips everything but the claim: a seeded Zipf
request stream, one :class:`~repro.cache.hashring.HashRing` routing
keys to per-node LRUs, and a single LRU of the summed capacity replaying
the identical stream.  No timing, no protocol — differences between the
two miss ratios are purely the partitioning (hash imbalance), which is
exactly what the theorem bounds.
"""

from __future__ import annotations

from collections import OrderedDict

import numpy as np

from ..cache.hashring import HashRing
from ..sim.rng import stream

__all__ = [
    "zipf_requests",
    "lru_miss_ratio",
    "partitioned_miss_ratio",
    "convergence_point",
]


def zipf_requests(
    num_files: int, num_requests: int, theta: float = 0.8, seed: int = 0
) -> np.ndarray:
    """A seeded Zipf(``theta``) file-id stream (i.i.d., like the traces)."""
    if num_files < 1 or num_requests < 1:
        raise ValueError("need at least one file and one request")
    weights = np.arange(1, num_files + 1, dtype=np.float64) ** (-theta)
    weights /= weights.sum()
    rng = stream(seed, "ring", "zipf")
    return rng.choice(num_files, size=num_requests, p=weights)


class _LRU:
    """Minimal counting LRU over integer keys (move-to-end semantics)."""

    __slots__ = ("capacity", "_items", "misses", "accesses")

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._items: OrderedDict[int, None] = OrderedDict()
        self.misses = 0
        self.accesses = 0

    def access(self, key: int) -> None:
        self.accesses += 1
        if key in self._items:
            self._items.move_to_end(key)
            return
        self.misses += 1
        if len(self._items) >= self.capacity:
            self._items.popitem(last=False)
        self._items[key] = None


def lru_miss_ratio(requests: np.ndarray, capacity: int) -> float:
    """Miss ratio of one LRU of ``capacity`` items over ``requests``."""
    lru = _LRU(capacity)
    for key in requests:
        lru.access(int(key))
    return lru.misses / lru.accesses


def partitioned_miss_ratio(
    requests: np.ndarray,
    num_nodes: int,
    capacity_per_node: int,
    vnodes: int = 32,
    seed: int = 0,
) -> float:
    """Aggregate miss ratio of ``num_nodes`` LRUs behind a hash ring.

    Every key is served by its ring home's LRU only (single-copy
    placement — content partitioning, not the middleware's
    replication), so aggregate capacity is ``num_nodes *
    capacity_per_node`` and any excess misses over the single LRU come
    from hash imbalance across partitions.
    """
    ring = HashRing(range(num_nodes), vnodes=vnodes, seed=seed)
    num_files = int(requests.max()) + 1
    owner_of = np.array(
        [ring.owner(f"f:{f}") for f in range(num_files)], dtype=np.int64
    )
    lrus = [_LRU(capacity_per_node) for _ in range(num_nodes)]
    for key in requests:
        k = int(key)
        lrus[owner_of[k]].access(k)
    misses = sum(lru.misses for lru in lrus)
    accesses = sum(lru.accesses for lru in lrus)
    return misses / accesses


def convergence_point(
    requests: np.ndarray,
    num_nodes: int,
    capacity_per_node: int,
    vnodes: int = 32,
    seed: int = 0,
) -> dict[str, float]:
    """Partitioned vs single-LRU miss ratios at one (nodes, capacity)."""
    part = partitioned_miss_ratio(
        requests, num_nodes, capacity_per_node, vnodes=vnodes, seed=seed
    )
    single = lru_miss_ratio(requests, num_nodes * capacity_per_node)
    return {
        "nodes": float(num_nodes),
        "capacity_per_node": float(capacity_per_node),
        "partitioned_miss": part,
        "single_miss": single,
        "gap": part - single,
    }
