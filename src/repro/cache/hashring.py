"""Consistent-hash ring for the Fig R ring-convergence study.

Ji et al.'s asymptotic result (PAPERS.md) says an LRU cache split across
nodes by consistent hashing approaches one LRU of the aggregate
capacity.  :mod:`repro.analytic.ring` measures that on a seeded stream;
this module is the placement it routes with:

* :func:`stable_hash` is a *seeded, process-stable* hash (BLAKE2b with
  the seed as key).  Python's builtin ``hash`` is salted per process
  (PYTHONHASHSEED) and would silently break cross-process determinism —
  simlint SL02 territory.
* :class:`HashRing` keeps ``vnodes`` points per node on a 64-bit ring;
  placement depends only on ``(node_id, vnode, seed)``, never on join
  order, so any process reconstructs the identical ring.
"""

from __future__ import annotations

import hashlib
from bisect import bisect_left, insort
from collections.abc import Iterable

__all__ = ["stable_hash", "HashRing"]

_MASK64 = 0xFFFFFFFFFFFFFFFF


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


class HashRing:
    """Consistent-hash ring with virtual nodes.

    Each node owns ``vnodes`` points at ``stable_hash("n:<id>:<v>")``;
    a key belongs to the node owning the first point clockwise from the
    key's hash.  Adding a node moves only the keys adjacent to its
    points (~``K/N`` of them), never reshuffles the rest — the property
    the join test pins.
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

    def owner(self, key: str) -> int:
        """Node owning ``key`` (first ring point clockwise of its hash)."""
        h = stable_hash(key, self.seed)
        idx = bisect_left(self._points, (h, -1))
        if idx == len(self._points):
            idx = 0  # wrap past the top of the ring
        return self._points[idx][1]
