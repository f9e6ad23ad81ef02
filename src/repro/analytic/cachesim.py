"""Timing-free cache simulators.

These replay a trace through the *policy* layer only — no event engine,
no concurrency, no hardware costs — and report hit rates.  They serve
three purposes:

1. **Speed**: hit-rate curves over full-size traces (500k+ requests) in
   seconds, where the full simulator would need minutes per point.
2. **Validation**: the full simulator's hit rates must track these
   sequential-semantics numbers (the residual gap is concurrency:
   coalescing, in-flight races) — a strong cross-check used in tests.
3. **Exploration**: policy questions (KMC vs basic, forwarding on/off)
   answered without re-running hardware simulations.

Requests walk the cluster round-robin, mirroring RR DNS.
"""

from __future__ import annotations


from ..cache.block import BlockId, FileLayout
from ..cache.blockcache import BlockCache
from ..cache.directory import GlobalDirectory
from ..core.policies import select_victim
from ..press.filecache import FileCache, ReplicaDirectory
from ..sim.stats import hit_fractions
from ..traces.model import Trace

__all__ = ["AnalyticCoopCache", "AnalyticPress"]


class AnalyticCoopCache:
    """Sequential-semantics cooperative caching (CC-Basic / CC-KMC)."""

    def __init__(
        self,
        num_nodes: int,
        layout: FileLayout,
        capacity_blocks: int,
        policy: str = "kmc",
        forward_on_evict: bool = True,
    ):
        if num_nodes < 1:
            raise ValueError("need at least one node")
        self.num_nodes = num_nodes
        self.layout = layout
        self.policy = policy
        self.forward_on_evict = forward_on_evict
        self.caches: list[BlockCache] = [
            BlockCache(i, capacity_blocks) for i in range(num_nodes)
        ]
        self.directory = GlobalDirectory()
        self._clock = 0.0
        self.counts = {"local": 0, "remote": 0, "disk": 0}

    # -- protocol (sequential) ---------------------------------------------
    def access(self, node_id: int, file_id: int) -> None:
        """One whole-file request at ``node_id``."""
        for blk in self.layout.blocks(file_id):
            self._clock += 1.0
            self._access_block(node_id, blk)

    def _access_block(self, node_id: int, blk: BlockId) -> None:
        cache = self.caches[node_id]
        if blk in cache:
            self.counts["local"] += 1
            cache.touch(blk, self._clock)
            return
        holder = self.directory.lookup(blk)
        if holder is not None and holder != node_id:
            self.counts["remote"] += 1
            self.caches[holder].touch(blk, self._clock)
            self._insert(node_id, blk, master=False)
            return
        self.counts["disk"] += 1
        self._insert(node_id, blk, master=True)

    def _insert(self, node_id: int, blk: BlockId, *, master: bool) -> None:
        cache = self.caches[node_id]
        if cache.is_full:
            self._evict_one(node_id)
        cache.insert(blk, master=master, age=self._clock)
        if master:
            self.directory.set_master(blk, node_id)

    def _evict_one(self, node_id: int) -> None:
        cache = self.caches[node_id]
        blk, age, is_master = select_victim(self.policy, cache)  # type: ignore[misc]
        cache.remove(blk)
        if not is_master:
            return
        if not self.forward_on_evict:
            self.directory.clear_master(blk)
            return
        target = self._oldest_peer(node_id, age)
        if target is None:
            self.directory.clear_master(blk)
            return
        dst = self.caches[target]
        if dst.oldest_age() >= age:
            self.directory.clear_master(blk)
            return
        if blk in dst:
            if not dst.is_master(blk):
                dst.promote_to_master(blk)
            self.directory.set_master(blk, target)
            return
        if dst.is_full:
            old_blk, _a, was_master = dst.oldest()  # type: ignore[misc]
            dst.remove(old_blk)
            if was_master:
                self.directory.clear_master(old_blk)
        dst.insert(blk, master=True, age=age)
        self.directory.set_master(blk, target)

    def _oldest_peer(self, node_id: int, victim_age: float) -> int | None:
        best, best_age = None, victim_age
        for cache in self.caches:
            if cache.node_id == node_id:
                continue
            age = cache.oldest_age()
            if age < best_age:
                best, best_age = cache.node_id, age
        return best

    # -- harness ------------------------------------------------------------
    def run(self, trace: Trace, warmup_frac: float = 0.25) -> dict[str, float]:
        """Replay ``trace`` (round-robin nodes); post-warm-up hit rates."""
        if not 0.0 <= warmup_frac < 1.0:
            raise ValueError("warmup_frac must be in [0, 1)")
        warm = int(trace.num_requests * warmup_frac)
        for i, file_id in enumerate(trace.requests):
            if i == warm:
                self.counts = {"local": 0, "remote": 0, "disk": 0}
            self.access(i % self.num_nodes, int(file_id))
        return self.hit_rates()

    def hit_rates(self) -> dict[str, float]:
        """Block-level local/remote/disk fractions since the last reset."""
        counts = self.counts
        return hit_fractions(counts["local"], counts["remote"], counts["disk"])


class AnalyticPress:
    """Sequential-semantics PRESS (content-aware, no load modeling)."""

    def __init__(
        self,
        num_nodes: int,
        layout: FileLayout,
        capacity_kb: float,
    ):
        if num_nodes < 1:
            raise ValueError("need at least one node")
        self.num_nodes = num_nodes
        self.layout = layout
        self.directory = ReplicaDirectory()
        self.caches = [
            FileCache(i, capacity_kb, self.directory) for i in range(num_nodes)
        ]
        self._rr = 0
        self.counts = {"local": 0, "remote": 0, "disk": 0}

    def access(self, node_id: int, file_id: int) -> None:
        """One whole-file request entering at ``node_id``."""
        nblocks = self.layout.num_blocks(file_id)
        holders = self.directory.holders(file_id)
        if node_id in holders:
            self.counts["local"] += nblocks
            self.caches[node_id].touch(file_id)
            return
        if holders:
            self.counts["remote"] += nblocks
            target = min(holders)  # no load info: deterministic pick
            self.caches[target].touch(file_id)
            return
        self.counts["disk"] += nblocks
        # Without load data, adoption rotates round-robin (RR-DNS spread).
        target = self._rr % self.num_nodes
        self._rr += 1
        cache = self.caches[target]
        size_kb = self.layout.size_kb(file_id)
        if cache.fits(size_kb):
            cache.insert(file_id, size_kb)

    def run(self, trace: Trace, warmup_frac: float = 0.25) -> dict[str, float]:
        """Replay ``trace``; post-warm-up hit rates."""
        if not 0.0 <= warmup_frac < 1.0:
            raise ValueError("warmup_frac must be in [0, 1)")
        warm = int(trace.num_requests * warmup_frac)
        for i, file_id in enumerate(trace.requests):
            if i == warm:
                self.counts = {"local": 0, "remote": 0, "disk": 0}
            self.access(i % self.num_nodes, int(file_id))
        return self.hit_rates()

    def hit_rates(self) -> dict[str, float]:
        """Block-weighted hit fractions since the last reset."""
        counts = self.counts
        return hit_fractions(counts["local"], counts["remote"], counts["disk"])
