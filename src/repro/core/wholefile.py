"""Whole-file adaptation of the cooperative caching middleware.

Paper, Section 6: "We will also investigate how to parameterize [the
layer] so that it can be adapted to particular applications.  For
example, we will investigate whether [it] can easily be adapted for
servers that always use whole files (e.g., a web server) and whether such
an adaptation would improve performance."

:class:`WholeFileCoopServer` is that adaptation: the Section 3 protocol
verbatim, with the caching unit changed from an 8 KB block to a whole
file.  Master file copies, a global directory, peer fetches of whole
files, and KMC-style replacement (evict replica files first; forward an
evicted master file to the peer with the oldest file) all carry over.
Ablation A3 compares it against the block-based layer.

It implements the same service interface as
:class:`~repro.web.server.CoopCacheWebServer`, so the closed-loop driver
runs it unchanged.
"""

from __future__ import annotations

from collections.abc import Generator

from ..cache.block import FileLayout
from ..cache.directory import HomeMap
from ..cache.lru import AgedLRU
from ..cluster.cluster import Cluster
from ..cluster.disk import DiskRequest
from ..cluster.node import Node
from ..sim.engine import Event
from ..sim.stats import CounterSet
from .middleware import REQUEST_MSG_KB

__all__ = ["WholeFileCoopServer", "WholeFileCache"]


class WholeFileCache:
    """One node's memory as an aged set of whole files (KB-budgeted)."""

    __slots__ = ("node_id", "capacity_kb", "used_kb", "_masters",
                 "_replicas", "_sizes")

    def __init__(self, node_id: int, capacity_kb: float) -> None:
        if capacity_kb <= 0:
            raise ValueError("capacity must be positive")
        self.node_id = node_id
        self.capacity_kb = capacity_kb
        self.used_kb = 0.0
        self._masters = AgedLRU()
        self._replicas = AgedLRU()
        self._sizes: dict[int, float] = {}

    def __contains__(self, file_id: int) -> bool:
        return file_id in self._sizes

    def __len__(self) -> int:
        return len(self._sizes)

    def is_master(self, file_id: int) -> bool:
        """True if this node holds the file's master copy."""
        return file_id in self._masters

    def fits(self, size_kb: float) -> bool:
        """Could the file ever be cached here?"""
        return size_kb <= self.capacity_kb

    def touch(self, file_id: int, now: float) -> None:
        """Refresh a resident file's age."""
        (self._masters if file_id in self._masters else self._replicas).touch(
            file_id, now
        )

    def insert(self, file_id: int, size_kb: float, *, master: bool,
               age: float) -> None:
        """Add a file; caller must have made room first."""
        if file_id in self._sizes:
            raise KeyError(f"file {file_id} already cached")
        if self.used_kb + size_kb > self.capacity_kb:
            raise ValueError("insert without room")
        (self._masters if master else self._replicas).add(file_id, age)
        self._sizes[file_id] = size_kb
        self.used_kb += size_kb

    def remove(self, file_id: int) -> tuple[float, bool]:
        """Drop a resident file; returns (size_kb, was_master)."""
        size = self._sizes.pop(file_id)
        self.used_kb -= size
        if file_id in self._masters:
            self._masters.remove(file_id)
            return size, True
        self._replicas.remove(file_id)
        return size, False

    def oldest_age(self) -> float:
        """Age of the oldest resident file; +inf when empty."""
        return min(self._masters.oldest_age(), self._replicas.oldest_age())

    def select_victim(self) -> tuple[int, float, bool] | None:
        """KMC at file granularity: oldest replica first, else oldest
        master; (file_id, age, is_master) or None when empty."""
        rep = self._replicas.oldest()
        if rep is not None:
            return (rep[0], rep[1], False)
        mas = self._masters.oldest()
        if mas is not None:
            return (mas[0], mas[1], True)
        return None


class WholeFileCoopServer:
    """Web service over file-granularity cooperative caching."""

    def __init__(
        self,
        cluster: Cluster,
        layout: FileLayout,
        homes: HomeMap,
        capacity_kb: float,
    ) -> None:
        self.cluster = cluster
        self.sim = cluster.sim
        self.params = cluster.params
        self.layout = layout
        self.homes = homes
        self.caches: list[WholeFileCache] = [
            WholeFileCache(n.node_id, capacity_kb) for n in cluster.nodes
        ]
        #: file -> node currently holding the master copy.
        self.directory: dict[int, int] = {}
        self.counters = CounterSet()
        # file -> completion event of an in-flight fetch at (node, file).
        self._inflight: dict[tuple[int, int], Event] = {}

    # ------------------------------------------------------------------
    def handle(self, node: Node, file_id: int) -> Generator[Event, object, str]:
        """Process one GET at ``node`` (same interface as the web server).

        Returns the request's service class for per-class accounting.
        """
        cpu = self.params.cpu
        nblocks = self.layout.num_blocks(file_id)
        yield node.cpu.submit(cpu.parse_ms)
        yield node.cpu.submit(cpu.file_request_ms(nblocks))

        cache = self.caches[node.node_id]
        if file_id in cache:
            service_class = "local"
            self.counters.incr("local_hit", nblocks)
            cache.touch(file_id, self.sim.now)
        else:
            pending = self._inflight.get((node.node_id, file_id))
            if pending is not None:
                service_class = "coalesced"
                self.counters.incr("coalesced", nblocks)
                yield pending
            else:
                done = self.sim.event()
                self._inflight[(node.node_id, file_id)] = done
                try:
                    service_class = yield from self._fetch(node, file_id)
                finally:
                    del self._inflight[(node.node_id, file_id)]
                    done.succeed()

        size_kb = self.layout.size_kb(file_id)
        yield node.cpu.submit(cpu.serve_ms(size_kb))
        yield node.nic.submit(self.params.network.transfer_ms(size_kb))
        return service_class

    # ------------------------------------------------------------------
    def _fetch(self, node: Node, file_id: int) -> Generator[Event, object, str]:
        """Pull the file to ``node``; returns "remote" or "disk"."""
        nblocks = self.layout.num_blocks(file_id)
        size_kb = self.layout.size_kb(file_id)
        holder = self.directory.get(file_id)
        net = self.cluster.network
        if holder is not None and holder != node.node_id:
            peer = self.cluster.nodes[holder]
            yield from net.transfer(node, peer, REQUEST_MSG_KB)
            if file_id in self.caches[holder]:
                self.counters.incr("remote_hit", nblocks)
                self.caches[holder].touch(file_id, self.sim.now)
                yield peer.cpu.submit(
                    self.params.cpu.serve_peer_block_ms * nblocks
                )
                yield from net.transfer(peer, node, size_kb)
                yield node.cpu.submit(self.params.cpu.cache_block_ms * nblocks)
                self._install(node.node_id, file_id, master=False)
                return "remote"
            # Stale location (master evicted mid-flight): fall through.
        home = self.cluster.nodes[self.homes.home_of(file_id)]
        if home.node_id != node.node_id:
            yield from net.transfer(node, home, REQUEST_MSG_KB)
        self.counters.incr("disk_read", nblocks)
        runs = self._extent_runs(file_id)
        yield self.sim.all_of([home.disk.submit(r) for r in runs])
        yield home.bus.submit(self.params.bus.transfer_ms(size_kb))
        if home.node_id != node.node_id:
            yield home.cpu.submit(self.params.cpu.serve_peer_block_ms * nblocks)
            yield from net.transfer(home, node, size_kb)
        yield node.cpu.submit(self.params.cpu.cache_block_ms * nblocks)
        self._install(node.node_id, file_id, master=True)
        return "disk"

    def _extent_runs(self, file_id: int) -> list[DiskRequest]:
        params = self.params
        nblocks = self.layout.num_blocks(file_id)
        bpe = params.extent_kb // params.block_kb
        remaining = self.layout.size_kb(file_id)
        runs = []
        for ext in range(self.layout.num_extents(file_id)):
            chunk = min(remaining, float(params.extent_kb))
            start = ext * bpe
            runs.append(DiskRequest(file_id, ext, start,
                                    min(bpe, nblocks - start), chunk))
            remaining -= chunk
        return runs

    # ------------------------------------------------------------------
    def _install(self, node_id: int, file_id: int, *, master: bool) -> None:
        cache = self.caches[node_id]
        size_kb = self.layout.size_kb(file_id)
        if file_id in cache:
            cache.touch(file_id, self.sim.now)
            return
        if not cache.fits(size_kb):
            self.counters.incr("uncacheable")
            if master:
                self.directory.pop(file_id, None)
            return
        if master and self.directory.get(file_id) not in (None, node_id):
            master = False  # someone re-mastered it while we fetched
        while cache.used_kb + size_kb > cache.capacity_kb:
            self._evict_one(node_id)
        cache.insert(file_id, size_kb, master=master, age=self.sim.now)
        if master:
            self.directory[file_id] = node_id

    def _evict_one(self, node_id: int) -> None:
        cache = self.caches[node_id]
        victim = cache.select_victim()
        if victim is None:
            raise RuntimeError("eviction from empty cache")
        file_id, age, is_master = victim
        size_kb, _ = cache.remove(file_id)
        self.counters.incr("evictions")
        if not is_master:
            return
        target = self._oldest_peer(node_id, age, size_kb)
        if target is None:
            if self.directory.get(file_id) == node_id:
                del self.directory[file_id]
            return
        self.directory[file_id] = target
        self.counters.incr("forwards")
        self.sim.process(self._forward(node_id, target, file_id, age, size_kb))

    def _oldest_peer(self, node_id: int, age: float,
                     size_kb: float) -> int | None:
        best, best_age = None, age
        for cache in self.caches:
            if cache.node_id == node_id or not cache.fits(size_kb):
                continue
            peer_age = cache.oldest_age()
            if peer_age < best_age:
                best, best_age = cache.node_id, peer_age
        return best

    def _forward(self, src_id: int, dst_id: int, file_id: int,
                 age: float, size_kb: float) -> Generator[Event, object, None]:
        src, dst = self.cluster.nodes[src_id], self.cluster.nodes[dst_id]
        yield from self.cluster.network.transfer(src, dst, size_kb)
        yield dst.cpu.submit(self.params.cpu.evicted_master_ms)
        if self.directory.get(file_id) != dst_id:
            self.counters.incr("forward_stale")
            return
        cache = self.caches[dst_id]
        if file_id in cache:
            if not cache.is_master(file_id):
                size, _ = cache.remove(file_id)
                cache.insert(file_id, size, master=True, age=age)
            return
        if cache.oldest_age() >= age:
            self.counters.incr("forward_dropped")
            del self.directory[file_id]
            return
        # Make room by dropping the destination's oldest files (no
        # cascaded forwarding, as in the block protocol).
        while cache.used_kb + size_kb > cache.capacity_kb:
            victim = cache.select_victim()
            if victim is None:  # pragma: no cover - fits() guards this
                del self.directory[file_id]
                return
            vf, _va, v_master = victim
            cache.remove(vf)
            self.counters.incr("forward_displaced")
            if v_master and self.directory.get(vf) == dst_id:
                del self.directory[vf]
        cache.insert(file_id, size_kb, master=True, age=age)
        self.counters.incr("forward_installed")

    # ------------------------------------------------------------------
    def reset_stats(self) -> None:
        """Discard warm-up counters."""
        self.counters.reset()

    def hit_rates(self) -> dict[str, float]:
        """Block-weighted hit fractions (same denominator as the others)."""
        c = self.counters
        total = c.get("local_hit") + c.get("remote_hit") + c.get("disk_read")
        if total == 0:
            return {"local": 0.0, "remote": 0.0, "disk": 0.0, "total": 0.0}
        return {
            "local": c.get("local_hit") / total,
            "remote": c.get("remote_hit") / total,
            "disk": c.get("disk_read") / total,
            "total": (c.get("local_hit") + c.get("remote_hit")) / total,
        }
