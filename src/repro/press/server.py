"""PRESS: the locality-conscious baseline server.

Our comparator is the paper's "highly optimized locality-conscious server
that uses content- and load-aware distribution" [5] (Bianchini & Carrera's
PRESS lineage).  Behaviour reproduced:

* **Content-aware dispatch**: "tries to migrate all requests for a
  particular file to a single node so that only one copy of each file is
  kept in cluster memory."  A request arriving (via RR DNS) at node *n*
  for file *f* is served at *n* if *n* caches *f*; otherwise it is
  forwarded to the least-loaded node caching *f*; if no node caches *f*,
  the least-loaded node reads it from its local disk (PRESS "assumes
  files are replicated everywhere" on disk) and becomes *f*'s caching
  node.
* **Load-aware replication**: "If a node becomes overloaded, however,
  [it] will replicate a subset of the files, sacrificing memory
  efficiency for load balancing."  When the serving node's load reaches
  :data:`REPLICATE_THRESHOLD` and a node at least
  :data:`REPLICATE_HEADROOM` jobs less loaded exists, the file is
  replicated there in the background.
* **De-replication** lives in :class:`~repro.press.filecache.FileCache`.
* **Reply relay**: a forwarded request's reply travels from the serving
  node back through the entry node, which answers the client.  The
  paper's PRESS uses TCP hand-off (the serving node answers directly,
  the ~7% advantage the paper grants it); this model does not.

Hit accounting is block-weighted (a hit on a 5-block file counts 5) so
Figure 4 compares PRESS and the middleware on the same denominator.
"""

from __future__ import annotations

from collections.abc import Generator

from ..cache.block import FileLayout
from ..cluster.cluster import Cluster
from ..cluster.node import Node
from ..obs.profile import NULL_PROFILER
from ..obs.tracing import NULL_TRACER, Span
from ..params import SimParams
from ..sim.engine import Event
from ..sim.faults import NULL_FAULTS
from ..sim.stats import CounterSet, block_hit_rates
from .filecache import FileCache, ReplicaDirectory

__all__ = ["PressServer"]

#: KB of an intra-cluster forward control message.
FORWARD_MSG_KB = 0.2
#: Serving-node load (queued jobs) at which PRESS considers a file hot
#: enough to replicate.
REPLICATE_THRESHOLD = 8
#: Minimum load gap to the replication target (prevents replication
#: storms between equally busy nodes).
REPLICATE_HEADROOM = 4


class PressServer:
    """Whole-file, content- and load-aware clustered web server."""

    def __init__(
        self,
        cluster: Cluster,
        layout: FileLayout,
        capacity_kb: float,
        obs=None,
        faults=None,
    ):
        self.cluster = cluster
        self.sim = cluster.sim
        self.params: SimParams = cluster.params
        self.layout = layout
        self.directory = ReplicaDirectory()
        #: Cache-behavior telemetry (no-op scope unless cachestats is on).
        from ..obs.cachestats import NULL_CACHESCOPE

        self.scope = getattr(obs, "cachescope", None) or NULL_CACHESCOPE
        cache_scope = self.scope if self.scope.active else None
        self.caches: list[FileCache] = [
            FileCache(node.node_id, capacity_kb, self.directory,
                      scope=cache_scope)
            for node in cluster.nodes
        ]
        self.counters = CounterSet()
        #: Request tracer (no-op unless an Observability bundle is given).
        self.tracer = obs.tracer if obs is not None else NULL_TRACER
        self.prof = getattr(obs, "profiler", NULL_PROFILER) or NULL_PROFILER
        self._registry = obs.registry if obs is not None else None
        self.faults = faults if faults is not None else NULL_FAULTS
        if self.faults.active:
            self.faults.crash_listeners.append(self._on_node_crash)
        if obs is not None:
            self.counters.bind(obs.registry, "press")
            for cache in self.caches:
                cache.bind_metrics(obs.registry)
            obs.registry.gauge(
                "press.resident_files", self.resident_files
            )
        # file_id -> (adopting node id, completion event): requests for a
        # file already being read from disk queue at the adopting node
        # instead of issuing duplicate reads (PRESS funnels all requests
        # for a file to one node, so concurrent misses pile up there).
        self._adopting: dict = {}

    # ------------------------------------------------------------------
    # dispatch
    # ------------------------------------------------------------------
    def handle(
        self, node: Node, file_id: int, parent=None
    ) -> Generator[Event, object, str]:
        """Coroutine: fully process one GET for ``file_id`` entering at
        ``node`` (the RR-DNS choice).

        Returns the request's service class ("local" / "remote" /
        "coalesced" / "disk") for per-class response accounting.
        ``parent`` is the caller's span (the client driver's, when
        profiling).
        """
        cpu = self.params.cpu
        span = self.tracer.start(
            "request", parent=parent, node=node.node_id, file=file_id
        )
        yield self.prof.wait(span, node.node_id, "cpu",
                             node.cpu.submit(cpu.parse_ms))
        service_class = yield from self._dispatch(node, file_id, span)
        if self.faults.active and self.faults.is_down(node.node_id):
            # Entry node crashed mid-request: fail-stop took the client
            # connection with it — the request fails, loudly.
            self.faults.counters.incr("press_requests_lost")
            span.finish(cls="failed", error=True)
            if self._registry is not None:
                self._registry.counter("requests_failed").incr()
            return "failed"
        return self._finish(span, service_class)

    def _dispatch(
        self, node: Node, file_id: int, span: Span
    ) -> Generator[Event, object, str]:
        """Route and serve one request; returns its service class."""
        cpu = self.params.cpu
        faults = self.faults
        nblocks = self.layout.num_blocks(file_id)
        holders = self.directory.holders(file_id)
        if faults.active:
            # Crash repair purges a dead node's entries synchronously, so
            # holders are normally all alive; the filter also covers a
            # holder behind a dropped link.
            holders = frozenset(
                h for h in holders
                if not faults.is_down(h)
                and faults.link_ok(node.node_id, h)
            )

        if node.node_id in holders:
            self.counters.incr("local_hit", nblocks)
            yield from self._serve_from_memory(node, node, file_id,
                                               parent=span)
            return "local"

        if holders:
            target = self.cluster.nodes[self._least_loaded(holders)]
            self.counters.incr("remote_hit", nblocks)
            self.counters.incr("forwarded_requests")
            yield from self._forward_and_serve(node, target, file_id,
                                               from_disk=False, parent=span)
            return "remote"

        pending = self._adopting.get(file_id)
        if pending is not None:
            # Another request is already pulling this file off disk: queue
            # at the adopting node and serve once the read lands.
            target_id, done = pending
            self.counters.incr("coalesced", nblocks)
            self.tracer.point(
                "coalesce", parent=span, node=node.node_id, target=target_id
            )
            target = self.cluster.nodes[target_id]
            if target_id != node.node_id:
                self.counters.incr("forwarded_requests")
                yield self.prof.wait(
                    span, node.node_id, "cpu",
                    node.cpu.submit(cpu.forward_request_ms),
                )
                yield from self.cluster.network.transfer(
                    node, target, FORWARD_MSG_KB,
                    prof=self.prof, parent=span,
                )
            if not done.processed:
                yield self.prof.wait(
                    span, node.node_id, "coalesce_wait", done
                )
            if faults.active and faults.is_down(target_id):
                # The adopting node died before the file could be
                # served from it: every disk holds every file, so the
                # entry node reads its own copy instead.
                yield from self._failover_to_local_disk(node, file_id, span)
                return "coalesced"
            yield from self._serve_from_memory(target, node, file_id,
                                               parent=span)
            return "coalesced"

        # Cached nowhere: the least-loaded node reads it from its local disk
        # (files are replicated on every node's disk) and adopts the file.
        if faults.active:
            alive = [n.node_id for n in self.cluster.nodes if n.up]
            target_id = self._least_loaded(alive or [node.node_id])
        else:
            target_id = self._least_loaded(range(len(self.cluster)))
        self.counters.incr("disk_read", nblocks)
        if target_id == node.node_id:
            yield from self._read_from_disk(node, file_id, parent=span)
            yield from self._serve_from_memory(node, node, file_id,
                                               parent=span)
        else:
            self.counters.incr("forwarded_requests")
            yield from self._forward_and_serve(
                node, self.cluster.nodes[target_id], file_id,
                from_disk=True, parent=span,
            )
        return "disk"

    def _failover_to_local_disk(
        self, node: Node, file_id: int, span: Span | None
    ) -> Generator[Event, object, None]:
        """Serve ``file_id`` from the entry node's own disk after the
        chosen serving node failed (PRESS replicates files on every
        disk, so a local read is always possible)."""
        self.faults.counters.incr("press_failovers")
        yield self.prof.wait(
            span, node.node_id, "fault_detect",
            self.sim.timeout(self.params.faults.detect_timeout_ms),
        )
        yield from self._read_from_disk(node, file_id, parent=span)
        yield from self._serve_from_memory(node, node, file_id, parent=span)

    def _finish(self, span: Span, service_class: str) -> str:
        """Close a request span and count its class in the registry."""
        span.finish(cls=service_class)
        if self._registry is not None:
            self._registry.counter(f"requests_{service_class}").incr()
        return service_class

    def _forward_and_serve(
        self, entry: Node, target: Node, file_id: int, *, from_disk: bool,
        parent: Span | None = None,
    ) -> Generator[Event, object, None]:
        """Hand the request from ``entry`` to ``target`` and serve it."""
        cpu = self.params.cpu
        span = self.tracer.start(
            "forward", parent=parent, node=entry.node_id,
            target=target.node_id,
        )
        yield self.prof.wait(
            span, entry.node_id, "cpu",
            entry.cpu.submit(cpu.forward_request_ms),
        )
        yield from self.cluster.network.transfer(
            entry, target, FORWARD_MSG_KB, prof=self.prof, parent=span
        )
        if self.faults.active and (
            self.faults.is_down(target.node_id)
            or not self.faults.link_ok(entry.node_id, target.node_id)
        ):
            # Target died (or vanished behind a dropped link) while the
            # forward was in flight: the entry node serves from its own
            # disk copy instead.
            yield from self._failover_to_local_disk(entry, file_id, span)
            span.finish(failover=True)
            return
        if from_disk:
            yield from self._read_from_disk(target, file_id, parent=span)
        # Relay: the serving node sends to the entry node, which replies.
        yield from self._serve_from_memory(target, entry, file_id,
                                           parent=span)
        span.finish()

    # ------------------------------------------------------------------
    # data paths
    # ------------------------------------------------------------------
    def _serve_from_memory(
        self, server: Node, reply_via: Node, file_id: int,
        parent: Span | None = None,
    ) -> Generator[Event, object, None]:
        """Serve a resident file and consider replication."""
        prof = self.prof
        cache = self.caches[server.node_id]
        if file_id in cache:
            cache.touch(file_id)
        size_kb = self.layout.size_kb(file_id)
        yield prof.wait(
            parent, server.node_id, "cpu",
            server.cpu.submit(self.params.cpu.serve_ms(size_kb)),
        )
        if reply_via.node_id != server.node_id:
            yield from self.cluster.network.transfer(
                server, reply_via, size_kb, prof=prof, parent=parent
            )
            yield prof.wait(
                parent, reply_via.node_id, "cpu",
                reply_via.cpu.submit(self.params.cpu.forward_request_ms),
            )
        yield prof.wait(
            parent, reply_via.node_id, "nic",
            reply_via.nic.submit(self.params.network.transfer_ms(size_kb)),
        )
        self._maybe_replicate(server, file_id)

    def _read_from_disk(
        self, node: Node, file_id: int, parent: Span | None = None
    ) -> Generator[Event, object, None]:
        """Whole-file read from ``node``'s local disk + cache adoption."""
        done = self.sim.event()
        self._adopting[file_id] = (node.node_id, done)
        span = self.tracer.start(
            "disk_read", parent=parent, node=node.node_id, file=file_id
        )
        try:
            size_kb = self.layout.size_kb(file_id)
            runs = self.layout.extent_runs(file_id)
            # Extent reads go to the disk queue in parallel; one disk
            # phase span summarizes their combined queue/seek/transfer.
            run_events = [node.disk.submit(run) for run in runs]
            yield self.prof.disk_wait(
                span, node.node_id, self.sim.all_of(run_events), run_events
            )
            yield self.prof.wait(
                span, node.node_id, "bus",
                node.bus.submit(self.params.bus.transfer_ms(size_kb)),
            )
            self._cache_file(node.node_id, file_id)
            span.finish(runs=len(runs))
        finally:
            self._adopting.pop(file_id, None)
            done.succeed()

    def _cache_file(self, node_id: int, file_id: int) -> None:
        """Adopt a file into a node's memory (if it can ever fit)."""
        if self.faults.active and self.faults.is_down(node_id):
            # The adopter crashed while the read was in flight: caching
            # there would point the replica directory at lost memory.
            self.faults.counters.incr("press_installs_dropped")
            return
        cache = self.caches[node_id]
        if file_id in cache:
            cache.touch(file_id)
            return
        size_kb = self.layout.size_kb(file_id)
        if not cache.fits(size_kb):
            self.counters.incr("uncacheable")
            return
        evicted = cache.insert(file_id, size_kb)
        for victim in evicted:
            self.scope.on_evict(node_id, victim, False, 0, "drop")
        self.counters.incr("evictions", len(evicted))

    # ------------------------------------------------------------------
    # load management
    # ------------------------------------------------------------------
    def _least_loaded(self, node_ids) -> int:
        """Lowest-load node id (ties break to the lowest id)."""
        return min(node_ids, key=lambda i: (self.cluster.nodes[i].load, i))

    def _maybe_replicate(self, server: Node, file_id: int) -> None:
        """Load-aware replication of a hot file off an overloaded node."""
        if server.load < REPLICATE_THRESHOLD:
            return
        candidates = [
            n.node_id
            for n in self.cluster.nodes
            if n.node_id not in self.directory.holders(file_id)
            and (not self.faults.active or n.up)
        ]
        if not candidates:
            return
        target_id = self._least_loaded(candidates)
        if self.cluster.nodes[target_id].load > server.load - REPLICATE_HEADROOM:
            return
        size_kb = self.layout.size_kb(file_id)
        if not self.caches[target_id].fits(size_kb):
            return
        self.counters.incr("replications")
        self.sim.process(self._replicate(server, target_id, file_id))

    def _replicate(
        self, src: Node, dst_id: int, file_id: int
    ) -> Generator[Event, object, None]:
        """Background copy of a hot file to a lightly loaded node."""
        dst = self.cluster.nodes[dst_id]
        size_kb = self.layout.size_kb(file_id)
        # Background activity: its own root span, like middleware forwards.
        span = self.tracer.start(
            "replicate", node=src.node_id, dst=dst_id, file=file_id
        )
        yield src.cpu.submit(self.params.cpu.serve_peer_block_ms)
        yield from self.cluster.network.transfer(src, dst, size_kb)
        yield dst.cpu.submit(self.params.cpu.cache_block_ms
                             * self.layout.num_blocks(file_id))
        if file_id not in self.caches[dst_id]:
            self._cache_file(dst_id, file_id)
        span.finish()

    # ------------------------------------------------------------------
    # fault handling (fail-stop; DESIGN.md S14)
    # ------------------------------------------------------------------
    def _on_node_crash(self, node_id: int) -> None:
        """Fail-stop crash: the node's whole-file cache is lost.

        Runs synchronously inside the crash event.  Dropping through
        :meth:`FileCache.clear` keeps the replica directory in sync, so
        content-aware dispatch stops routing at the dead node the
        instant it dies; files whose only copy lived there are re-read
        from any surviving disk on the next request.
        """
        cache = self.caches[node_id]
        if self.scope.active:
            for file_id in cache.lru_order():
                self.scope.on_evict(node_id, file_id, False, 0, "crash")
        lost = cache.clear()
        self.faults.counters.incr("press_files_lost", lost)

    # ------------------------------------------------------------------
    # measurement interface
    # ------------------------------------------------------------------
    def reset_stats(self) -> None:
        """Discard warm-up counters (cache contents are kept)."""
        self.counters.reset()

    def hit_rates(self):
        """Block-weighted hit fractions on the Figure 4 denominator."""
        return block_hit_rates(self.counters)

    def resident_files(self) -> int:
        """Whole files currently in cluster memory (copies counted once)."""
        return sum(1 for _ in self.directory.cached_files())
