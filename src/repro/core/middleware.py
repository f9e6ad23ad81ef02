"""The cooperative caching middleware layer (the paper's contribution).

:class:`CoopCacheLayer` manages the memories of all cluster nodes as one
aggregate block cache.  The protocol, from Section 3 of the paper:

* When a block is read from disk it becomes the **master copy**; a global
  directory records where each master lives.
* A request for block *b* at node *n*:

  1. *n* holds a copy → **local hit**, serve immediately.
  2. the directory locates master at peer *m* → *n* requests a
     **non-master copy** from *m* (network round trip, peer CPU), caches
     it, serves → **remote (global) hit**.
  3. no master in memory → *n* asks *b*'s **home node** to read it from
     disk and forward the master; the directory now points at *n*.

* Eviction (cache full): the policy picks a victim
  (:mod:`repro.core.policies`).  A non-master victim is dropped.  A
  master victim is dropped if it is the globally oldest block; otherwise
  it is **forwarded** to the peer holding the oldest block, which drops
  its own oldest block to make room.  Forwarded blocks keep their age,
  never cascade further evictions, and are dropped on arrival if
  everything at the destination is younger.

The layer is service-agnostic: the web server (:mod:`repro.web`) and the
custom-service example both drive it through :meth:`CoopCacheLayer.read`.
Races the paper acknowledges — a master evicted while a peer request is
in flight — are handled by falling back to the home node's disk.
"""

from __future__ import annotations

from collections import defaultdict
from collections.abc import Callable, Generator
from typing import TYPE_CHECKING

from ..cache.block import BlockId, FileLayout
from ..cache.blockcache import BlockCache
from ..cache.directory import GlobalDirectory, HomeMap
from ..cluster.cluster import Cluster
from ..cluster.disk import DiskRequest
from ..cluster.node import Node
from ..obs.cachestats import NULL_CACHESCOPE
from ..obs.profile import NULL_PROFILER
from ..obs.tracing import NULL_TRACER, Span
from ..sim.engine import Event
from ..sim.faults import NULL_FAULTS, FaultInjector, NullFaultInjector, RequestAborted
from ..sim.stats import CounterSet, block_hit_rates
from .config import CoopCacheConfig
from .policies import select_victim

if TYPE_CHECKING:
    from ..obs import Observability

__all__ = ["CoopCacheLayer", "REQUEST_MSG_KB"]

#: Size of a control message (block request, forward notice), KB.
REQUEST_MSG_KB = 0.1


class CoopCacheLayer:
    """Block-based cooperative caching over a :class:`Cluster`.

    ``capacity_blocks`` is the per-node cache size.  All protocol methods
    are simulation coroutines (generators over events) so callers compose
    them into request flows.
    """

    def __init__(
        self,
        cluster: Cluster,
        layout: FileLayout,
        homes: HomeMap,
        capacity_blocks: int,
        config: CoopCacheConfig | None = None,
        directory: GlobalDirectory | None = None,
        obs: Observability | None = None,
        faults: FaultInjector | NullFaultInjector | None = None,
    ) -> None:
        if homes.num_nodes != len(cluster):
            raise ValueError("home map node count != cluster size")
        if homes.num_files != layout.num_files:
            raise ValueError("home map file count != layout file count")
        self.cluster = cluster
        self.sim = cluster.sim
        self.params = cluster.params
        self.layout = layout
        self.homes = homes
        self.config = config or CoopCacheConfig()
        #: Cache-behavior telemetry; the shared no-op scope unless the
        #: Observability bundle enabled ``cachestats``.  Purely passive
        #: (no sim events), so the event stream is identical either way.
        self.scope = getattr(obs, "cachescope", None) or NULL_CACHESCOPE
        cache_scope = self.scope if self.scope.active else None
        self.caches: list[BlockCache] = [
            BlockCache(node.node_id, capacity_blocks, scope=cache_scope)
            for node in cluster.nodes
        ]
        self.directory = directory if directory is not None else GlobalDirectory()
        if self.scope.active:
            self.scope.bind_layout(layout)
            self.scope.bind_directory(self.directory)
        #: Protocol event counters; block-level hits feed Figure 4.
        self.counters = CounterSet()
        #: Request tracer (no-op unless an Observability bundle is given).
        self.tracer = obs.tracer if obs is not None else NULL_TRACER
        #: Critical-path profiler (no-op unless profiling was requested).
        self.prof = getattr(obs, "profiler", NULL_PROFILER) or NULL_PROFILER
        #: Fault injector; NULL_FAULTS (constant answers, no events) when
        #: no chaos plan is installed, so fault paths cost one attribute
        #: read and the fault-free event stream is untouched.
        self.faults = faults if faults is not None else NULL_FAULTS
        if self.faults.active:
            self.faults.crash_listeners.append(self._on_node_crash)
            self.faults.restart_listeners.append(self._on_node_restart)
        if obs is not None:
            self.counters.bind(obs.registry, "coopcache")
            obs.registry.gauge("coopcache.resident_blocks",
                               self.resident_blocks)
        # Per-node in-flight fetch table: concurrent requests for a block
        # already being fetched join the existing fetch instead of issuing
        # a duplicate disk/peer read (standard request coalescing).
        self._inflight: list[dict[BlockId, Event]] = [
            {} for _ in cluster.nodes
        ]
        # Cluster-wide pending-master table: block -> completion event of
        # a disk read already fetching its master at some node.  The
        # paper's "perfect, zero-cost" directory naturally knows about
        # reads in progress; a requester waits for the pending read and
        # then fetches the fresh master from its new holder instead of
        # issuing a duplicate disk read.
        self._pending_master: dict[BlockId, Event] = {}
        # Hint exchange piggybacks on control messages (Sarkar & Hartman's
        # measured 0.4% overhead); perfect directories pay nothing.
        from .hints import HINT_TRAFFIC_OVERHEAD, HintDirectory

        if isinstance(self.directory, HintDirectory):
            self._msg_kb = REQUEST_MSG_KB * (1.0 + HINT_TRAFFIC_OVERHEAD)
            self._route = self.directory.route_lookup
        else:
            self._msg_kb = REQUEST_MSG_KB
            self._route = self.directory.lookup

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def read(
        self, node: Node, file_id: int, span: Span | None = None
    ) -> Generator[Event, object, None]:
        """Coroutine: make every block of ``file_id`` readable at ``node``.

        Charges the Table 1 block-operation costs along the way and
        returns once all blocks have been served locally, fetched from
        peers, or read from disk.  This is the middleware's whole public
        read path; a service that reads byte ranges can call
        :meth:`read_blocks` directly.  ``span`` is the request's trace
        span (if the caller traces).
        """
        blocks = list(self.layout.blocks(file_id))
        return (yield from self.read_blocks(node, blocks, span=span))

    def read_blocks(
        self, node: Node, blocks: list[BlockId], span: Span | None = None
    ) -> Generator[Event, object, str]:
        """Coroutine: ensure ``blocks`` are served through ``node``.

        Returns the request's service class — ``"local"`` (every block
        already resident), ``"remote"`` (peer memory involved, no disk)
        or ``"disk"`` (at least one block came off a disk) — which the
        measurement harness uses for per-class response-time breakdowns
        (the paper's Figure 5 discussion attributes the middleware's
        latency premium to exactly these classes).
        """
        # "Process a file request": per-block bookkeeping on the CPU.
        yield from self.prof.wait(
            span, node.node_id, "cpu",
            node.cpu.submit(self.params.cpu.file_request_ms(len(blocks))),
        )

        local, joined, by_peer, by_home = self._classify(node, blocks, span)

        # The cache probe's outcome, as one point event on the trace.
        self.tracer.point(
            "probe", parent=span, node=node.node_id,
            n=len(blocks), local=len(local), joined=len(joined),
            peers=len(by_peer), homes=len(by_home),
        )

        for blk in local:
            self.counters.incr("local_hit")
            self.caches[node.node_id].touch(blk, self.sim.now)

        fetches = list(joined)
        # simlint: ordered -- by_peer/by_home are populated by one pass
        # over the request's block list, so insertion (= fan-out) order
        # is the deterministic block order of the request.
        for peer_id, wanted in by_peer.items():
            fetches.append(
                self._spawn_fetch(
                    node, wanted,
                    self._fetch_from_peer(node, peer_id, wanted, parent=span),
                )
            )
        # simlint: ordered -- same single deterministic pass as by_peer.
        for home_id, wanted in by_home.items():
            proc = self._spawn_fetch(
                node, wanted,
                self._fetch_from_disk(node, home_id, wanted, parent=span),
            )
            # Publish the pending reads *synchronously*: requests at
            # other nodes classified at this same instant must see them
            # (the disk fetch coroutine itself only starts a kernel step
            # later, which would be too late).
            registered = [
                blk for blk in wanted if blk not in self._pending_master
            ]
            for blk in registered:
                self._pending_master[blk] = proc
            if registered:
                proc.callbacks.append(
                    self._make_pending_cleanup(registered, proc)
                )
            fetches.append(proc)
        if fetches:
            # Parallel fan-out: the analyzer refines this wait by walking
            # the child fetch spans backward along the critical path.
            yield from self.prof.wait(
                span, node.node_id, "fetch", self.sim.all_of(fetches),
                d=len(by_home), pe=len(by_peer), j=len(joined),
            )
        if self.faults.active and self.faults.is_down(node.node_id):
            # The serving node crashed while this request was in flight:
            # fail-stop took its connection state with it, so the request
            # fails explicitly even though peers may have done work for it.
            self.faults.counters.incr("requests_lost_to_crash")
            raise RequestAborted(
                f"serving node {node.node_id} crashed mid-request"
            )
        if by_home:
            return "disk"
        if by_peer or joined:
            return "remote"
        return "local"

    def _make_pending_cleanup(
        self, blocks: list[BlockId], proc: Event
    ) -> Callable[[Event], None]:
        """Callback clearing pending-master entries when a fetch ends."""

        def cleanup(_ev: Event) -> None:
            for blk in blocks:
                if self._pending_master.get(blk) is proc:
                    del self._pending_master[blk]

        return cleanup

    def _spawn_fetch(
        self, node: Node, blocks: list[BlockId],
        gen: Generator[Event, object, None],
    ) -> Event:
        """Start a fetch coroutine and register its blocks as in flight."""
        proc = self.sim.process(self._tracked(node.node_id, blocks, gen))
        table = self._inflight[node.node_id]
        for blk in blocks:
            table[blk] = proc
        return proc

    def _tracked(
        self, node_id: int, blocks: list[BlockId],
        gen: Generator[Event, object, None],
    ) -> Generator[Event, object, None]:
        """Run ``gen`` and clear the in-flight entries when it finishes."""
        try:
            yield from gen
        finally:
            table = self._inflight[node_id]
            for blk in blocks:
                table.pop(blk, None)

    # ------------------------------------------------------------------
    # fault handling (fail-stop model; DESIGN.md S14)
    # ------------------------------------------------------------------
    def _on_node_crash(self, node_id: int) -> None:
        """Directory repair for a fail-stop crash.

        Runs synchronously *inside* the crash event (before any other
        process can observe the dead node): the node's memory is cleared,
        every directory entry naming it is purged, and for each purged
        master the youngest surviving replica — if any — is re-elected in
        place (promote + directory update, no data movement: the replica
        *is* the data).  Blocks with no surviving replica simply leave
        cluster memory; the next reader re-creates the master from disk.
        Dirty masters lose their unwritten modifications — that is the
        data loss fail-stop implies, and it is counted, not hidden.
        """
        cache = self.caches[node_id]
        dirty_lost = cache.num_dirty
        if self.scope.active:
            masters_before = set(cache.masters())
            nm_before = cache.num_nonmasters
        lost = cache.clear()
        if self.scope.active:
            for blk in lost:
                self.scope.on_evict(
                    node_id, blk, blk in masters_before, nm_before, "crash"
                )
        purged = self.directory.purge_node(node_id)
        reelected = 0
        for blk in purged:
            target = self._youngest_replica(blk, exclude=node_id)
            if target is None:
                # The master died with no surviving replica: it leaves
                # cluster memory until the next disk read re-creates it.
                self.scope.on_master_exit(blk)
                continue
            self.caches[target].promote_to_master(blk)
            self.directory.set_master(blk, target)
            reelected += 1
        fc = self.faults.counters
        fc.incr("cc_blocks_lost", len(lost))
        fc.incr("cc_masters_purged", len(purged))
        fc.incr("cc_masters_reelected", reelected)
        if dirty_lost:
            fc.incr("cc_dirty_lost", dirty_lost)
        self.tracer.point(
            "fault_repair", node=node_id, lost=len(lost),
            purged=len(purged), reelected=reelected,
        )

    def _on_node_restart(self, node_id: int) -> None:
        """A restarted node rejoins cold.

        Nothing is re-registered here: the crash repair already moved or
        dropped its masters, and new ones appear only as blocks are
        re-fetched through the normal read paths (the recovery unit tests
        pin exactly this).
        """
        self.tracer.point("fault_recovery", node=node_id)

    def _youngest_replica(self, blk: BlockId, exclude: int) -> int | None:
        """Up node holding the youngest non-master copy of ``blk``.

        Deterministic re-election: youngest age wins (it is the most
        recently useful copy), ties break to the lowest node id.
        """
        best_id: int | None = None
        best_age = -1.0  # ages are sim timestamps, >= 0
        for cache in self.caches:
            nid = cache.node_id
            if nid == exclude or self.faults.is_down(nid):
                continue
            if blk in cache and not cache.is_master(blk):
                age = cache.age_of(blk)
                if age > best_age:
                    best_age = age
                    best_id = nid
        return best_id

    def _detect_fault(
        self, node: Node, span: Span | None
    ) -> Generator[Event, object, None]:
        """Coroutine: the fixed failure-detection wait.

        Detection is modeled as a timeout, not a live probe exchange, so
        it adds kernel events only when a fault is actually in the way.
        """
        self.faults.counters.incr("fault_detects")
        yield from self.prof.wait(
            span, node.node_id, "fault_detect",
            self.sim.timeout(self.params.faults.detect_timeout_ms),
        )

    def _await_home(
        self, node: Node, home_id: int, attempt: int, span: Span | None
    ) -> Generator[Event, object, int]:
        """Coroutine: wait (bounded) until ``home_id`` is reachable.

        Each round costs one detection timeout plus one capped,
        jittered backoff; past ``max_retries`` the request fails
        explicitly with :class:`RequestAborted` — degraded, never hung.
        Returns the updated attempt count.
        """
        faults = self.faults
        fparams = self.params.faults
        while faults.is_down(home_id) or not faults.link_ok(
            node.node_id, home_id
        ):
            if attempt >= fparams.max_retries:
                faults.counters.incr("aborted_requests")
                span.finish(error=True, aborted=True)
                raise RequestAborted(
                    f"home node {home_id} unreachable after {attempt} retries"
                )
            yield from self._detect_fault(node, span)
            delay = faults.backoff_ms(attempt)
            if delay > 0.0:
                yield from self.prof.wait(
                    span, node.node_id, "retry_wait", self.sim.timeout(delay)
                )
            faults.counters.incr("disk_retries")
            attempt += 1
        return attempt

    # ------------------------------------------------------------------
    # write path (paper Section 6 future work)
    # ------------------------------------------------------------------
    def write(
        self, node: Node, file_id: int, span: Span | None = None
    ) -> Generator[Event, object, None]:
        """Coroutine: write every block of ``file_id`` at ``node``.

        Write-invalidate, single-writer semantics:

        1. ``node`` acquires the **master** of each block (ownership
           transfer from the current holder, or creation for blocks with
           no in-memory master — writes are whole-block, so no
           read-modify-write disk fetch is needed);
        2. every replica at a peer is invalidated (one message per peer,
           per-block CPU at the peer);
        3. the write is applied to the local masters; under
           ``write-through`` the blocks are flushed to the home disk
           immediately, under ``write-back`` they are flushed when the
           dirty master is evicted or explicitly via :meth:`sync`.
        """
        blocks = list(self.layout.blocks(file_id))
        yield from self.write_blocks(node, blocks, span=span)

    def write_blocks(
        self, node: Node, blocks: list[BlockId], span: Span | None = None
    ) -> Generator[Event, object, None]:
        """Coroutine: whole-block writes of ``blocks`` at ``node``."""
        yield node.cpu.submit(self.params.cpu.file_request_ms(len(blocks)))
        cache = self.caches[node.node_id]
        for blk in blocks:
            yield from self._acquire_master(node, blk)

        # Invalidate replicas cluster-wide (perfect copy knowledge: one
        # message to each peer actually holding a stale copy).
        victims: dict[int, list[BlockId]] = defaultdict(list)
        for peer_cache in self.caches:
            if peer_cache.node_id == node.node_id:
                continue
            for blk in blocks:
                if blk in peer_cache:
                    victims[peer_cache.node_id].append(blk)
        if victims:
            invalidations = [
                self.sim.process(self._invalidate(node, pid, blks))
                # simlint: ordered -- victims is keyed in peer-scan order
                # (a deterministic loop over self.caches), so the
                # invalidation fan-out order is reproducible.
                for pid, blks in victims.items()
            ]
            yield self.sim.all_of(invalidations)

        # Apply the write to the local masters.
        yield node.cpu.submit(self.params.cpu.write_block_ms * len(blocks))
        for blk in blocks:
            if blk in cache and cache.is_master(blk):
                cache.touch(blk, self.sim.now)
                cache.mark_dirty(blk)
        self.counters.incr("block_writes", len(blocks))
        if self.config.write_policy == "write-through":
            yield from self._flush(node, blocks, parent=span)

    def _acquire_master(
        self, node: Node, blk: BlockId
    ) -> Generator[Event, object, None]:
        """Make ``node`` the master holder of ``blk`` (write ownership)."""
        cache = self.caches[node.node_id]
        holder = self.directory.lookup(blk)
        if blk in cache and cache.is_master(blk):
            return
        if holder is not None and holder != node.node_id:
            # Ownership transfer: the old holder gives up its copy.
            old = self.cluster.nodes[holder]
            old_cache = self.caches[holder]
            yield from self.cluster.network.transfer(node, old, self._msg_kb)
            if blk in old_cache:
                # The copy leaves the holder the instant the transfer
                # request is processed (pin semantics, as on the read
                # path) so no concurrent eviction can race the removal.
                was_dirty = old_cache.is_dirty(blk)
                self.scope.on_evict(
                    holder, blk, old_cache.is_master(blk),
                    old_cache.num_nonmasters, "ownership",
                    dest=node.node_id,
                )
                old_cache.remove(blk)
                yield old.cpu.submit(self.params.cpu.serve_peer_block_ms)
                yield from self.cluster.network.transfer(
                    old, node, self.layout.block_size_kb(blk)
                )
                self.counters.incr("ownership_transfers")
                if was_dirty:
                    # Dirtiness travels with the master copy.
                    self._install_master_for_write(node, blk, dirty=True)
                    return
        self._install_master_for_write(node, blk, dirty=False)

    def _install_master_for_write(
        self, node: Node, blk: BlockId, *, dirty: bool
    ) -> None:
        """Synchronously place a (possibly fresh) master at the writer.

        Concurrent writers serialize through the directory: the later
        writer wins, and any master a racing writer installed meanwhile
        is stale data and is dropped (single-master invariant).
        """
        other = self.directory.lookup(blk)
        if other is not None and other != node.node_id:
            other_cache = self.caches[other]
            if blk in other_cache and other_cache.is_master(blk):
                self.scope.on_evict(
                    other, blk, True, other_cache.num_nonmasters,
                    "write_race",
                )
                other_cache.remove(blk)
                self.counters.incr("write_race_invalidations")
        cache = self.caches[node.node_id]
        if blk in cache:
            if not cache.is_master(blk):
                cache.promote_to_master(blk)
        else:
            if cache.is_full:
                self._evict_one(node.node_id)
            cache.insert(blk, master=True, age=self.sim.now)
        self.directory.set_master(blk, node.node_id)
        # The writer's copy is now canonical: hop chain restarts here.
        self.scope.on_master_reset(blk)
        if dirty:
            cache.mark_dirty(blk)

    def _invalidate(
        self, writer: Node, peer_id: int, blocks: list[BlockId]
    ) -> Generator[Event, object, None]:
        """Drop stale copies of ``blocks`` at ``peer_id``."""
        peer = self.cluster.nodes[peer_id]
        yield from self.cluster.network.transfer(writer, peer, self._msg_kb)
        yield peer.cpu.submit(
            self.params.cpu.invalidate_block_ms * len(blocks)
        )
        peer_cache = self.caches[peer_id]
        for blk in blocks:
            if blk in peer_cache:
                nm_held = peer_cache.num_nonmasters
                is_m = peer_cache.is_master(blk)
                self.scope.on_evict(peer_id, blk, is_m, nm_held, "invalidate")
                was_master = peer_cache.remove(blk)
                self.counters.incr("invalidations")
                if was_master and self.directory.lookup(blk) == peer_id:
                    self.scope.on_master_exit(blk)
                    self.directory.clear_master(blk)

    def _flush(
        self, node: Node, blocks: list[BlockId],
        parent: Span | None = None,
    ) -> Generator[Event, object, None]:
        """Write dirty blocks back to their home disks."""
        span = self.tracer.start(
            "writeback", parent=parent, node=node.node_id, n=len(blocks)
        )
        cache = self.caches[node.node_id]
        by_home: dict[int, list[BlockId]] = defaultdict(list)
        for blk in blocks:
            if blk in cache and cache.is_dirty(blk):
                by_home[self.homes.home_of(blk.file_id)].append(blk)
        # simlint: ordered -- by_home insertion order is the caller's
        # dirty-block order, which is deterministic (see dirty_blocks()).
        for home_id, blks in by_home.items():
            if self.faults.active and self.faults.is_down(home_id):
                # Home disk unreachable: the blocks stay dirty and are
                # retried on the next flush (or lost with the node).
                self.faults.counters.incr("writebacks_deferred", len(blks))
                continue
            home = self.cluster.nodes[home_id]
            total_kb = sum(self.layout.block_size_kb(b) for b in blks)
            if home_id != node.node_id:
                yield from self.cluster.network.transfer(node, home, total_kb)
            for run in self._runs(blks):
                yield home.disk.submit(run)
            self.counters.incr("flushed_blocks", len(blks))
            for blk in blks:
                if blk in cache:
                    cache.clear_dirty(blk)
        span.finish()

    def sync(self, node: Node) -> Generator[Event, object, None]:
        """Coroutine: flush every dirty master at ``node`` (write-back)."""
        cache = self.caches[node.node_id]
        yield from self._flush(node, list(cache.dirty_blocks()))

    # ------------------------------------------------------------------
    # classification
    # ------------------------------------------------------------------
    def _classify(
        self, node: Node, blocks: list[BlockId], span: Span | None = None
    ) -> tuple[
        list[BlockId],
        list[Event],
        dict[int, list[BlockId]],
        dict[int, list[BlockId]],
    ]:
        """Split ``blocks`` into local hits, in-flight fetches to join,
        per-peer fetches, and per-home disk reads, using the directory.

        Joins of fetches owned by *other* requests leave a point event on
        this request's trace (``coalesce`` / ``wait_master``) so every
        non-local service class has a visible cause even when the actual
        fetch span belongs to another trace.
        """
        cache = self.caches[node.node_id]
        inflight = self._inflight[node.node_id]
        local: list[BlockId] = []
        joined: list[Event] = []
        by_peer: dict[int, list[BlockId]] = defaultdict(list)
        by_home: dict[int, list[BlockId]] = defaultdict(list)
        for blk in blocks:
            if blk in cache:
                local.append(blk)
                continue
            pending = inflight.get(blk)
            if pending is not None:
                # Another request at this node is already fetching it.
                self.counters.incr("coalesced")
                self.tracer.point("coalesce", parent=span, node=node.node_id)
                joined.append(pending)
                continue
            holder = self._route(blk)
            if holder is not None and holder != node.node_id:
                by_peer[holder].append(blk)
                continue
            pending_read = self._pending_master.get(blk)
            if pending_read is not None:
                # Some other node's disk read for this block is already
                # in flight: wait for it, then reclassify (usually a
                # remote hit on the fresh master).
                self.counters.incr("waited_master")
                self.tracer.point(
                    "wait_master", parent=span, node=node.node_id
                )
                joined.append(
                    self._spawn_fetch(
                        node, [blk],
                        self._retry_after(node, blk, pending_read, parent=span),
                    )
                )
                continue
            # No master in memory (or a stale hint pointing at us):
            # read from the home node's disk.
            by_home[self.homes.home_of(blk.file_id)].append(blk)
        return local, joined, dict(by_peer), dict(by_home)

    def _retry_after(
        self, node: Node, blk: BlockId, pending: Event,
        parent: Span | None = None,
    ) -> Generator[Event, object, None]:
        """Wait out another node's disk read, then re-resolve ``blk``.

        Runs inside the requester's tracked fetch process, so same-node
        requests coalesce onto it; re-resolution goes straight to the
        fetch paths (not :meth:`read_blocks`, which would see this very
        fetch in the in-flight table and wait on itself).

        A fault-free run chases chained pending reads unboundedly — safe,
        because each wait is on a read that is guaranteed to complete.
        Under fault injection that guarantee is gone (reads abort, nodes
        crash and re-read), so the chase is bounded: each extra round
        pays a capped, jittered backoff and past ``max_retries`` the
        requester stops chasing and reads the disk itself.
        """
        faults = self.faults
        attempt = 0
        while True:
            if not pending.processed:
                yield from self.prof.wait(
                    parent, node.node_id, "master_wait", pending
                )
            cache = self.caches[node.node_id]
            if blk in cache:
                self.counters.incr("local_hit")
                cache.touch(blk, self.sim.now)
                return
            holder = self._route(blk)
            if holder is not None and holder != node.node_id:
                yield from self._fetch_from_peer(
                    node, holder, [blk], parent=parent
                )
                return
            again = self._pending_master.get(blk)
            if again is None or again is pending:
                break
            attempt += 1
            if faults.active:
                if attempt > self.params.faults.max_retries:
                    # Stop chasing other nodes' reads; go to disk directly.
                    faults.counters.incr("retry_chases_capped")
                    break
                delay = faults.backoff_ms(attempt - 1)
                if delay > 0.0:
                    yield from self.prof.wait(
                        parent, node.node_id, "retry_wait",
                        self.sim.timeout(delay),
                    )
            pending = again
        yield from self._fetch_from_disk(
            node, self.homes.home_of(blk.file_id), [blk], parent=parent
        )

    # ------------------------------------------------------------------
    # peer fetch path (remote / global hit)
    # ------------------------------------------------------------------
    def _fetch_from_peer(
        self, node: Node, peer_id: int, blocks: list[BlockId],
        parent: Span | None = None,
    ) -> Generator[Event, object, None]:
        """Request non-master copies of ``blocks`` from ``peer_id``.

        Blocks the peer discarded while the request was in flight fall
        back to a disk read at their home — the race the paper explicitly
        allows under its "instantaneous directory" assumption.
        """
        peer = self.cluster.nodes[peer_id]
        span = self.tracer.start(
            "peer_fetch", parent=parent, node=node.node_id,
            peer=peer_id, n=len(blocks),
        )
        try:
            yield from self._peer_fetch_body(
                node, peer, peer_id, blocks, span
            )
        except RequestAborted:
            # An abort below (home unreachable on the fallback path)
            # still closes this span so the trace stays well-formed.
            span.finish(error=True, aborted=True)
            raise

    def _peer_fetch_body(
        self, node: Node, peer: Node, peer_id: int, blocks: list[BlockId],
        span: Span,
    ) -> Generator[Event, object, None]:
        """The peer-fetch protocol proper (span lifecycle in the caller)."""
        peer_cache = self.caches[peer_id]
        net = self.cluster.network
        faults = self.faults

        if faults.active and not self._peer_ok(node, peer_id):
            # Peer already down (or the link is): pay the detection
            # timeout once, then re-route every block past it.
            yield from self._detect_fault(node, span)
            faults.counters.incr("peer_fetch_failovers")
            yield from self._reresolve(node, blocks, peer_id, parent=span)
            span.finish(hits=0, misses=len(blocks), failover=True)
            return

        # Request message: n -> m.
        yield from net.transfer(node, peer, self._msg_kb,
                                prof=self.prof, parent=span)

        if faults.active and not self._peer_ok(node, peer_id):
            # Peer crashed while the request message was in flight: the
            # reply will never come.  Same failover as above — a crash
            # purged the directory, so re-resolution cannot loop back.
            yield from self._detect_fault(node, span)
            faults.counters.incr("peer_fetch_failovers")
            yield from self._reresolve(node, blocks, peer_id, parent=span)
            span.finish(hits=0, misses=len(blocks), failover=True)
            return

        present = [blk for blk in blocks if blk in peer_cache]
        missing = [blk for blk in blocks if blk not in peer_cache]

        if present:
            # The peer pins the blocks it is about to serve: presence and
            # recency are decided the instant the request is processed,
            # so a concurrent eviction cannot yank them mid-serve.
            for blk in present:
                peer_cache.touch(blk, self.sim.now)
            # Peer CPU: "serve peer block request" per block.
            yield from self.prof.wait(
                span, peer_id, "cpu",
                peer.cpu.submit(
                    self.params.cpu.serve_peer_block_ms * len(present)
                ),
            )
            reply_kb = sum(self.layout.block_size_kb(blk) for blk in present)
            yield from net.transfer(peer, node, reply_kb,
                                    prof=self.prof, parent=span)
            for blk in present:
                self.counters.incr("remote_hit")
            yield from self._install(node, present, master=False, parent=span)

        if missing:
            self.counters.incr("peer_miss", len(missing))
            # The directory's answer was one hop stale: the peer evicted
            # (or forwarded) these blocks while our request was in flight.
            self.scope.on_stale(len(missing))
            yield from self._reresolve(node, missing, peer_id, parent=span)
        span.finish(hits=len(present), misses=len(missing))

    def _peer_ok(self, node: Node, peer_id: int) -> bool:
        """The peer is up and the link to it carries traffic."""
        return not self.faults.is_down(peer_id) and self.faults.link_ok(
            node.node_id, peer_id
        )

    def _reresolve(
        self, node: Node, blocks: list[BlockId], exclude: int,
        parent: Span | None = None,
    ) -> Generator[Event, object, None]:
        """Re-route ``blocks`` after a peer miss or peer failure.

        Hint-chain correction (Sarkar & Hartman): the contacted peer
        knows more recent state, so the request is forwarded toward the
        block's true master (one hop) rather than bouncing straight to
        disk.  Blocks that genuinely have no in-memory master — or whose
        recorded master is ``exclude`` or a down node — fall back to
        their home disk.  A crash purges the directory synchronously, so
        re-resolution can never chase a dead node forever.
        """
        chase: dict[int, list[BlockId]] = defaultdict(list)
        by_home: dict[int, list[BlockId]] = defaultdict(list)
        for blk in blocks:
            true_holder = self.directory.lookup(blk)
            if (
                true_holder is not None
                and true_holder not in (node.node_id, exclude)
                and not self.faults.is_down(true_holder)
            ):
                chase[true_holder].append(blk)
            else:
                by_home[self.homes.home_of(blk.file_id)].append(blk)
        fallback = [
            self.sim.process(
                self._fetch_from_peer(node, h, blks, parent=parent)
            )
            # simlint: ordered -- chase/by_home are keyed in the stale
            # block list's order (one deterministic classification pass).
            for h, blks in chase.items()
        ] + [
            self.sim.process(
                self._fetch_from_disk(node, h, blks, parent=parent)
            )
            # simlint: ordered -- same classification pass as chase.
            for h, blks in by_home.items()
        ]
        yield from self.prof.wait(
            parent, node.node_id, "fetch", self.sim.all_of(fallback),
            d=len(by_home), pe=len(chase), j=0,
        )

    # ------------------------------------------------------------------
    # disk path (miss)
    # ------------------------------------------------------------------
    def _fetch_from_disk(
        self, node: Node, home_id: int, blocks: list[BlockId],
        parent: Span | None = None,
    ) -> Generator[Event, object, None]:
        """Read ``blocks`` from their home's disk; install masters at
        ``node``; update the directory."""
        home = self.cluster.nodes[home_id]
        net = self.cluster.network
        remote_home = home_id != node.node_id
        span = self.tracer.start(
            "disk_read", parent=parent, node=node.node_id,
            home=home_id, n=len(blocks),
        )

        done = self.sim.event()
        registered = [
            blk for blk in blocks if blk not in self._pending_master
        ]
        for blk in registered:
            self._pending_master[blk] = done
        faults = self.faults
        try:
            attempt = 0
            while True:
                if faults.active:
                    # Bounded wait for the home to be reachable; raises
                    # RequestAborted past the retry budget.
                    attempt = yield from self._await_home(
                        node, home_id, attempt, span
                    )
                if remote_home:
                    yield from net.transfer(node, home, self._msg_kb,
                                            prof=self.prof, parent=span)
                    if faults.active and (
                        faults.is_down(home_id)
                        or not faults.link_ok(node.node_id, home_id)
                    ):
                        # Home died while the request message was in
                        # flight; next round re-enters _await_home.
                        faults.counters.incr("disk_requests_lost")
                        attempt += 1
                        continue

                # Block-granular interface: the stream reads its blocks
                # one at a time, so blocks from concurrent streams
                # interleave in the disk queue.  Under FIFO this is the
                # paper's "12 seeks instead of 4" pathology; the SCAN
                # discipline re-groups the queued blocks by (file,
                # extent, block) and undoes it.
                runs = self._runs(blocks)
                for run in runs:
                    ev = home.disk.submit(run)
                    yield from self.prof.disk_wait(span, home_id, ev, (ev,))
                if faults.active and faults.is_down(home_id):
                    # Home crashed after the head moved but before the
                    # data left the node: the read is lost, retry it.
                    faults.counters.incr("disk_reads_lost")
                    attempt += 1
                    continue
                break
            self.counters.incr("disk_read", len(blocks))
            self.counters.incr("disk_runs", len(runs))

            total_kb = sum(self.layout.block_size_kb(blk) for blk in blocks)
            # Move the data across the home's bus (disk -> memory/NIC).
            yield from self.prof.wait(
                span, home_id, "bus",
                home.bus.submit(self.params.bus.transfer_ms(total_kb)),
            )

            if remote_home:
                # Home CPU forwards the freshly read master copies.
                yield from self.prof.wait(
                    span, home_id, "cpu",
                    home.cpu.submit(
                        self.params.cpu.serve_peer_block_ms * len(blocks)
                    ),
                )
                yield from net.transfer(home, node, total_kb,
                                        prof=self.prof, parent=span)

            yield from self._install(node, blocks, master=True, parent=span)
            span.finish(runs=len(runs))
        finally:
            for blk in registered:
                if self._pending_master.get(blk) is done:
                    del self._pending_master[blk]
            done.succeed()

    def _runs(self, blocks: list[BlockId]) -> list[DiskRequest]:
        """One disk request per block — deliberately.

        The middleware is block-based, so its disk traffic arrives at the
        queue in block units (as in the paper's simulator).  Whether the
        blocks of one stream are read back-to-back (2 seeks for a 64 KB
        extent: metadata + data, then contiguous transfers) or interleave
        with other streams (a seek pair per block — the paper's "12 seeks
        instead of 4") is then decided entirely by the disk's queue
        discipline: FIFO reproduces CC-Basic's interleaving pathology,
        SCAN reproduces the CC-Sched fix.
        """
        return [
            DiskRequest(
                blk.file_id,
                self.layout.extent_of(blk),
                blk.index,
                1,
                self.layout.block_size_kb(blk),
            )
            for blk in sorted(blocks)
        ]

    # ------------------------------------------------------------------
    # installation & eviction
    # ------------------------------------------------------------------
    def _install(
        self, node: Node, blocks: list[BlockId], *, master: bool,
        parent: Span | None = None,
    ) -> Generator[Event, object, None]:
        """Insert arrived blocks at ``node``, evicting as needed.

        "Cache a new block" CPU cost is charged per block; eviction
        decisions are instantaneous state changes (their network cost is
        the forwarded block's transfer, spawned asynchronously).
        """
        if self.faults.active and self.faults.is_down(node.node_id):
            # The requester crashed while the data was in flight: it has
            # nowhere to land, and installing it would resurrect memory
            # fail-stop destroyed (and point the directory at a corpse).
            self.faults.counters.incr("installs_dropped", len(blocks))
            return
        cache = self.caches[node.node_id]
        yield from self.prof.wait(
            parent, node.node_id, "cpu",
            node.cpu.submit(self.params.cpu.cache_block_ms * len(blocks)),
        )
        for blk in blocks:
            # If some other node (re-)mastered the block while our fetch
            # was in flight, install ours as a plain replica: the cluster
            # must never hold two master copies.
            as_master = master and not self._has_other_master(blk, node.node_id)
            if master and not as_master:
                self.counters.incr("master_race")
            if blk in cache:
                # Raced with another request that installed it first.
                cache.touch(blk, self.sim.now)
                if as_master and not cache.is_master(blk):
                    cache.promote_to_master(blk)
                    self.directory.set_master(blk, node.node_id)
                    self.scope.on_master_reset(blk)
                continue
            if cache.is_full:
                self._evict_one(node.node_id)
            cache.insert(blk, master=as_master, age=self.sim.now)
            if as_master:
                self.directory.set_master(blk, node.node_id)
                # Fresh master off the disk: its forward-hop chain restarts.
                self.scope.on_master_reset(blk)

    def _has_other_master(self, blk: BlockId, node_id: int) -> bool:
        """True if the directory records a master at some other node."""
        holder = self.directory.lookup(blk)
        return holder is not None and holder != node_id

    def _evict_one(self, node_id: int) -> None:
        """Free one slot at ``node_id`` per the configured policy."""
        cache = self.caches[node_id]
        victim = select_victim(self.config.policy, cache)
        if victim is None:  # pragma: no cover - full implies non-empty
            raise RuntimeError("eviction requested on empty cache")
        blk, age, is_master = victim
        was_dirty = cache.is_dirty(blk)
        # Captured before removal so it reflects the state the policy
        # decided on — the CC-KMC invariant test (and CacheScope's
        # violation counter) read exactly this.
        nm_held = cache.num_nonmasters
        self.tracer.point(
            "evict", node=node_id, master=is_master,
            nonmasters=nm_held, policy=self.config.policy,
        )
        cache.remove(blk)
        self.counters.incr("evictions")
        if not is_master:
            self.counters.incr("evict_drop_nonmaster")
            self.scope.on_evict(node_id, blk, False, nm_held, "drop")
            return
        if not self.config.forward_on_evict:
            self.scope.on_evict(node_id, blk, True, nm_held, "drop")
            self._drop_master(node_id, blk, was_dirty)
            return
        target = self._oldest_peer(node_id, age)
        if target is None:
            # Globally oldest: drop, master leaves cluster memory.
            self.scope.on_evict(node_id, blk, True, nm_held, "drop")
            self._drop_master(node_id, blk, was_dirty)
            return
        self.scope.on_evict(node_id, blk, True, nm_held, "forward",
                            dest=target)
        # Optimistic instantaneous directory: point at the destination
        # as soon as the block is in flight.
        self.directory.set_master(blk, target)
        self.counters.incr("forwards")
        self.sim.process(
            self._forward_master(node_id, target, blk, age, dirty=was_dirty)
        )

    def _drop_master(self, node_id: int, blk: BlockId, dirty: bool) -> None:
        """A master leaves cluster memory; flush it first if dirty."""
        self.counters.incr("evict_drop_master")
        self.scope.on_master_exit(blk)
        self.directory.clear_master(blk)
        if dirty:
            self.sim.process(self._writeback_evicted(node_id, [blk]))

    def _writeback_evicted(
        self, node_id: int, blocks: list[BlockId]
    ) -> Generator[Event, object, None]:
        """Asynchronously write evicted dirty blocks to their homes."""
        node = self.cluster.nodes[node_id]
        # Background cluster activity: a new root span, not tied to the
        # request whose eviction triggered it (it outlives the request).
        span = self.tracer.start("writeback", node=node_id, n=len(blocks))
        by_home: dict[int, list[BlockId]] = defaultdict(list)
        for blk in blocks:
            by_home[self.homes.home_of(blk.file_id)].append(blk)
        # simlint: ordered -- keyed in the evicted-block list's order,
        # which the eviction path produces deterministically.
        for home_id, blks in by_home.items():
            if self.faults.active and self.faults.is_down(home_id):
                # The evicted copy is already gone from memory and its
                # home disk is unreachable: the modification is lost.
                self.faults.counters.incr("writebacks_lost", len(blks))
                continue
            home = self.cluster.nodes[home_id]
            total_kb = sum(self.layout.block_size_kb(b) for b in blks)
            if home_id != node_id:
                yield from self.cluster.network.transfer(node, home, total_kb)
            for run in self._runs(blks):
                yield home.disk.submit(run)
            self.counters.incr("flushed_blocks", len(blks))
        span.finish()

    def _oldest_peer(self, node_id: int, victim_age: float) -> int | None:
        """Peer holding the oldest block strictly older than the victim.

        None means the victim is the globally oldest block (or there are
        no peers) — per the paper, it is then simply dropped.
        """
        best_id: int | None = None
        best_age = victim_age
        for cache in self.caches:
            if cache.node_id == node_id:
                continue
            age = cache.oldest_age()
            if age < best_age:
                best_age = age
                best_id = cache.node_id
        return best_id

    def _forward_master(
        self, src_id: int, dst_id: int, blk: BlockId, age: float,
        dirty: bool = False,
    ) -> Generator[Event, object, None]:
        """Ship an evicted master to the peer with the oldest block.

        Properties the paper requires: (1) no cascaded evictions — the
        destination unconditionally drops its own oldest block to make
        room; (2) if everything at the destination is now younger than
        the forwarded block, the forwarded block is dropped instead.
        ``dirty`` travels with the copy; a dirty forward that gets
        dropped anywhere is written back to the home disk instead of
        losing data.
        """
        src = self.cluster.nodes[src_id]
        dst = self.cluster.nodes[dst_id]
        size_kb = self.layout.block_size_kb(blk)
        # Background activity: its own root span (outlives the evicting
        # request), closed with the forward's outcome.
        span = self.tracer.start("forward", node=src_id, dst=dst_id)
        yield from self.cluster.network.transfer(src, dst, size_kb)
        # "Process an evicted master block" at the destination.
        yield dst.cpu.submit(self.params.cpu.evicted_master_ms)

        cache = self.caches[dst_id]
        if self.directory.lookup(blk) != dst_id:
            # While the block was in flight some node re-mastered it
            # (e.g. re-read it from disk after a racing miss): this copy
            # is stale; drop it rather than create a second master.  A
            # re-mastered block was re-read from disk, so a stale dirty
            # copy would carry *newer* data: flush it.
            self.counters.incr("forward_stale")
            self.scope.on_forward(blk, "stale")
            span.finish(outcome="stale")
            if dirty:
                self.sim.process(self._writeback_evicted(dst_id, [blk]))
            return
        if blk in cache:
            # Destination already holds a replica: absorb master status.
            if not cache.is_master(blk):
                cache.promote_to_master(blk)
            self.directory.set_master(blk, dst_id)
            if dirty:
                cache.mark_dirty(blk)
            self.counters.incr("forward_merged")
            self.scope.on_forward(blk, "merged")
            span.finish(outcome="merged")
            return
        if cache.oldest_age() >= age:
            # Everything here is younger: the forwarded block is dropped.
            self.counters.incr("forward_dropped")
            self.scope.on_forward(blk, "dropped")
            span.finish(outcome="dropped")
            if self.directory.lookup(blk) == dst_id:
                self.directory.clear_master(blk)
            if dirty:
                self.sim.process(self._writeback_evicted(dst_id, [blk]))
            return
        if cache.is_full:
            old_blk, _old_age, was_master = cache.oldest()  # type: ignore[misc]
            displaced_dirty = cache.is_dirty(old_blk)
            self.scope.on_evict(
                dst_id, old_blk, was_master, cache.num_nonmasters,
                "displaced",
            )
            cache.remove(old_blk)
            self.counters.incr("forward_displaced")
            if was_master and self.directory.lookup(old_blk) == dst_id:
                self.scope.on_master_exit(old_blk)
                self.directory.clear_master(old_blk)
            if displaced_dirty:
                self.sim.process(self._writeback_evicted(dst_id, [old_blk]))
        cache.insert(blk, master=True, age=age)
        self.directory.set_master(blk, dst_id)
        if dirty:
            cache.mark_dirty(blk)
        self.counters.incr("forward_installed")
        self.scope.on_forward(blk, "installed")
        span.finish(outcome="installed")

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def hit_rates(self) -> dict[str, float]:
        """Block-level local / remote / disk fractions (Figure 4)."""
        return block_hit_rates(self.counters)

    def resident_blocks(self) -> int:
        """Blocks currently cached cluster-wide."""
        return sum(len(c) for c in self.caches)

    def check_invariants(self) -> None:
        """Assert directory/cache consistency (tests and debugging).

        * no cache exceeds its capacity;
        * no block has two master copies;
        * every resident master is recorded in the directory at its node.

        A directory entry *may* point at a node not (yet) holding the
        block — that is a master in flight (forward or disk reply); call
        this at quiescent points (calendar drained) for the strict check
        that every entry is backed by a resident master.
        """
        seen: dict[BlockId, int] = {}
        for cache in self.caches:
            if len(cache) > cache.capacity_blocks:
                raise AssertionError(f"cache {cache.node_id} over capacity")
            for blk in cache.masters():
                if blk in seen:
                    raise AssertionError(
                        f"{blk} mastered at both {seen[blk]} and {cache.node_id}"
                    )
                seen[blk] = cache.node_id
        # simlint: ordered -- diagnostic cross-check; raises on the first
        # inconsistency and mutates nothing, so order only affects which
        # of several (already fatal) errors reports first.
        for blk, holder in seen.items():
            recorded = self.directory.lookup(blk)
            if recorded != holder:
                raise AssertionError(
                    f"master of {blk} resident at {holder} but directory "
                    f"says {recorded}"
                )
