"""Tests for the whole-file adaptation of the middleware (ablation A3)."""

import numpy as np
import pytest

from repro.cache.block import FileLayout
from repro.cache.directory import HomeMap
from repro.cluster import Cluster
from repro.core.wholefile import WholeFileCache, WholeFileCoopServer
from repro.params import DEFAULT_PARAMS
from repro.sim import Simulator
from repro.traces import Trace, TraceSpec
from repro.web import ClosedLoopDriver


def build(num_nodes=4, capacity_kb=64.0, sizes=(16.0, 16.0, 16.0, 16.0)):
    sim = Simulator()
    cluster = Cluster(sim, DEFAULT_PARAMS, num_nodes)
    layout = FileLayout(list(sizes), DEFAULT_PARAMS)
    homes = HomeMap(layout.num_files, num_nodes)
    server = WholeFileCoopServer(cluster, layout, homes, capacity_kb)
    return sim, cluster, server


def serve_seq(sim, cluster, server, pairs):
    def driver():
        for node_id, file_id in pairs:
            yield sim.process(server.handle(cluster.nodes[node_id], file_id))

    sim.process(driver())
    sim.run()


class TestWholeFileCache:
    def test_insert_and_master_flag(self):
        c = WholeFileCache(0, 100.0)
        c.insert(1, 30.0, master=True, age=1.0)
        c.insert(2, 30.0, master=False, age=2.0)
        assert c.is_master(1) and not c.is_master(2)
        assert c.used_kb == 60.0

    def test_capacity_checked(self):
        c = WholeFileCache(0, 50.0)
        c.insert(1, 40.0, master=True, age=1.0)
        with pytest.raises(ValueError):
            c.insert(2, 20.0, master=True, age=2.0)

    def test_duplicate_raises(self):
        c = WholeFileCache(0, 100.0)
        c.insert(1, 10.0, master=True, age=1.0)
        with pytest.raises(KeyError):
            c.insert(1, 10.0, master=True, age=2.0)

    def test_victim_prefers_replicas(self):
        c = WholeFileCache(0, 100.0)
        c.insert(1, 30.0, master=True, age=1.0)   # oldest overall
        c.insert(2, 30.0, master=False, age=2.0)  # oldest replica
        assert c.select_victim() == (2, 2.0, False)

    def test_victim_master_when_no_replicas(self):
        c = WholeFileCache(0, 100.0)
        c.insert(1, 30.0, master=True, age=5.0)
        c.insert(2, 30.0, master=True, age=3.0)
        assert c.select_victim() == (2, 3.0, True)

    def test_remove_returns_size_and_masterness(self):
        c = WholeFileCache(0, 100.0)
        c.insert(1, 30.0, master=True, age=1.0)
        assert c.remove(1) == (30.0, True)
        assert len(c) == 0 and c.used_kb == 0.0

    def test_oldest_age(self):
        c = WholeFileCache(0, 100.0)
        assert c.oldest_age() == float("inf")
        c.insert(1, 10.0, master=True, age=4.0)
        c.insert(2, 10.0, master=False, age=2.0)
        assert c.oldest_age() == 2.0

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            WholeFileCache(0, 0.0)

    @pytest.mark.parametrize("capacity_kb", [float("nan"), float("inf")])
    def test_non_finite_capacity(self, capacity_kb):
        with pytest.raises(ValueError, match="capacity must be positive"):
            WholeFileCache(0, capacity_kb)


class TestWholeFileServer:
    def test_cold_read_masters_at_requester(self):
        sim, cluster, server = build()
        serve_seq(sim, cluster, server, [(3, 1)])
        assert server.counters.get("disk_read") == 2  # block-weighted
        assert server.directory[1] == 3
        assert server.caches[3].is_master(1)
        # Home node 1's disk did the read.
        assert cluster.nodes[1].disk.completed > 0

    def test_repeat_is_local(self):
        sim, cluster, server = build()
        serve_seq(sim, cluster, server, [(0, 0), (0, 0)])
        assert server.counters.get("local_hit") == 2

    def test_peer_fetch_creates_replica(self):
        sim, cluster, server = build()
        serve_seq(sim, cluster, server, [(0, 0), (1, 0)])
        assert server.counters.get("remote_hit") == 2
        assert 0 in server.caches[1]
        assert not server.caches[1].is_master(0)
        assert server.directory[0] == 0

    def test_replica_evicted_before_master(self):
        # capacity 2 files of 16 KB each per node.
        sim, cluster, server = build(capacity_kb=32.0, sizes=(16.0,) * 6)
        serve_seq(sim, cluster, server, [(1, 1), (0, 0), (0, 1), (0, 2)])
        # Node 0 held master(0) + replica(1); reading file 2 evicts the
        # replica, keeping the master.
        assert server.caches[0].is_master(0)
        assert 1 not in server.caches[0]

    def test_master_forwarded_to_peer_with_oldest(self):
        sim, cluster, server = build(capacity_kb=32.0, sizes=(16.0,) * 6)
        serve_seq(sim, cluster, server, [(1, 5), (0, 0), (0, 1), (0, 2)])
        # Node 0 overflowed with only masters; its oldest master was
        # forwarded (node 1 holds the cluster's oldest file).
        assert server.counters.get("forwards") >= 1
        sim.run()
        # Wherever each file's master is recorded, it is resident there.
        for f, holder in server.directory.items():
            assert f in server.caches[holder]
            assert server.caches[holder].is_master(f)

    def test_coalescing(self):
        sim, cluster, server = build()

        def both():
            a = sim.process(server.handle(cluster.nodes[0], 0))
            b = sim.process(server.handle(cluster.nodes[0], 0))
            yield sim.all_of([a, b])

        sim.process(both())
        sim.run()
        assert server.counters.get("coalesced") == 2
        assert server.counters.get("disk_read") == 2  # read once

    def test_uncacheable_file(self):
        sim, cluster, server = build(capacity_kb=8.0, sizes=(100.0,))
        serve_seq(sim, cluster, server, [(0, 0), (0, 0)])
        assert server.counters.get("uncacheable") == 2
        assert server.counters.get("disk_read") == 26  # 13 blocks twice

    def test_hit_rates_and_reset(self):
        sim, cluster, server = build()
        serve_seq(sim, cluster, server, [(0, 0), (0, 0)])
        hr = server.hit_rates()
        assert hr["local"] == pytest.approx(0.5)
        server.reset_stats()
        assert server.hit_rates()["total"] == 0.0

    def test_with_closed_loop_driver(self):
        rng = np.random.default_rng(4)
        n_files = 10
        trace = Trace(
            spec=TraceSpec("t", n_files, 300, 16.0),
            sizes_kb=np.full(n_files, 16.0),
            requests=rng.integers(0, n_files, size=300),
        )
        sim = Simulator()
        cluster = Cluster(sim, DEFAULT_PARAMS, 4)
        layout = FileLayout(trace.sizes_kb, DEFAULT_PARAMS)
        homes = HomeMap(layout.num_files, 4)
        server = WholeFileCoopServer(cluster, layout, homes, 64.0)
        driver = ClosedLoopDriver(sim, cluster, server, trace, num_clients=8)
        result = driver.run()
        assert result.throughput_rps > 0
        assert 0 <= server.hit_rates()["total"] <= 1
