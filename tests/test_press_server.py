"""Behavioural tests for the PRESS baseline server."""

import numpy as np
import pytest

from repro.cache.block import FileLayout
from repro.cluster import Cluster
from repro.params import DEFAULT_PARAMS
from repro.press import PressServer
from repro.press import server as press_server
from repro.sim import Simulator
from repro.traces import Trace, TraceSpec
from repro.web import ClosedLoopDriver


def build(num_nodes=4, capacity_kb=64.0, sizes=(16.0, 16.0, 16.0, 16.0)):
    sim = Simulator()
    cluster = Cluster(sim, DEFAULT_PARAMS, num_nodes)
    layout = FileLayout(list(sizes), DEFAULT_PARAMS)
    server = PressServer(cluster, layout, capacity_kb=capacity_kb)
    return sim, cluster, server


def serve_seq(sim, cluster, server, pairs):
    def driver():
        for node_id, file_id in pairs:
            yield sim.process(server.handle(cluster.nodes[node_id], file_id))

    sim.process(driver())
    sim.run()


class TestDispatch:
    def test_cold_miss_reads_disk_and_adopts(self):
        sim, cluster, server = build()
        serve_seq(sim, cluster, server, [(0, 0)])
        assert server.counters.get("disk_read") == 2  # 16 KB = 2 blocks
        assert server.directory.copies(0) == 1

    def test_second_request_hits_memory(self):
        sim, cluster, server = build()
        serve_seq(sim, cluster, server, [(0, 0), (0, 0)])
        assert server.counters.get("local_hit") == 2
        assert server.counters.get("disk_read") == 2

    def test_content_aware_forwarding(self):
        sim, cluster, server = build()
        serve_seq(sim, cluster, server, [(0, 0), (1, 0)])
        # Node 1's request for file 0 forwarded to its caching node.
        assert server.counters.get("remote_hit") == 2
        assert server.counters.get("forwarded_requests") == 1
        # Crucially: the file is NOT duplicated by a plain remote hit.
        assert server.directory.copies(0) == 1

    def test_cold_miss_goes_to_least_loaded(self):
        from repro.cluster import DiskRequest

        sim, cluster, server = build()
        # Load node 0's disk so it is visibly busy at dispatch time (the
        # CPU cannot be used here: the request's own parse would simply
        # queue behind the load and see an idle node afterwards).
        cluster.nodes[0].disk.submit(DiskRequest(3, 0, 0, 1, 4000.0))
        serve_seq(sim, cluster, server, [(0, 0)])
        holder = next(iter(server.directory.holders(0)))
        assert holder != 0

    def test_uncacheable_file_served_but_not_cached(self):
        sim, cluster, server = build(capacity_kb=8.0, sizes=(100.0,))
        serve_seq(sim, cluster, server, [(0, 0)])
        assert server.counters.get("uncacheable") == 1
        assert server.directory.copies(0) == 0

    def test_dereplication_keeps_last_copy(self):
        # Node cache fits 2 files; third forces LRU eviction of last
        # copies (allowed only when nothing is replicated).
        sim, cluster, server = build(num_nodes=1, capacity_kb=32.0)
        serve_seq(sim, cluster, server, [(0, 0), (0, 1), (0, 2)])
        assert server.directory.copies(0) == 0  # evicted (LRU)
        assert server.directory.copies(1) == 1
        assert server.directory.copies(2) == 1


class TestReplication:
    def test_overload_triggers_replication(self, monkeypatch):
        monkeypatch.setattr(press_server, "REPLICATE_THRESHOLD", 1)
        monkeypatch.setattr(press_server, "REPLICATE_HEADROOM", 0)
        sim, cluster, server = build()
        # Make node 0 the holder, then hammer it while it is loaded.
        serve_seq(sim, cluster, server, [(0, 0)])

        from repro.cluster import DiskRequest

        def hammer():
            # Disk backlog keeps node 0's load >= 1 through the serve.
            cluster.nodes[0].disk.submit(DiskRequest(3, 0, 0, 1, 4000.0))
            yield sim.process(server.handle(cluster.nodes[0], 0))

        sim.process(hammer())
        sim.run()
        assert server.counters.get("replications") >= 1
        assert server.directory.copies(0) >= 2

    def test_no_replication_when_threshold_high(self, monkeypatch):
        monkeypatch.setattr(press_server, "REPLICATE_THRESHOLD", 1000)
        sim, cluster, server = build()
        serve_seq(sim, cluster, server, [(0, 0), (1, 0), (2, 0), (3, 0)])
        assert server.counters.get("replications") == 0



class TestHitRates:
    def test_block_weighted(self):
        sim, cluster, server = build(sizes=(16.0, 80.0, 16.0, 16.0),
                                     capacity_kb=128.0)
        serve_seq(sim, cluster, server, [(0, 1), (0, 1)])
        # 80 KB file = 10 blocks: 10 disk + 10 local.
        hr = server.hit_rates()
        assert hr["disk"] == pytest.approx(0.5)
        assert hr["local"] == pytest.approx(0.5)

    def test_empty(self):
        _, _, server = build()
        assert server.hit_rates()["total"] == 0.0

    def test_reset_stats(self):
        sim, cluster, server = build()
        serve_seq(sim, cluster, server, [(0, 0)])
        server.reset_stats()
        assert server.counters.as_dict() == {}
        # Cache contents survive the reset.
        assert server.directory.copies(0) == 1

    def test_resident_files(self):
        sim, cluster, server = build()
        serve_seq(sim, cluster, server, [(0, 0), (1, 1)])
        assert server.resident_files() == 2


class TestWithDriver:
    def make_trace(self, n_files=12, n_requests=400, seed=5):
        rng = np.random.default_rng(seed)
        return Trace(
            spec=TraceSpec("t", n_files, n_requests, 16.0),
            sizes_kb=np.full(n_files, 16.0),
            requests=rng.integers(0, n_files, size=n_requests),
        )

    def test_full_run_produces_sane_stats(self):
        trace = self.make_trace()
        sim = Simulator()
        cluster = Cluster(sim, DEFAULT_PARAMS, 4)
        layout = FileLayout(trace.sizes_kb, DEFAULT_PARAMS)
        server = PressServer(cluster, layout, capacity_kb=64.0)
        driver = ClosedLoopDriver(sim, cluster, server, trace, num_clients=8)
        result = driver.run()
        assert result.throughput_rps > 0
        assert result.mean_response_ms > 0
        assert result.measured_requests > 0
        hr = server.hit_rates()
        assert 0.0 <= hr["total"] <= 1.0

    def test_coalescing_counts_separately(self):
        trace = self.make_trace(n_files=2, n_requests=100)
        sim = Simulator()
        cluster = Cluster(sim, DEFAULT_PARAMS, 4)
        layout = FileLayout(trace.sizes_kb, DEFAULT_PARAMS)
        server = PressServer(cluster, layout, capacity_kb=64.0)
        driver = ClosedLoopDriver(
            sim, cluster, server, trace, num_clients=16, warmup_frac=0.0
        )
        driver.run()
        c = server.counters
        # Concurrent cold requests for the same file joined one read:
        # data was read from each disk at most once per adoption.
        total = (c.get("local_hit") + c.get("remote_hit")
                 + c.get("disk_read") + c.get("coalesced"))
        assert total == 200  # 100 requests x 2 blocks
