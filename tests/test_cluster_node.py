"""Unit tests for Node, Network, Router, RoundRobinDNS, Cluster."""

import pytest

from repro.cluster import Cluster, DiskRequest, Network, Node, RoundRobinDNS, Router
from repro.params import DEFAULT_PARAMS, SimParams
from repro.sim import Simulator


class TestNode:
    def test_components_exist(self):
        sim = Simulator()
        n = Node(sim, 0, DEFAULT_PARAMS)
        assert n.cpu.name == "node0.cpu"
        assert n.nic.name == "node0.nic"
        assert n.bus.name == "node0.bus"
        assert n.disk.name == "node0.disk"

    def test_negative_id_rejected(self):
        with pytest.raises(ValueError):
            Node(Simulator(), -1, DEFAULT_PARAMS)

    def test_load_combines_cpu_and_disk(self):
        sim = Simulator()
        n = Node(sim, 0, DEFAULT_PARAMS)
        n.cpu.submit(5.0)
        n.disk.submit(DiskRequest(1, 0, 0, 1, 8.0))
        assert n.load == 2
        sim.run()
        assert n.load == 0

    def test_utilization_snapshot_keys(self):
        sim = Simulator()
        n = Node(sim, 0, DEFAULT_PARAMS)
        u = n.utilization()
        assert set(u) == {"cpu", "nic", "bus", "disk"}
        assert all(v == 0.0 for v in u.values())

    def test_reset_stats(self):
        sim = Simulator()
        n = Node(sim, 0, DEFAULT_PARAMS)
        n.cpu.submit(10.0)
        sim.run()
        n.reset_stats()
        sim.timeout(10.0)
        sim.run()
        assert n.utilization()["cpu"] == pytest.approx(0.0)


class TestNetwork:
    def test_transfer_time_includes_nic_and_latency(self):
        sim = Simulator()
        params = DEFAULT_PARAMS
        a, b = Node(sim, 0, params), Node(sim, 1, params)
        net = Network(sim, params)
        done = sim.process(net.transfer(a, b, 64.0))
        sim.run()
        expected = params.network.transfer_ms(64.0) + params.network.latency_ms
        assert sim.now == pytest.approx(expected)
        assert done.processed

    def test_loopback_is_free(self):
        sim = Simulator()
        a = Node(sim, 0, DEFAULT_PARAMS)
        net = Network(sim, DEFAULT_PARAMS)
        sim.process(net.transfer(a, a, 64.0))
        sim.run()
        assert sim.now == 0.0

    def test_external_source_latency_only(self):
        sim = Simulator()
        b = Node(sim, 1, DEFAULT_PARAMS)
        net = Network(sim, DEFAULT_PARAMS)
        sim.process(net.transfer(None, b, 1.0))
        sim.run()
        assert sim.now == pytest.approx(DEFAULT_PARAMS.network.latency_ms)

    def test_traffic_accounting(self):
        sim = Simulator()
        a, b = Node(sim, 0, DEFAULT_PARAMS), Node(sim, 1, DEFAULT_PARAMS)
        net = Network(sim, DEFAULT_PARAMS)
        sim.process(net.transfer(a, b, 10.0))
        sim.process(net.transfer(a, b, 20.0))
        sim.run()
        assert net.bytes_kb == pytest.approx(30.0)
        assert net.messages == 2
        net.reset_stats()
        assert net.bytes_kb == 0.0 and net.messages == 0

    def test_negative_size_rejected(self):
        sim = Simulator()
        net = Network(sim, DEFAULT_PARAMS)
        p = sim.process(net.transfer(None, None, -1.0))
        sim.run()
        # The generator raises on first resume; the process event fails.
        assert not p.ok and isinstance(p.value, ValueError)

    @pytest.mark.parametrize("size_kb", [float("nan"), float("inf"), -1.0])
    def test_non_finite_or_negative_size_rejected(self, size_kb):
        sim = Simulator()
        net = Network(sim, DEFAULT_PARAMS)
        node = Node(sim, 0, DEFAULT_PARAMS)
        p = sim.process(net.transfer(None, node, size_kb))
        sim.run()
        assert not p.ok and isinstance(p.value, ValueError)
        assert repr(size_kb) in str(p.value)
        # Nothing was counted: the accounting stays finite.
        assert net.bytes_kb == 0.0 and net.messages == 0

    def test_nic_serializes_sends(self):
        sim = Simulator()
        params = DEFAULT_PARAMS
        a, b = Node(sim, 0, params), Node(sim, 1, params)
        net = Network(sim, params)
        sim.process(net.transfer(a, b, 125.0))
        sim.process(net.transfer(a, b, 125.0))
        sim.run()
        one = params.network.transfer_ms(125.0)
        # Two sends through one NIC serialize; latency overlaps the 2nd send.
        assert sim.now == pytest.approx(2 * one + params.network.latency_ms)


class TestRouterAndDNS:
    def test_router_forward_cost(self):
        sim = Simulator()
        r = Router(sim, DEFAULT_PARAMS)
        r.forward()
        sim.run()
        assert sim.now == pytest.approx(DEFAULT_PARAMS.router.forward_ms)

    def test_rr_dns_cycles(self):
        sim = Simulator()
        nodes = [Node(sim, i, DEFAULT_PARAMS) for i in range(3)]
        dns = RoundRobinDNS(nodes)
        picks = [dns.pick().node_id for _ in range(7)]
        assert picks == [0, 1, 2, 0, 1, 2, 0]

    def test_rr_dns_empty_rejected(self):
        with pytest.raises(ValueError):
            RoundRobinDNS([])

    def test_rr_dns_nodes_property(self):
        sim = Simulator()
        nodes = [Node(sim, i, DEFAULT_PARAMS) for i in range(2)]
        assert len(RoundRobinDNS(nodes).nodes) == 2


class TestCluster:
    def test_builds_n_nodes(self):
        c = Cluster(Simulator(), DEFAULT_PARAMS, 8)
        assert len(c) == 8
        assert [n.node_id for n in c.nodes] == list(range(8))

    def test_zero_nodes_rejected(self):
        with pytest.raises(ValueError):
            Cluster(Simulator(), DEFAULT_PARAMS, 0)

    def test_utilization_aggregates(self):
        sim = Simulator()
        c = Cluster(sim, DEFAULT_PARAMS, 2)
        c.nodes[0].cpu.submit(10.0)
        sim.run()
        u = c.utilization()
        assert u["cpu"] == pytest.approx(0.5)
        assert c.max_utilization()["cpu"] == pytest.approx(1.0)

    def test_reset_stats_propagates(self):
        sim = Simulator()
        c = Cluster(sim, DEFAULT_PARAMS, 2)
        c.nodes[0].cpu.submit(10.0)
        sim.run()
        c.reset_stats()
        sim.timeout(5.0)
        sim.run()
        assert c.utilization()["cpu"] == pytest.approx(0.0)

    def test_disk_discipline_applied(self):
        c = Cluster(Simulator(), DEFAULT_PARAMS, 2, disk_discipline="fifo")
        assert all(n.disk.discipline == "fifo" for n in c.nodes)


class TestParams:
    def test_blocks_of(self):
        p = SimParams()
        assert p.blocks_of(1.0) == 1
        assert p.blocks_of(8.0) == 1
        assert p.blocks_of(8.1) == 2
        assert p.blocks_of(64.0) == 8

    def test_extents_of(self):
        p = SimParams()
        assert p.extents_of(64.0) == 1
        assert p.extents_of(65.0) == 2

    def test_disk_read_ms_contiguous_cheaper(self):
        p = SimParams()
        assert p.disk.read_ms(64.0, contiguous=True) < p.disk.read_ms(
            64.0, contiguous=False
        )

    def test_with_overrides_is_copy(self):
        p = SimParams()
        q = p.with_overrides(block_kb=16)
        assert q.block_kb == 16 and p.block_kb == 8

    def test_cpu_helpers(self):
        p = SimParams()
        assert p.cpu.serve_ms(115.0) == pytest.approx(p.cpu.serve_fixed_ms + 1.0)
        assert p.cpu.file_request_ms(3) == pytest.approx(
            p.cpu.file_request_fixed_ms + 3 * p.cpu.file_request_per_block_ms
        )

    def test_lan_params_scaling(self):
        from repro.params import lan_params

        slow = lan_params(100)
        fast = lan_params(10000)
        assert slow.bandwidth_kb_per_ms < fast.bandwidth_kb_per_ms
        assert slow.latency_ms > fast.latency_ms

    def test_hardware_configs_registry(self):
        from repro.params import HARDWARE_CONFIGS

        assert "paper" in HARDWARE_CONFIGS
        assert HARDWARE_CONFIGS["lan-100mb"].network.bandwidth_kb_per_ms < 50
