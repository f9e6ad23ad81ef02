"""Figure 6a: CC-KMC resource utilization vs per-node memory.

Paper claims encoded: the disk is the bottleneck at small memories and
falls as memory grows; the network (NIC) is mostly idle — which is why
trading network traffic for disk accesses (the KMC rule) wins.
"""

from conftest import bench_memories

from repro.experiments.figures import render_fig6a, run_figures


def run_fig6a():
    return run_figures(["fig6a"], memories_mb=bench_memories())["fig6a"]


def test_bench_fig6a(benchmark, artifact):
    data = benchmark.pedantic(run_fig6a, rounds=1, iterations=1)
    util = data["utilization"]
    # Disk dominates at the smallest memory...
    assert util["disk"][0] > 0.5
    assert util["disk"][0] > util["cpu"][0] > util["nic"][0]
    # ...and pressure falls as memory grows.
    assert util["disk"][-1] <= util["disk"][0] + 0.05
    # The network is mostly idle everywhere (paper: "the network is
    # mostly idle").
    assert all(u < 0.5 for u in util["nic"])
    artifact("fig6a", render_fig6a(data), data)
