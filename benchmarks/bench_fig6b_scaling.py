"""Figure 6b: CC-KMC throughput vs cluster size (up to 32 nodes).

Paper claim: the cooperative caching server "scales quite well up to 32
nodes" at 32 MB per node.  Scaling can exceed linear while the working
set is larger than aggregate memory (more nodes = more cache), so the
assertion is monotone growth with at least ~75% efficiency per doubling.
"""

from conftest import bench_memories

from repro.experiments.figures import render_fig6b, run_figures


def run_fig6b():
    return run_figures(["fig6b"], memories_mb=bench_memories())["fig6b"]


def test_bench_fig6b(benchmark, artifact):
    data = benchmark.pedantic(run_fig6b, rounds=1, iterations=1)
    thr = data["throughput_rps"]
    nodes = data["node_counts"]
    assert nodes == [4, 8, 16, 32]
    for i in range(1, len(thr)):
        growth = thr[i] / thr[i - 1]
        scale = nodes[i] / nodes[i - 1]
        assert growth >= 0.75 * scale, (nodes[i], growth)
    artifact("fig6b", render_fig6b(data), data)
