"""Figure 2 (a-d): throughput of PRESS vs the three middleware variants.

8 nodes, per-node memory swept over the paper's axis, one panel per
trace.  Shape assertions (who wins, roughly by how much) encode the
paper's qualitative claims; absolute req/s are not expected to match the
authors' testbed.
"""

from conftest import bench_memories

from repro.experiments.figures import render_fig2, run_figures
from repro.traces.datasets import TRACE_NAMES


def run_fig2():
    return run_figures(["fig2"], memories_mb=bench_memories())["fig2"]


def test_bench_fig2(benchmark, artifact):
    data = benchmark.pedantic(run_fig2, rounds=1, iterations=1)
    assert set(data) == set(TRACE_NAMES)
    for name, panel in data.items():
        thr = panel["throughput_rps"]
        n = len(panel["memories_mb"])
        assert all(len(v) == n for v in thr.values())
        # Paper shape 1: CC-Basic lags PRESS badly at every point.
        for i in range(n):
            assert thr["cc-basic"][i] < 0.75 * thr["press"][i], name
        # Paper shape 2: the KMC replacement fix dominates CC-Basic.
        def mean(xs):
            return sum(xs) / len(xs)

        assert mean(thr["cc-kmc"]) > 1.3 * mean(thr["cc-basic"]), name
        # Paper shape 3: CC-Sched sits between Basic and KMC on average.
        assert (
            mean(thr["cc-basic"])
            <= mean(thr["cc-sched"]) * 1.05
        ), name
        assert mean(thr["cc-sched"]) <= mean(thr["cc-kmc"]) * 1.25, name
    artifact("fig2", render_fig2(data), data)
