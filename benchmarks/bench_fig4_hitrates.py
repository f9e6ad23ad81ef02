"""Figure 4: hit rates (Rutgers, 8 nodes).

Paper claims encoded:
* CC-KMC's total hit rate approaches PRESS's and the theoretical max;
* CC-KMC's hits are mostly REMOTE (paper: local 12-21%, remote 60-75%
  at <= 64 MB/node);
* CC-Basic's hit rate is clearly lower.
"""

from conftest import bench_memories

from repro.experiments.figures import render_fig4, run_figures


def run_fig4():
    return run_figures(["fig4"], memories_mb=bench_memories())["fig4"]


def test_bench_fig4(benchmark, artifact):
    data = benchmark.pedantic(run_fig4, rounds=1, iterations=1)
    hr = data["hit_rates"]
    for i, mem in enumerate(data["memories_mb"]):
        assert hr["cc-kmc"]["total"][i] >= hr["press"]["total"][i] - 0.12
        assert hr["cc-kmc"]["total"][i] <= data["theoretical_max"][i] + 0.05
        # KMC >= Basic holds except in degenerate caches of a few dozen
        # blocks per node, where block-count granularity (which does not
        # scale down with REPRO_SCALE) distorts the comparison.
        if mem * 1024 / 8 >= 40:
            assert (
                hr["cc-kmc"]["total"][i]
                >= hr["cc-basic"]["total"][i] - 0.02
            ), mem
    # Mostly-remote hits at the small-memory end.
    assert hr["cc-kmc"]["remote"][0] > hr["cc-kmc"]["local"][0]
    artifact("fig4", render_fig4(data), data)
