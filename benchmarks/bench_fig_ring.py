"""Ring-convergence benchmark: partitioned vs aggregate LRU miss ratio.

Regenerates the ``fig_ring`` companion figure — the hash-partitioned
LRU (one consistent-hash arc per node) against a single LRU of the
aggregate capacity over the same seeded Zipf stream — and writes its
data as the trajectory record ``benchmarks/results/ring.json``.  It is
independent of the ``REPRO_*`` workload knobs: its params are the
analytic-model constants of :func:`~repro.experiments.figures.fig_ring`,
and the data is fully deterministic (seeded stream, stable ring hash),
so any drift is a code change, not noise.
"""

from repro.experiments.figures import RING_CAPACITIES, fig_ring, render_fig_ring


def test_bench_fig_ring(artifact):
    data = fig_ring()

    # Convergence side-check: the gap shrinks from the smallest to the
    # largest per-node capacity in every panel (the claim under test).
    for nodes, panel in data["panels"].items():
        assert panel["gap"][0] > panel["gap"][-1] >= 0.0, nodes

    artifact(
        "ring", render_fig_ring(data), data,
        seed=data["seed"],
        params={
            "node_counts": data["node_counts"],
            "capacities_per_node": list(RING_CAPACITIES),
            "num_files": data["num_files"],
            "num_requests": data["num_requests"],
            "theta": data["theta"],
            "vnodes": data["vnodes"],
        },
    )
