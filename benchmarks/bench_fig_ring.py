"""Ring-convergence benchmark: partitioned vs aggregate LRU miss ratio.

Regenerates the ``fig_ring`` companion figure — the hash-partitioned
LRU (one consistent-hash arc per node) against a single LRU of the
aggregate capacity over the same seeded Zipf stream — and writes its
data as the trajectory record ``benchmarks/results/ring.json``.  It is
independent of the ``REPRO_*`` workload knobs: its params are the
analytic-model constants of :func:`~repro.experiments.figures.fig_ring`,
and the data is fully deterministic (seeded stream, stable ring hash),
so any drift is a code change, not noise.  The record has no baseline:
the convergence check below is this bench's gate.
"""

from conftest import RESULTS_DIR

from repro.bench.schema import dump_record, wrap_result
from repro.experiments.figures import RING_CAPACITIES, fig_ring, render_fig_ring


def test_bench_fig_ring(benchmark, artifact):
    data = benchmark.pedantic(fig_ring, rounds=1, iterations=1)

    # Convergence side-check: the gap shrinks from the smallest to the
    # largest per-node capacity in every panel (the claim under test).
    for nodes, panel in data["panels"].items():
        assert panel["gap"][0] > panel["gap"][-1] >= 0.0, nodes

    record = wrap_result(
        "ring",
        data,
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
    artifact("ring", render_fig_ring(data))
    dump_record(record, RESULTS_DIR / "ring.json")
