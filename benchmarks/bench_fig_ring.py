"""Ring-convergence benchmark: partitioned vs aggregate LRU miss ratio.

Regenerates the ``fig_ring`` companion figure — the hash-partitioned
LRU (one arc per node, as the PartitionedDirectory homes blocks)
against a single LRU of the aggregate capacity over the same seeded
Zipf stream — and records the per-panel gap metrics as a trajectory
record.  It is independent of the ``REPRO_*`` workload knobs: its
params are the analytic-model constants
below, and the metrics are fully deterministic (seeded stream, stable
ring hash), so any drift is a code change, not noise.
"""

from conftest import REPO_ROOT, RESULTS_DIR

from repro.bench.schema import dump_record, wrap_result
from repro.experiments.figures import fig_ring, render_fig_ring

SEED = 0
NODE_COUNTS = (16, 64, 256)
CAPACITIES = (4, 16, 64)
NUM_FILES = 60_000
NUM_REQUESTS = 150_000
THETA = 0.8
VNODES = 64


def test_bench_fig_ring(benchmark, artifact):
    data = benchmark.pedantic(
        fig_ring,
        kwargs=dict(
            node_counts=NODE_COUNTS,
            capacities_per_node=CAPACITIES,
            num_files=NUM_FILES,
            num_requests=NUM_REQUESTS,
            theta=THETA,
            vnodes=VNODES,
            seed=SEED,
        ),
        rounds=1,
        iterations=1,
    )

    # Convergence side-check: the gap shrinks from the smallest to the
    # largest per-node capacity in every panel (the claim under test).
    for nodes, panel in data["panels"].items():
        assert panel["gap"][0] > panel["gap"][-1] >= 0.0, nodes

    metrics = {}
    for nodes, panel in data["panels"].items():
        metrics[f"n{nodes}.gap_smallest"] = panel["gap"][0]
        metrics[f"n{nodes}.gap_largest"] = panel["gap"][-1]
        metrics[f"n{nodes}.partitioned_miss_largest"] = (
            panel["partitioned_miss"][-1]
        )
    record = wrap_result(
        "ring",
        data,
        seed=SEED,
        params={
            "node_counts": list(NODE_COUNTS),
            "capacities_per_node": list(CAPACITIES),
            "num_files": NUM_FILES,
            "num_requests": NUM_REQUESTS,
            "theta": THETA,
            "vnodes": VNODES,
        },
        metrics=metrics,
    )
    artifact("ring", render_fig_ring(data))
    dump_record(record, RESULTS_DIR / "ring.json")
    dump_record(record, REPO_ROOT / "BENCH_ring.json")
