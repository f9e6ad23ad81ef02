#!/usr/bin/env python3
"""The paper's headline experiment, in miniature.

Runs the cluster web server under all four systems — PRESS (the
locality-conscious baseline) and the three cooperative-caching variants —
on a scaled-down Rutgers trace, and prints throughput normalized to
PRESS.  This is Figure 2/3 at a single glance; the full sweep lives in
``benchmarks/``.

Run:  python examples/webserver_comparison.py
      REPRO_SCALE=0.05 python examples/webserver_comparison.py   # bigger
"""

from repro.experiments import (
    ALL_SYSTEMS,
    ExperimentConfig,
    defaults,
    format_table,
    run_experiment,
    workload,
)

NUM_NODES = 8
MEM_MB_PER_NODE = 32 * defaults.SCALE  # the paper's 32 MB/node point, scaled

print(f"workload: rutgers @ scale {defaults.SCALE:g}, {NUM_NODES} nodes, "
      f"{MEM_MB_PER_NODE:g} MB/node\n")

trace = workload("rutgers")
rows = []
press_rps = None
for system in ALL_SYSTEMS:
    res = run_experiment(
        ExperimentConfig(
            system=system,
            trace=trace,
            num_nodes=NUM_NODES,
            mem_mb_per_node=MEM_MB_PER_NODE,
        )
    )
    if system == "press":
        press_rps = res.throughput_rps
    hr = res.hit_rates
    rows.append([
        system,
        res.throughput_rps,
        res.throughput_rps / press_rps if press_rps else None,
        hr["total"],
        hr["local"],
        hr["remote"],
        res.mean_response_ms,
    ])

print(format_table(
    ["System", "req/s", "vs PRESS", "hit", "(local)", "(remote)",
     "mean resp ms"],
    rows,
))
print()
print("Expected shape (paper): cc-basic ~20-35% of PRESS, cc-sched in")
print("between, cc-kmc >80% — most of its hits served from peer memory.")
