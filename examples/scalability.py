#!/usr/bin/env python3
"""Cluster-size scaling of the cooperative caching server (Figure 6b).

Runs the Figure 6b entry of the figure table: the cluster grows from 4
to 32 nodes at fixed per-node memory, and the table reports throughput
and speedup — the paper reports near-linear scaling because round-robin
DNS diffuses hot blocks across all memories.

Run:  python examples/scalability.py
"""

from repro.experiments import defaults, render_fig6b, run_figures

data = run_figures(["fig6b"])["fig6b"]

print(f"workload: rutgers @ scale {defaults.SCALE:g}, "
      f"{data['mem_mb_per_node']:g} MB/node\n")
print(render_fig6b(data))
print()

nodes, thr = data["node_counts"], data["throughput_rps"]
print(f"speedup {nodes[0]} -> {nodes[-1]} nodes: {thr[-1] / thr[0]:.2f}x "
      f"(linear: {nodes[-1] / nodes[0]:g}x)")
print("More nodes bring both more CPUs/disks *and* more aggregate cache,")
print("so scaling can even be super-linear while the working set is")
print("larger than total memory.")
