"""Reproduction of every figure in the paper's evaluation section.

Figures 2-6b all read one experiment grid: trace × cluster size ×
system × MB per node.  :data:`FIGURES` is that grid as a table: each
entry names its cells as ``(trace, nodes, system, MB/node)`` tuples and
has a view that builds the figure's data from their results.
:func:`run_figures` runs the union of the requested figures' cells once
and returns each figure's data.  Figure 1 (a trace CDF) and the ring
companion figure run no cells and keep their own functions.  Each
``render_figN`` formats a figure's data as the rows/series the paper
plots.  Figures index into DESIGN.md §3; paper-vs-measured is recorded
in EXPERIMENTS.md.

All experiments honour the scale-down machinery in
:mod:`repro.experiments.defaults` (``REPRO_SCALE`` / ``REPRO_FULL``).
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass
from functools import partial

import numpy as np

from ..traces.analysis import (
    bytes_for_request_fraction, popularity_cdf, theoretical_max_hit_rate,
)
from ..traces.datasets import TRACE_NAMES
from . import defaults
from .charts import line_chart
from .report import format_table

__all__ = [
    "FIGURES", "FigureSpec", "cell_configs", "run_figures",
    "fig1", "render_fig1",
    "render_fig2", "render_fig3", "render_fig4", "render_fig5",
    "render_fig6a", "render_fig6b",
    "fig_ring", "render_fig_ring", "RING_CAPACITIES",
    "CC_VARIANTS", "ALL_SYSTEMS",
]

#: The middleware curves of Figure 2, paper order.
CC_VARIANTS = ["cc-basic", "cc-sched", "cc-kmc"]
#: All four curves of Figure 2.
ALL_SYSTEMS = ["press"] + CC_VARIANTS


# ---------------------------------------------------------------------------
# Figure 1: trace popularity/size CDF
# ---------------------------------------------------------------------------
def fig1() -> dict[str, list]:
    """Figure 1: cumulative request fraction and cumulative file-set size
    vs files sorted by request frequency, for Rutgers as in the paper.

    Returns 20 samples along the (normalized) file axis plus the paper's
    anchor: the MB needed to cover 99% of requests.
    """
    trace = defaults.workload("rutgers")
    cum_req, cum_mb = popularity_cdf(trace)
    n = len(cum_req)
    idxs = np.unique(
        np.clip((np.linspace(0.0, 1.0, 20) * (n - 1)).astype(int), 0, n - 1)
    )
    return {
        "trace": "rutgers",
        "file_fraction": [float(i / (n - 1) if n > 1 else 1.0) for i in idxs],
        "cum_request_fraction": [float(cum_req[i]) for i in idxs],
        "cum_size_mb": [float(cum_mb[i]) for i in idxs],
        "file_set_mb": trace.file_set_mb,
        "mb_for_99pct": bytes_for_request_fraction(trace, 0.99),
    }


def render_fig1(data: dict) -> str:
    """Print-ready Figure 1."""
    rows = [
        [ff, cr, mb]
        for ff, cr, mb in zip(
            data["file_fraction"],
            data["cum_request_fraction"],
            data["cum_size_mb"],
        )
    ]
    table = format_table(
        ["Files (frac, by popularity)", "Cum. requests (frac)", "Cum. size (MB)"],
        rows,
        title=f"Figure 1: {data['trace']} trace CDF",
        ndigits=3,
    )
    anchor = (
        f"\n99% of requests covered by {data['mb_for_99pct']:.1f} MB "
        f"of {data['file_set_mb']:.1f} MB total "
        f"(paper, full scale: 494 of 789 MB)"
    )
    return table + anchor


# ---------------------------------------------------------------------------
# Figures 2-6b: one cell table
# ---------------------------------------------------------------------------
#: A figure cell: ``(trace, nodes, system, MB/node)``.  Every figure cell
#: runs with the default params and seed and with
#: ``defaults.NUM_CLIENTS`` clients, so these four coordinates name it.
Cell = tuple[str, int, str, float]


@dataclass(frozen=True)
class FigureSpec:
    """One figure of the table: the cells it reads and its view."""

    cells: list[Cell]
    #: Builds the figure's data from ``{cell: ExperimentResult}``.
    view: Callable[[dict], dict]


def _grid(panels: Sequence, systems: Sequence[str],
          memories: Sequence[float]) -> list[Cell]:
    """The cells of ``(trace, nodes)`` panels: trace → system → memory."""
    return [
        (name, nodes, system, mem)
        for name, nodes in panels
        for system in systems
        for mem in memories
    ]


def _fig2(memories: Sequence[float], panels: Sequence | None = None
          ) -> FigureSpec:
    """Figure 2 (a-d): throughput of PRESS and the three middleware
    variants vs per-node memory, one panel per trace at 8 nodes (or per
    ``(trace, nodes)`` pair of ``panels``, as ``sweep`` passes them).
    Memory points pass through unconverted (int stays int), so BENCH
    params digests stay byte-stable against the committed baselines.
    """
    panels = list(panels or [(name, 8) for name in TRACE_NAMES])

    def view(res: dict) -> dict:
        return {
            name: {
                "memories_mb": list(memories),
                "throughput_rps": {
                    s: [res[name, nodes, s, mem].throughput_rps
                        for mem in memories]
                    for s in ALL_SYSTEMS
                },
            }
            for name, nodes in panels
        }

    return FigureSpec(_grid(panels, ALL_SYSTEMS, memories), view)


#: The paper's two representative panels: (trace, cluster size).
FIG3_PANELS = [("calgary", 4), ("rutgers", 8)]


def _normalized(metric: str, memories: Sequence[float]) -> FigureSpec:
    """Figures 3 and 5: each middleware variant's ``metric`` over
    PRESS's at every memory point of the two :data:`FIG3_PANELS`.

    Figure 3 (throughput) is the headline: the KMC variant achieves >80%
    of PRESS almost everywhere and >90% or parity in most cases.
    Figure 5 (mean response time) also keeps PRESS's milliseconds; the
    paper reports CC 5-10% worse and absolute times of 2-3 ms wall.
    """

    def view(res: dict) -> dict:
        out = {}
        for name, nodes in FIG3_PANELS:
            series = {
                s: [getattr(res[name, nodes, s, mem], metric)
                    for mem in memories]
                for s in ALL_SYSTEMS
            }
            press = series["press"]
            panel = {
                "memories_mb": list(memories),
                "normalized": {
                    s: [(v / p if p > 0 else 0.0)
                        for v, p in zip(series[s], press)]
                    for s in CC_VARIANTS
                },
            }
            if metric == "mean_response_ms":
                panel["press_ms"] = press
            out[f"{name}-{nodes}nodes"] = panel
        return out

    return FigureSpec(_grid(FIG3_PANELS, ALL_SYSTEMS, memories), view)


#: Figure 4's curves, in the order its data lists them.
FIG4_SYSTEMS = ["cc-basic", "cc-kmc", "press"]


def _fig4(memories: Sequence[float]) -> FigureSpec:
    """Figure 4: total hit rate of CC-Basic, CC-KMC and PRESS, plus the
    local/remote split and the theoretical maximum (Rutgers, 8 nodes)."""
    cells = _grid([("rutgers", 8)], FIG4_SYSTEMS, memories)

    def view(res: dict) -> dict:
        trace = res[cells[0]].config.trace
        return {
            "trace": "rutgers",
            "memories_mb": list(memories),
            "hit_rates": {
                s: {
                    part: [res["rutgers", 8, s, mem].hit_rates[part]
                           for mem in memories]
                    for part in ("total", "local", "remote")
                }
                for s in FIG4_SYSTEMS
            },
            "theoretical_max": [
                theoretical_max_hit_rate(trace, mem * 8) for mem in memories
            ],
        }

    return FigureSpec(cells, view)


def _fig6a(memories: Sequence[float]) -> FigureSpec:
    """Figure 6a: CC-KMC's disk/CPU/NIC utilization vs per-node memory
    (Rutgers, 8 nodes)."""
    cells = _grid([("rutgers", 8)], ["cc-kmc"], memories)

    def view(res: dict) -> dict:
        results = [res[cell] for cell in cells]
        return {
            "trace": "rutgers",
            "memories_mb": list(memories),
            # Disk, cpu, nic: the chart legend and the binding-resource
            # tie-break follow this order.
            "utilization": {
                resource: [r.workload.utilization[resource] for r in results]
                for resource in ("disk", "cpu", "nic")
            },
            "max_disk": [r.workload.max_utilization["disk"] for r in results],
        }

    return FigureSpec(cells, view)


#: Figure 6b's cluster sizes.
FIG6B_NODES = [4, 8, 16, 32]


def _fig6b(memories: Sequence[float]) -> FigureSpec:
    """Figure 6b: CC-KMC throughput vs cluster size at 32 MB/node
    (scaled; the memory axis is unused).  The paper reports near-linear
    scaling to 32 nodes."""
    mem = 32.0 * defaults.SCALE
    cells = [("rutgers", nodes, "cc-kmc", mem) for nodes in FIG6B_NODES]

    def view(res: dict) -> dict:
        results = [res[cell] for cell in cells]
        return {
            "trace": "rutgers",
            "mem_mb_per_node": mem,
            "node_counts": list(FIG6B_NODES),
            "throughput_rps": [r.throughput_rps for r in results],
            "hit_rates": [r.hit_rates["total"] for r in results],
        }

    return FigureSpec(cells, view)


#: Figures 2-6b: name -> spec over a per-node memory axis (MB).
FIGURES: dict[str, Callable[..., FigureSpec]] = {
    "fig2": _fig2,
    "fig3": partial(_normalized, "throughput_rps"),
    "fig4": _fig4,
    "fig5": partial(_normalized, "mean_response_ms"),
    "fig6a": _fig6a,
    "fig6b": _fig6b,
}


def cell_configs(cells: Sequence[Cell]) -> list:
    """One :class:`~repro.experiments.runner.ExperimentConfig` per cell,
    building each distinct trace once."""
    from .runner import ExperimentConfig

    traces = {
        name: defaults.workload(name)
        for name in dict.fromkeys(cell[0] for cell in cells)
    }
    return [
        ExperimentConfig(
            system=system,
            trace=traces[name],
            num_nodes=nodes,
            mem_mb_per_node=mem,
            num_clients=defaults.NUM_CLIENTS,
        )
        for name, nodes, system, mem in cells
    ]


def run_figures(
    names: Sequence[str],
    memories_mb: Sequence[float] | None = None,
    workers: int | None = None,
) -> dict[str, dict]:
    """Run the :data:`FIGURES` ``names`` and return each one's data.

    The union of their cells runs once, in first-seen order, through
    :func:`~repro.experiments.parallel.run_cells`: ``workers`` shards it
    across processes (default: the ``REPRO_WORKERS`` knob) and the data
    is byte-identical to a serial run.  ``memories_mb`` defaults to the
    paper's 4-512 MB axis, scaled.
    """
    from .parallel import run_cells

    memories = list(memories_mb if memories_mb is not None
                    else defaults.memory_points_mb())
    specs = {name: FIGURES[name](memories) for name in names}
    cells = list(dict.fromkeys(
        cell for spec in specs.values() for cell in spec.cells
    ))
    results = dict(zip(cells, run_cells(cell_configs(cells), workers=workers)))
    return {name: spec.view(results) for name, spec in specs.items()}


def render_fig2(data: dict) -> str:
    """Print-ready Figure 2."""
    parts = []
    for name, panel in data.items():
        rows = [
            [f"{mem:g}"] + [panel["throughput_rps"][s][i] for s in ALL_SYSTEMS]
            for i, mem in enumerate(panel["memories_mb"])
        ]
        parts.append(
            format_table(
                ["Mem/node (MB)"] + ALL_SYSTEMS,
                rows,
                title=f"Figure 2: throughput (req/s), {name}, 8 nodes",
                ndigits=0,
            )
        )
        parts.append(
            line_chart(
                panel["memories_mb"],
                {s: panel["throughput_rps"][s] for s in ALL_SYSTEMS},
                y_label="req/s",
                x_label="MB/node",
            )
        )
    return "\n\n".join(parts)


def _render_normalized(data: dict, title: str) -> str:
    """Figures 3 and 5: a table and a chart per panel; Figure 5's
    ``press_ms`` becomes a last ``press (ms)`` column."""
    parts = []
    for panel_name, panel in data.items():
        press_ms = panel.get("press_ms")
        rows = [
            [mem]
            + [panel["normalized"][s][i] for s in CC_VARIANTS]
            + ([press_ms[i]] if press_ms is not None else [])
            for i, mem in enumerate(panel["memories_mb"])
        ]
        parts.append(
            format_table(
                ["Mem/node (MB)"] + CC_VARIANTS
                + (["press (ms)"] if press_ms is not None else []),
                rows,
                title=f"{title}, {panel_name}",
            )
        )
        parts.append(
            line_chart(
                panel["memories_mb"],
                {s: panel["normalized"][s] for s in CC_VARIANTS},
                y_label="x PRESS",
                x_label="MB/node",
            )
        )
    return "\n\n".join(parts)


def render_fig3(data: dict) -> str:
    """Print-ready Figure 3."""
    return _render_normalized(data, "Figure 3: throughput normalized to PRESS")


def render_fig4(data: dict) -> str:
    """Print-ready Figure 4."""
    rows = []
    hr = data["hit_rates"]
    for i, mem in enumerate(data["memories_mb"]):
        rows.append(
            [
                mem,
                hr["cc-basic"]["total"][i],
                hr["cc-kmc"]["total"][i],
                hr["cc-kmc"]["local"][i],
                hr["cc-kmc"]["remote"][i],
                hr["press"]["total"][i],
                data["theoretical_max"][i],
            ]
        )
    table = format_table(
        ["Mem/node (MB)", "cc-basic", "cc-kmc", "(local)", "(remote)",
         "press", "max possible"],
        rows,
        title=f"Figure 4: hit rates, {data['trace']}, 8 nodes",
    )
    chart = line_chart(
        data["memories_mb"],
        {
            "cc-basic": hr["cc-basic"]["total"],
            "cc-kmc": hr["cc-kmc"]["total"],
            "press": hr["press"]["total"],
            "max": data["theoretical_max"],
        },
        y_label="hit rate",
        x_label="MB/node",
    )
    return table + "\n\n" + chart


def render_fig5(data: dict) -> str:
    """Print-ready Figure 5."""
    return _render_normalized(
        data, "Figure 5: mean response time normalized to PRESS")


def render_fig6a(data: dict) -> str:
    """Print-ready Figure 6a."""
    rows = [
        [
            mem,
            data["utilization"]["disk"][i],
            data["max_disk"][i],
            data["utilization"]["cpu"][i],
            data["utilization"]["nic"][i],
        ]
        for i, mem in enumerate(data["memories_mb"])
    ]
    table = format_table(
        ["Mem/node (MB)", "disk", "disk (max node)", "cpu", "nic"],
        rows,
        title=(
            f"Figure 6a: CC-KMC resource utilization, {data['trace']}, 8 nodes"
        ),
    )
    chart = line_chart(
        data["memories_mb"],
        dict(data["utilization"]),
        y_label="utilization",
        x_label="MB/node",
    )
    # Binding-resource narrative: which resource saturates first at each
    # memory point (the paper's argument for why more memory helps —
    # the disk binds at small memory, then the bottleneck migrates).
    util = data["utilization"]
    binding = [
        max(util, key=lambda res: util[res][i])
        for i in range(len(data["memories_mb"]))
    ]
    narrative = [
        "binding resource by memory point: "
        + ", ".join(
            f"{mem:g}MB={res}"
            for mem, res in zip(data["memories_mb"], binding)
        )
    ]
    small_mem = binding[0]
    narrative.append(
        f"at {data['memories_mb'][0]:g} MB/node the {small_mem} is the "
        f"binding resource ({util[small_mem][0]:.0%} utilized, "
        f"{data['max_disk'][0]:.0%} on the hottest node's disk)"
        + (
            f"; by {data['memories_mb'][-1]:g} MB/node the bottleneck "
            f"shifts to the {binding[-1]}"
            if binding[-1] != small_mem
            else ""
        )
    )
    return table + "\n\n" + chart + "\n\n" + "\n".join(narrative)


def render_fig6b(data: dict) -> str:
    """Print-ready Figure 6b."""
    base = data["throughput_rps"][0] or 1.0
    base_nodes = data["node_counts"][0]
    rows = [
        [
            n,
            data["throughput_rps"][i],
            data["throughput_rps"][i] / base * base_nodes,
            data["hit_rates"][i],
        ]
        for i, n in enumerate(data["node_counts"])
    ]
    table = format_table(
        ["Nodes", "Throughput (req/s)", "Speedup x base nodes", "Hit rate"],
        rows,
        title=(
            f"Figure 6b: CC-KMC scalability, {data['trace']}, "
            f"{data['mem_mb_per_node']:g} MB/node"
        ),
    )
    chart = line_chart(
        data["node_counts"],
        {"throughput": data["throughput_rps"]},
        y_label="req/s",
        x_label="nodes",
    )
    return table + "\n\n" + chart


# ---------------------------------------------------------------------------
# Figure R: hash-partitioned LRU miss-ratio convergence
# ---------------------------------------------------------------------------
#: Figure R's analytic model: cluster sizes, per-node capacities in
#: blocks, the seeded Zipf request stream, and ring points per node.
RING_NODE_COUNTS = (16, 64, 256)
RING_CAPACITIES = (4, 16, 64)
RING_NUM_FILES = 60_000
RING_NUM_REQUESTS = 150_000
RING_THETA = 0.8
RING_VNODES = 64
RING_SEED = 0


def fig_ring() -> dict:
    """Companion figure: miss-ratio convergence of the hash-partitioned
    LRU toward a single LRU of the aggregate capacity.

    A consistent-hash ring homes each file on one node's LRU; the
    asymptotic-LRU result (PAPERS.md) says this partitioning costs
    nothing in miss ratio as per-node capacity grows, at every cluster
    size, so one LRU of the aggregate capacity bounds what a
    content-partitioned cache can reach.  One panel per node count:
    partitioned vs single-LRU miss ratio over the same seeded Zipf
    stream, swept over per-node capacity.  Analytic (timing-free): no
    protocol, network or disk.
    """
    from ..analytic.ring import convergence_point, zipf_requests

    requests = zipf_requests(RING_NUM_FILES, RING_NUM_REQUESTS,
                             theta=RING_THETA, seed=RING_SEED)
    panels = {}
    for nodes in RING_NODE_COUNTS:
        points = [
            convergence_point(requests, nodes, cap, vnodes=RING_VNODES,
                              seed=RING_SEED)
            for cap in RING_CAPACITIES
        ]
        panels[str(nodes)] = {
            "capacities_per_node": list(RING_CAPACITIES),
            "partitioned_miss": [p["partitioned_miss"] for p in points],
            "single_miss": [p["single_miss"] for p in points],
            "gap": [p["gap"] for p in points],
        }
    return {
        "num_files": RING_NUM_FILES,
        "num_requests": RING_NUM_REQUESTS,
        "theta": RING_THETA,
        "vnodes": RING_VNODES,
        "seed": RING_SEED,
        "node_counts": list(RING_NODE_COUNTS),
        "panels": panels,
    }


def render_fig_ring(data: dict) -> str:
    """Print-ready Figure R."""
    parts = []
    for nodes in data["node_counts"]:
        panel = data["panels"][str(nodes)]
        rows = [
            [
                cap,
                panel["partitioned_miss"][i],
                panel["single_miss"][i],
                panel["gap"][i],
            ]
            for i, cap in enumerate(panel["capacities_per_node"])
        ]
        parts.append(
            format_table(
                ["Blocks/node", "Partitioned miss", "Single-LRU miss", "Gap"],
                rows,
                title=(
                    f"Figure R ({nodes} nodes): partitioned vs aggregate "
                    f"LRU, Zipf({data['theta']:g})"
                ),
                ndigits=4,
            )
        )
    largest = str(data["node_counts"][-1])
    panel = data["panels"][largest]
    parts.append(
        line_chart(
            panel["capacities_per_node"],
            {
                "partitioned": panel["partitioned_miss"],
                "single": panel["single_miss"],
            },
            y_label="miss ratio",
            x_label="blocks/node",
        )
    )
    parts.append(
        f"at {largest} nodes the partitioned/single gap falls "
        f"{panel['gap'][0]:.4f} -> {panel['gap'][-1]:.4f} as per-node "
        "capacity grows: hash-partitioning the cache costs ~nothing "
        "asymptotically"
    )
    return "\n\n".join(parts)
