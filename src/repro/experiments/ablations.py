"""Ablations and extensions beyond the paper's published curves (A1-A9).

Each function mirrors the figure API: run → structured data, plus a
``render_*`` printer.  DESIGN.md §3 motivates each study.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from ..cache.block import FileLayout
from ..cache.directory import HomeMap
from ..cluster.cluster import Cluster
from ..core.config import CoopCacheConfig
from ..core.wholefile import WholeFileCoopServer
from ..params import DEFAULT_PARAMS, HARDWARE_CONFIGS
from ..sim.engine import Simulator
from ..sim.faults import FaultPlan
from ..web.client import ClosedLoopDriver
from . import defaults
from .report import format_table
from .runner import ExperimentConfig, run_experiment
from .sweep import system_label

__all__ = [
    "a1_hints", "render_a1",
    "a2_hotspot", "render_a2",
    "a3_wholefile", "render_a3",
    "a4_disksched", "render_a4",
    "a5_lan", "render_a5",
    "a6_replacement", "render_a6",
    "a7_writes", "render_a7",
    "a8_temporal", "render_a8",
    "a9_policies", "render_a9",
    "a10_faults", "render_a10",
]


def _std_point(trace, system, mem_mb, num_nodes=8, params=DEFAULT_PARAMS,
               home_strategy="round_robin"):
    return run_experiment(
        ExperimentConfig(
            system=system,
            trace=trace,
            num_nodes=num_nodes,
            mem_mb_per_node=mem_mb,
            num_clients=defaults.NUM_CLIENTS,
            params=params,
            home_strategy=home_strategy,
        )
    )


def _default_mem() -> float:
    """The mid-axis point the ablations anchor on (32 MB/node scaled)."""
    return 32.0 * defaults.SCALE


# ---------------------------------------------------------------------------
# A1: hint-based directory vs the paper's perfect directory
# ---------------------------------------------------------------------------
def a1_hints(
    accuracies: Sequence[float] = (1.0, 0.98, 0.95, 0.9, 0.7),
    trace_name: str = "rutgers",
    mem_mb: float | None = None,
) -> dict:
    """Does the perfect-directory assumption matter?  Sarkar & Hartman's
    hint accuracy (~98%) should cost almost nothing."""
    trace = defaults.workload(trace_name)
    mem = mem_mb if mem_mb is not None else _default_mem()
    perfect = _std_point(trace, "cc-kmc", mem)
    rows = []
    for acc in accuracies:
        cfg = CoopCacheConfig(directory="hints", hint_accuracy=acc)
        res = _std_point(trace, cfg, mem)
        rows.append(
            {
                "accuracy": acc,
                "throughput_rps": res.throughput_rps,
                "vs_perfect": (
                    res.throughput_rps / perfect.throughput_rps
                    if perfect.throughput_rps else 0.0
                ),
                "hit_total": res.hit_rates["total"],
                "peer_misses": res.counters.get("peer_miss", 0),
            }
        )
    return {
        "trace": trace_name,
        "mem_mb": mem,
        "perfect_rps": perfect.throughput_rps,
        "points": rows,
    }


def render_a1(data: dict | None = None, **kw) -> str:
    """Print-ready A1."""
    data = data or a1_hints(**kw)
    rows = [
        [p["accuracy"], p["throughput_rps"], p["vs_perfect"],
         p["hit_total"], p["peer_misses"]]
        for p in data["points"]
    ]
    return format_table(
        ["Hint accuracy", "Throughput (req/s)", "vs perfect dir",
         "Hit rate", "Bounced requests"],
        rows,
        title=(
            f"A1: hint-based directory, {data['trace']}, "
            f"{data['mem_mb']:g} MB/node "
            f"(perfect dir: {data['perfect_rps']:.0f} req/s)"
        ),
    )


# ---------------------------------------------------------------------------
# A2: hot files concentrated on one home node
# ---------------------------------------------------------------------------
def a2_hotspot(
    trace_name: str = "rutgers",
    mem_mb: float | None = None,
    hot_fraction: float = 0.05,
    num_nodes: int = 8,
) -> dict:
    """Paper Section 5: "It would be interesting to observe [the
    middleware's] performance under a forced concentration of hot files
    on a single node."  We re-home the hottest ``hot_fraction`` of files
    onto node 0 and compare against the round-robin spread."""
    trace = defaults.workload(trace_name)
    mem = mem_mb if mem_mb is not None else _default_mem()
    spread = _std_point(trace, "cc-kmc", mem, num_nodes=num_nodes)

    # Build the concentrated home map by hand.
    counts = trace.request_counts()
    hot = np.argsort(-counts)[: max(1, int(len(counts) * hot_fraction))]
    from ..web.server import CoopCacheWebServer
    from ..core.middleware import CoopCacheLayer
    from ..core.api import blocks_for_mb
    from ..core.config import variant

    sim = Simulator()
    cluster = Cluster(sim, DEFAULT_PARAMS, num_nodes)
    layout = FileLayout(trace.sizes_kb, DEFAULT_PARAMS)
    homes = HomeMap(layout.num_files, num_nodes)
    homes.concentrate((int(f) for f in hot), node_id=0)
    layer = CoopCacheLayer(
        cluster, layout, homes, blocks_for_mb(mem), config=variant("cc-kmc")
    )
    driver = ClosedLoopDriver(
        sim, cluster, CoopCacheWebServer(layer), trace,
        num_clients=defaults.NUM_CLIENTS,
    )
    conc = driver.run()
    return {
        "trace": trace_name,
        "mem_mb": mem,
        "hot_fraction": hot_fraction,
        "spread_rps": spread.throughput_rps,
        "concentrated_rps": conc.throughput_rps,
        "ratio": (
            conc.throughput_rps / spread.throughput_rps
            if spread.throughput_rps else 0.0
        ),
        "concentrated_disk_max": conc.max_utilization["disk"],
        "spread_disk_max": spread.workload.max_utilization["disk"],
    }


def render_a2(data: dict | None = None, **kw) -> str:
    """Print-ready A2."""
    data = data or a2_hotspot(**kw)
    rows = [
        ["round-robin homes", data["spread_rps"], data["spread_disk_max"]],
        [f"hottest {data['hot_fraction']:.0%} on node 0",
         data["concentrated_rps"], data["concentrated_disk_max"]],
    ]
    table = format_table(
        ["Home placement", "Throughput (req/s)", "Max disk util"],
        rows,
        title=f"A2: hot-file concentration, {data['trace']}",
    )
    return table + f"\nconcentrated/spread = {data['ratio']:.2f}"


# ---------------------------------------------------------------------------
# A3: whole-file adaptation vs block granularity
# ---------------------------------------------------------------------------
def a3_wholefile(
    trace_name: str = "rutgers",
    memories_mb: Sequence[float] | None = None,
    num_nodes: int = 8,
) -> dict:
    """Paper Section 6: is a whole-file adaptation of the middleware
    better for a server that always reads whole files?"""
    trace = defaults.workload(trace_name)
    mems = list(memories_mb if memories_mb is not None
                else defaults.memory_points_mb([8, 32, 128]))
    rows = []
    for mem in mems:
        block = _std_point(trace, "cc-kmc", mem, num_nodes=num_nodes)

        sim = Simulator()
        cluster = Cluster(sim, DEFAULT_PARAMS, num_nodes)
        layout = FileLayout(trace.sizes_kb, DEFAULT_PARAMS)
        homes = HomeMap(layout.num_files, num_nodes)
        server = WholeFileCoopServer(
            cluster, layout, homes, capacity_kb=mem * 1024.0
        )
        driver = ClosedLoopDriver(
            sim, cluster, server, trace, num_clients=defaults.NUM_CLIENTS
        )
        whole = driver.run()
        rows.append(
            {
                "mem_mb": mem,
                "block_rps": block.throughput_rps,
                "wholefile_rps": whole.throughput_rps,
                "block_hit": block.hit_rates["total"],
                "wholefile_hit": server.hit_rates()["total"],
            }
        )
    return {"trace": trace_name, "points": rows}


def render_a3(data: dict | None = None, **kw) -> str:
    """Print-ready A3."""
    data = data or a3_wholefile(**kw)
    rows = [
        [p["mem_mb"], p["block_rps"], p["wholefile_rps"],
         p["block_hit"], p["wholefile_hit"]]
        for p in data["points"]
    ]
    return format_table(
        ["Mem/node (MB)", "block req/s", "whole-file req/s",
         "block hit", "whole-file hit"],
        rows,
        title=f"A3: caching granularity, {data['trace']}, 8 nodes",
    )


# ---------------------------------------------------------------------------
# A4: disk scheduling ablation
# ---------------------------------------------------------------------------
def a4_disksched(
    trace_name: str = "rutgers",
    mem_mb: float | None = None,
) -> dict:
    """Isolate the CC-Basic -> CC-Sched step: FIFO vs SCAN disk queues
    for both replacement policies."""
    trace = defaults.workload(trace_name)
    mem = mem_mb if mem_mb is not None else _default_mem()
    rows = []
    for policy in ("basic", "kmc"):
        for disk in ("fifo", "scan"):
            cfg = CoopCacheConfig(policy=policy, disk_discipline=disk)
            res = _std_point(trace, cfg, mem)
            rows.append(
                {
                    "policy": policy,
                    "disk": disk,
                    "throughput_rps": res.throughput_rps,
                    "hit_total": res.hit_rates["total"],
                    "mean_response_ms": res.mean_response_ms,
                }
            )
    return {"trace": trace_name, "mem_mb": mem, "points": rows}


def render_a4(data: dict | None = None, **kw) -> str:
    """Print-ready A4."""
    data = data or a4_disksched(**kw)
    rows = [
        [p["policy"], p["disk"], p["throughput_rps"], p["hit_total"],
         p["mean_response_ms"]]
        for p in data["points"]
    ]
    return format_table(
        ["Policy", "Disk queue", "Throughput (req/s)", "Hit rate",
         "Mean resp (ms)"],
        rows,
        title=f"A4: disk scheduling, {data['trace']}, {data['mem_mb']:g} MB/node",
    )


# ---------------------------------------------------------------------------
# A5: LAN speed sensitivity
# ---------------------------------------------------------------------------
def a5_lan(
    trace_name: str = "rutgers",
    mem_mb: float | None = None,
    configs: Sequence[str] = ("lan-100mb", "lan-1gb", "lan-10gb"),
) -> dict:
    """Paper Section 6: "this paper assumes a very specific set of
    hardware characteristics" — how does the CC-vs-PRESS comparison move
    with LAN speed?  (The whole CC argument rests on fast LANs.)"""
    trace = defaults.workload(trace_name)
    mem = mem_mb if mem_mb is not None else _default_mem()
    rows = []
    for name in configs:
        params = HARDWARE_CONFIGS[name]
        press = _std_point(trace, "press", mem, params=params)
        kmc = _std_point(trace, "cc-kmc", mem, params=params)
        rows.append(
            {
                "config": name,
                "press_rps": press.throughput_rps,
                "kmc_rps": kmc.throughput_rps,
                "ratio": (
                    kmc.throughput_rps / press.throughput_rps
                    if press.throughput_rps else 0.0
                ),
            }
        )
    return {"trace": trace_name, "mem_mb": mem, "points": rows}


def render_a5(data: dict | None = None, **kw) -> str:
    """Print-ready A5."""
    data = data or a5_lan(**kw)
    rows = [
        [p["config"], p["press_rps"], p["kmc_rps"], p["ratio"]]
        for p in data["points"]
    ]
    return format_table(
        ["LAN", "PRESS req/s", "CC-KMC req/s", "KMC/PRESS"],
        rows,
        title=f"A5: LAN sensitivity, {data['trace']}, {data['mem_mb']:g} MB/node",
    )


# ---------------------------------------------------------------------------
# A6: replacement-policy component ablation
# ---------------------------------------------------------------------------
def a6_replacement(
    trace_name: str = "rutgers",
    mem_mb: float | None = None,
) -> dict:
    """Which ingredient buys what: policy (basic vs KMC) x forwarding
    (second chance on/off)."""
    trace = defaults.workload(trace_name)
    mem = mem_mb if mem_mb is not None else _default_mem()
    rows = []
    for policy in ("basic", "kmc"):
        for forward in (True, False):
            cfg = CoopCacheConfig(policy=policy, forward_on_evict=forward)
            res = _std_point(trace, cfg, mem)
            rows.append(
                {
                    "label": system_label(cfg),
                    "policy": policy,
                    "forward": forward,
                    "throughput_rps": res.throughput_rps,
                    "hit_total": res.hit_rates["total"],
                    "forwards": res.counters.get("forwards", 0),
                }
            )
    return {"trace": trace_name, "mem_mb": mem, "points": rows}


def render_a6(data: dict | None = None, **kw) -> str:
    """Print-ready A6."""
    data = data or a6_replacement(**kw)
    rows = [
        [p["policy"], "on" if p["forward"] else "off",
         p["throughput_rps"], p["hit_total"], p["forwards"]]
        for p in data["points"]
    ]
    return format_table(
        ["Policy", "Forwarding", "Throughput (req/s)", "Hit rate",
         "Masters forwarded"],
        rows,
        title=(
            f"A6: replacement components, {data['trace']}, "
            f"{data['mem_mb']:g} MB/node"
        ),
    )


# ---------------------------------------------------------------------------
# A7: read/write workloads (the paper's "writes as well as reads")
# ---------------------------------------------------------------------------
def a7_writes(
    trace_name: str = "rutgers",
    mem_mb: float | None = None,
    write_ratios: Sequence[float] = (0.0, 0.1, 0.3),
    num_nodes: int = 8,
) -> dict:
    """Paper Section 6: "we plan to investigate how to support writes as
    well as reads".  Every request is a write with probability
    ``write_ratio``; compares write-back against write-through."""
    trace = defaults.workload(trace_name)
    mem = mem_mb if mem_mb is not None else _default_mem()
    rows = []
    for ratio in write_ratios:
        row = {"write_ratio": ratio}
        for policy in ("write-back", "write-through"):
            res = _run_rw_point(trace, mem, ratio, policy, num_nodes)
            key = policy.replace("write-", "")
            row[f"{key}_rps"] = res["throughput_rps"]
            row[f"{key}_flushes"] = res["flushed_blocks"]
            row[f"{key}_invalidations"] = res["invalidations"]
        rows.append(row)
    return {"trace": trace_name, "mem_mb": mem, "points": rows}


def _run_rw_point(trace, mem_mb, write_ratio, write_policy, num_nodes):
    """One closed-loop run where a fraction of requests are writes."""
    from ..core.api import blocks_for_mb
    from ..core.middleware import CoopCacheLayer
    from ..sim.rng import stream
    from ..web.client import ClosedLoopDriver
    from ..web.server import CoopCacheWebServer

    cfg = CoopCacheConfig(write_policy=write_policy)
    sim = Simulator()
    cluster = Cluster(sim, DEFAULT_PARAMS, num_nodes,
                      disk_discipline=cfg.disk_discipline)
    layout = FileLayout(trace.sizes_kb, DEFAULT_PARAMS)
    homes = HomeMap(layout.num_files, num_nodes)
    layer = CoopCacheLayer(cluster, layout, homes, blocks_for_mb(mem_mb),
                           config=cfg)
    web = CoopCacheWebServer(layer)
    rng = stream(17, "a7", write_policy, int(write_ratio * 1000))

    class ReadWriteService:
        """Web service where some GETs are PUTs."""

        def handle(self, node, file_id):
            """GET or (with probability write_ratio) PUT one file."""
            if rng.random() < write_ratio:
                yield node.cpu.submit(layer.params.cpu.parse_ms)
                yield from layer.write(node, file_id)
                yield node.nic.submit(
                    layer.params.network.transfer_ms(0.3)  # small ACK
                )
            else:
                yield from web.handle(node, file_id)

        def reset_stats(self):
            """Discard warm-up counters."""
            web.reset_stats()

    driver = ClosedLoopDriver(sim, cluster, ReadWriteService(), trace,
                              num_clients=defaults.NUM_CLIENTS)
    result = driver.run()
    return {
        "throughput_rps": result.throughput_rps,
        "flushed_blocks": layer.counters.get("flushed_blocks"),
        "invalidations": layer.counters.get("invalidations"),
    }


def render_a7(data: dict | None = None, **kw) -> str:
    """Print-ready A7."""
    data = data or a7_writes(**kw)
    rows = [
        [f"{p['write_ratio']:.0%}", p["back_rps"], p["through_rps"],
         p["back_flushes"], p["through_flushes"], p["back_invalidations"]]
        for p in data["points"]
    ]
    return format_table(
        ["Write ratio", "write-back req/s", "write-through req/s",
         "wb flushes", "wt flushes", "wb invalidations"],
        rows,
        title=(
            f"A7: read/write workloads, {data['trace']}, "
            f"{data['mem_mb']:g} MB/node"
        ),
    )


# ---------------------------------------------------------------------------
# A8: temporal locality sensitivity
# ---------------------------------------------------------------------------
def a8_temporal(
    trace_name: str = "rutgers",
    mem_mb: float | None = None,
    alphas: Sequence[float] = (0.0, 0.2, 0.4),
    num_nodes: int = 8,
) -> dict:
    """How much does the i.i.d.-Zipf simplification matter?

    The synthetic traces draw requests i.i.d. from the popularity
    distribution (DESIGN.md §4.5); real logs add short-term temporal
    locality on top.  This study regenerates the workload with
    increasing re-reference probability and checks that (a) all systems'
    hit rates rise and (b) the CC-vs-PRESS comparison is stable — i.e.
    the paper's conclusion does not hinge on the simplification.
    """
    from dataclasses import replace as dc_replace

    from ..traces.analysis import recency_reference_fraction
    from ..traces.synthetic import generate

    base = defaults.workload(trace_name)
    mem = mem_mb if mem_mb is not None else _default_mem()
    rows = []
    for alpha in alphas:
        trace = (
            base
            if alpha == 0.0
            else generate(dc_replace(base.spec, temporal_alpha=alpha))
        )
        press = _std_point(trace, "press", mem, num_nodes=num_nodes)
        kmc = _std_point(trace, "cc-kmc", mem, num_nodes=num_nodes)
        rows.append(
            {
                "alpha": alpha,
                "recency": recency_reference_fraction(trace),
                "press_rps": press.throughput_rps,
                "kmc_rps": kmc.throughput_rps,
                "ratio": (
                    kmc.throughput_rps / press.throughput_rps
                    if press.throughput_rps else 0.0
                ),
                "kmc_hit": kmc.hit_rates["total"],
                "press_hit": press.hit_rates["total"],
            }
        )
    return {"trace": trace_name, "mem_mb": mem, "points": rows}


def render_a8(data: dict | None = None, **kw) -> str:
    """Print-ready A8."""
    data = data or a8_temporal(**kw)
    rows = [
        [p["alpha"], p["recency"], p["press_rps"], p["kmc_rps"],
         p["ratio"], p["press_hit"], p["kmc_hit"]]
        for p in data["points"]
    ]
    return format_table(
        ["alpha", "recency frac", "PRESS req/s", "CC-KMC req/s",
         "KMC/PRESS", "PRESS hit", "KMC hit"],
        rows,
        title=(
            f"A8: temporal locality, {data['trace']}, "
            f"{data['mem_mb']:g} MB/node"
        ),
    )


# ---------------------------------------------------------------------------
# A9: improving on KMC (the paper: "can likely be improved")
# ---------------------------------------------------------------------------
def a9_policies(
    trace_name: str = "rutgers",
    memories_mb: Sequence[float] | None = None,
    num_nodes: int = 8,
) -> dict:
    """Paper Section 3/5: "the replacement policy of our current
    best-performing algorithm can likely be improved" and KMC "does not
    necessarily lead to best performance".  Evaluates the ``hybrid``
    policy (KMC with an escape hatch for extremely cold masters) against
    plain KMC and basic."""
    trace = defaults.workload(trace_name)
    mems = list(memories_mb if memories_mb is not None
                else defaults.memory_points_mb([8, 32, 128]))
    rows = []
    for mem in mems:
        row = {"mem_mb": mem}
        for policy in ("basic", "kmc", "hybrid"):
            cfg = CoopCacheConfig(policy=policy)
            res = _std_point(trace, cfg, mem, num_nodes=num_nodes)
            row[f"{policy}_rps"] = res.throughput_rps
            row[f"{policy}_hit"] = res.hit_rates["total"]
            row[f"{policy}_local"] = res.hit_rates["local"]
            row[f"{policy}_resp"] = res.mean_response_ms
        rows.append(row)
    return {"trace": trace_name, "points": rows}


def render_a9(data: dict | None = None, **kw) -> str:
    """Print-ready A9."""
    data = data or a9_policies(**kw)
    rows = [
        [p["mem_mb"],
         p["basic_rps"], p["kmc_rps"], p["hybrid_rps"],
         p["kmc_local"], p["hybrid_local"],
         p["kmc_resp"], p["hybrid_resp"]]
        for p in data["points"]
    ]
    return format_table(
        ["Mem/node MB", "basic req/s", "kmc req/s", "hybrid req/s",
         "kmc local", "hybrid local", "kmc resp ms", "hybrid resp ms"],
        rows,
        title=f"A9: replacement-policy improvement, {data['trace']}, 8 nodes",
    )


# ---------------------------------------------------------------------------
# A10: availability and graceful degradation under injected crashes
# ---------------------------------------------------------------------------
def a10_faults(
    trace_name: str = "rutgers",
    crash_rates: Sequence[float] = (0.0, 1.0, 3.0),
    mem_mb: float | None = None,
    num_nodes: int = 8,
    plan_seed: int = 1,
) -> dict:
    """Throughput/response degradation vs crash rate (DESIGN.md S14).

    The paper evaluates a perfect cluster; this ablation asks what each
    system's protocol does when nodes fail-stop and return.  For every
    system a fault-free baseline run sizes the fault-plan horizon, then
    seeded :class:`~repro.sim.FaultPlan`\\ s with ``crashes_per_node``
    expected crashes are replayed over the *same* trace.  Every request
    must terminate — degraded or "failed", never hung — so the sweep
    doubles as an availability check on all four systems.
    """
    trace = defaults.workload(trace_name)
    mem = mem_mb if mem_mb is not None else _default_mem()
    systems = []
    for system in ("press", "cc-basic", "cc-sched", "cc-kmc"):
        base = _std_point(trace, system, mem, num_nodes=num_nodes)
        horizon = base.workload.total_ms
        points = []
        for rate in crash_rates:
            if rate <= 0.0:
                res = base
            else:
                plan = FaultPlan.random(
                    plan_seed, horizon, num_nodes, crashes_per_node=rate
                )
                res = run_experiment(
                    ExperimentConfig(
                        system=system,
                        trace=trace,
                        num_nodes=num_nodes,
                        mem_mb_per_node=mem,
                        num_clients=defaults.NUM_CLIENTS,
                        faults=plan,
                    )
                )
            w = res.workload
            points.append(
                {
                    "crashes_per_node": rate,
                    "throughput_rps": w.throughput_rps,
                    "vs_fault_free": (
                        w.throughput_rps / base.throughput_rps
                        if base.throughput_rps else 0.0
                    ),
                    "mean_response_ms": w.mean_response_ms,
                    "failed_requests": w.failed_requests,
                    "node_crashes": res.fault_counters.get("node_crashes", 0),
                }
            )
        systems.append({"system": system, "points": points})
    return {
        "trace": trace_name,
        "mem_mb": mem,
        "num_nodes": num_nodes,
        "crash_rates": list(crash_rates),
        "systems": systems,
    }


def render_a10(data: dict | None = None, **kw) -> str:
    """Print-ready A10."""
    data = data or a10_faults(**kw)
    rows = []
    for sysrow in data["systems"]:
        for p in sysrow["points"]:
            rows.append(
                [sysrow["system"], p["crashes_per_node"], p["node_crashes"],
                 p["throughput_rps"], p["vs_fault_free"],
                 p["mean_response_ms"], p["failed_requests"]]
            )
    return format_table(
        ["System", "Crash rate", "Crashes", "Throughput (req/s)",
         "vs fault-free", "Mean resp ms", "Failed"],
        rows,
        title=(
            f"A10: graceful degradation under crashes, {data['trace']}, "
            f"{data['num_nodes']} nodes, {data['mem_mb']:g} MB/node"
        ),
    )
