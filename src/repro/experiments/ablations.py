"""Ablations and extensions beyond the paper's published curves (A1-A10).

A1-A9 are one table of :class:`Ablation` specs.  A spec's *points* and
*variants* are :class:`~repro.experiments.runner.ExperimentConfig`
overrides on one CC-KMC base point; :func:`run_ablation` runs every
point × variant cell through the sweep runner (so ``REPRO_WORKERS``
shards a study like any sweep) and returns one long-form record, one row
per cell, that :func:`render_ablation` prints.  The metric columns are
the survey grid of hit ratio, latency and overhead, plus throughput.  A
variant that the point runner cannot express (A2's popularity-placed
homes, A3's whole-file server, A7's read/write service) is a short
runner of its own that returns the same :class:`ExperimentResult`.

A10 keeps its own runner: each fault plan is sized from a fault-free
run.  DESIGN.md §3 motivates each study.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, replace
from functools import partial
from typing import Any

import numpy as np

from ..cache.block import FileLayout
from ..cache.directory import HomeMap
from ..cluster.cluster import Cluster
from ..core.config import CoopCacheConfig, variant
from ..core.middleware import CoopCacheLayer
from ..core.wholefile import WholeFileCoopServer
from ..params import HARDWARE_CONFIGS
from ..sim.engine import Simulator
from ..sim.faults import FaultPlan
from ..sim.rng import stream
from ..traces.analysis import recency_reference_fraction
from ..traces.synthetic import generate
from ..web.client import ClosedLoopDriver
from ..web.server import CoopCacheWebServer
from . import defaults
from .parallel import run_cells
from .report import format_table
from .runner import ExperimentConfig, ExperimentResult, cc_layer, run_experiment

__all__ = [
    "Ablation", "ABLATIONS", "METRICS", "run_ablation", "render_ablation",
    "a10_faults", "render_a10",
]

#: Metric column -> its value in one cell's result.
METRICS: dict[str, Callable[[ExperimentResult], Any]] = {
    "throughput_rps": lambda r: r.throughput_rps,
    "mean_response_ms": lambda r: r.mean_response_ms,
    "hit_total": lambda r: r.hit_rates["total"],
    "hit_local": lambda r: r.hit_rates["local"],
    "disk_max": lambda r: r.workload.max_utilization["disk"],
    "peer_misses": lambda r: r.counters.get("peer_miss", 0),
    "forwards": lambda r: r.counters.get("forwards", 0),
    "flushes": lambda r: r.counters.get("flushed_blocks", 0),
    "invalidations": lambda r: r.counters.get("invalidations", 0),
    "recency": lambda r: recency_reference_fraction(r.config.trace),
}

#: A variant's own runner: ``(point config, point) -> result``.
Runner = Callable[[ExperimentConfig, Any], ExperimentResult]


@dataclass(frozen=True)
class Ablation:
    """One study: every point × variant cell around one CC-KMC point."""

    title: str
    #: Row key naming the point axis.
    axis: str
    #: ``base config -> {point: overrides}``; called at run time, so the
    #: points follow the active :mod:`~repro.experiments.defaults`.
    points: Callable[[ExperimentConfig], dict[Any, dict[str, Any]]]
    #: ``label -> overrides``, or a :data:`Runner` for one run the point
    #: runner cannot express.
    variants: dict[str, dict[str, Any] | Runner]
    #: Metric columns, keys of :data:`METRICS`.
    metrics: tuple[str, ...]
    #: Variant whose throughput at the same point divides every row's
    #: into a ``vs_<ref>`` column.
    ref: str | None = None


def _default_mem() -> float:
    """The mid-axis point the ablations anchor on (32 MB/node scaled)."""
    return 32.0 * defaults.SCALE


def _anchor(base: ExperimentConfig) -> dict[Any, dict[str, Any]]:
    """The base config's memory point alone."""
    return {base.mem_mb_per_node: {}}


def _memories(base: ExperimentConfig) -> dict[Any, dict[str, Any]]:
    """8, 32 and 128 MB/node, scaled."""
    return {m: {"mem_mb_per_node": m}
            for m in defaults.memory_points_mb([8, 32, 128])}


def _alphas(base: ExperimentConfig) -> dict[Any, dict[str, Any]]:
    """The base workload regenerated with rising re-reference odds."""
    return {
        a: {"trace": base.trace if a == 0.0
            else generate(replace(base.trace.spec, temporal_alpha=a))}
        for a in (0.0, 0.2, 0.4)
    }


def _cc(**fields: Any) -> dict[str, Any]:
    """Overrides running an ad-hoc middleware configuration."""
    return {"system": CoopCacheConfig(**fields)}


def _drive(cfg: ExperimentConfig,
           build: Callable[..., Any]) -> ExperimentResult:
    """Run ``cfg``'s workload against ``build(cluster, layout, homes)``."""
    sim = Simulator()
    cluster = Cluster(sim, cfg.params, cfg.num_nodes)
    layout = FileLayout(cfg.trace.sizes_kb, cfg.params)
    service = build(cluster, layout, HomeMap(layout.num_files, cfg.num_nodes))
    workload = ClosedLoopDriver(
        sim, cluster, service, cfg.trace,
        num_clients=cfg.num_clients, warmup_frac=cfg.warmup_frac,
    ).run()
    stats = getattr(service, "layer", service)
    return ExperimentResult(cfg, workload, stats.hit_rates(),
                            stats.counters.as_dict())


def _hot_on_node0(cfg: ExperimentConfig, point: Any) -> ExperimentResult:
    """CC-KMC with the hottest 5% of files re-homed onto node 0."""
    counts = cfg.trace.request_counts()
    hot = np.argsort(-counts)[: max(1, int(len(counts) * 0.05))]

    def build(cluster, layout, homes):
        homes.concentrate((int(f) for f in hot), node_id=0)
        return CoopCacheWebServer(
            cc_layer(cfg, cluster, layout, homes, variant("cc-kmc"))
        )

    return _drive(cfg, build)


def _whole_file(cfg: ExperimentConfig, point: Any) -> ExperimentResult:
    """The middleware adapted to whole-file granularity."""
    return _drive(cfg, lambda cluster, layout, homes: WholeFileCoopServer(
        cluster, layout, homes, capacity_kb=cfg.mem_mb_per_node * 1024.0,
    ))


class _ReadWriteService(CoopCacheWebServer):
    """Web service where a ``write_ratio`` share of GETs are PUTs."""

    def __init__(self, layer: CoopCacheLayer, write_ratio: float, rng) -> None:
        super().__init__(layer)
        self.write_ratio = write_ratio
        self.rng = rng

    def handle(self, node, file_id, parent=None):
        """GET or (with probability ``write_ratio``) PUT one file."""
        if self.rng.random() >= self.write_ratio:
            return (yield from super().handle(node, file_id))
        yield node.cpu.submit(self.params.cpu.parse_ms)
        yield from self.layer.write(node, file_id)
        yield node.nic.submit(self.params.network.transfer_ms(0.3))  # ACK


def _read_write(write_policy: str, cfg: ExperimentConfig,
                write_ratio: float) -> ExperimentResult:
    """CC-KMC where every request is a whole-file write with
    probability ``write_ratio``, under ``write_policy``."""
    rng = stream(17, "a7", write_policy, int(write_ratio * 1000))
    return _drive(cfg, lambda cluster, layout, homes: _ReadWriteService(
        cc_layer(cfg, cluster, layout, homes,
                 CoopCacheConfig(write_policy=write_policy)),
        write_ratio, rng,
    ))


#: The workload every study runs.
_TRACE = "rutgers"
_POLICIES = ("basic", "kmc")
_PRESS_VS_KMC: dict[str, dict[str, Any] | Runner] = {
    "press": {"system": "press"}, "cc-kmc": {},
}

#: The A1-A9 study table, in artifact order.
ABLATIONS: dict[str, Ablation] = {
    # Paper §6: would Sarkar & Hartman's ~98%-accurate hints cost much?
    "a1": Ablation(
        "A1: hint-based directory vs the perfect directory", "mem_mb",
        _anchor,
        {"perfect": {}, **{
            f"hints{acc:g}": _cc(directory="hints", hint_accuracy=acc)
            for acc in (1.0, 0.98, 0.95, 0.9, 0.7)
        }},
        ("throughput_rps", "hit_total", "peer_misses"), ref="perfect",
    ),
    # Paper §5: "observe [its] performance under a forced concentration
    # of hot files on a single node".
    "a2": Ablation(
        "A2: hottest 5% of files homed on node 0", "mem_mb", _anchor,
        {"spread": {}, "concentrated": _hot_on_node0},
        ("throughput_rps", "disk_max"), ref="spread",
    ),
    # Paper §6: would a whole-file adaptation serve a web server better?
    "a3": Ablation(
        "A3: caching granularity, block vs whole-file", "mem_mb", _memories,
        {"block": {}, "whole-file": _whole_file},
        ("throughput_rps", "hit_total"), ref="block",
    ),
    # The CC-Basic -> CC-Sched step: FIFO vs SCAN disk queues.
    "a4": Ablation(
        "A4: disk scheduling, FIFO vs SCAN", "mem_mb", _anchor,
        {f"{policy}/{disk}": _cc(policy=policy, disk_discipline=disk)
         for policy in _POLICIES for disk in ("fifo", "scan")},
        ("throughput_rps", "hit_total", "mean_response_ms"),
    ),
    # Paper §6: the CC case rests on a fast LAN; how does it move?
    "a5": Ablation(
        "A5: LAN sensitivity", "lan",
        lambda base: {lan: {"params": HARDWARE_CONFIGS[lan]}
                      for lan in ("lan-100mb", "lan-1gb", "lan-10gb")},
        _PRESS_VS_KMC, ("throughput_rps",), ref="press",
    ),
    # Which ingredient buys what: the KMC victim rule or forwarding.
    "a6": Ablation(
        "A6: replacement components, policy x forwarding", "mem_mb",
        _anchor,
        {f"{policy}/{'fwd' if fwd else 'nofwd'}":
         _cc(policy=policy, forward_on_evict=fwd)
         for policy in _POLICIES for fwd in (True, False)},
        ("throughput_rps", "hit_total", "forwards"),
    ),
    # Paper §6: "support writes as well as reads".
    "a7": Ablation(
        "A7: read/write workloads, write-back vs write-through",
        "write_ratio", lambda base: {r: {} for r in (0.0, 0.1, 0.3)},
        {policy: partial(_read_write, policy)
         for policy in ("write-back", "write-through")},
        ("throughput_rps", "flushes", "invalidations"),
    ),
    # Does the i.i.d.-Zipf simplification (DESIGN.md §4.5) decide the
    # CC-vs-PRESS comparison?
    "a8": Ablation(
        "A8: temporal locality", "alpha", _alphas, _PRESS_VS_KMC,
        ("recency", "throughput_rps", "hit_total"), ref="press",
    ),
    # Paper §3/§5: KMC "can likely be improved"; the hybrid policy
    # releases masters far colder than the oldest replica.
    "a9": Ablation(
        "A9: replacement-policy improvement", "mem_mb", _memories,
        {policy: _cc(policy=policy)
         for policy in (*_POLICIES, "hybrid")},
        ("throughput_rps", "hit_total", "hit_local", "mean_response_ms"),
        ref="kmc",
    ),
}


def run_ablation(name: str) -> dict:
    """Run study ``name`` of :data:`ABLATIONS`; returns its record,
    ``{"name", "title", "trace", "rows"}`` with one row per cell.

    No row key is ``system``, ``name`` or ``trace``: the BENCH schema
    labels list elements by those keys, so repeated values would
    collapse the record's metrics map.
    """
    spec = ABLATIONS[name]
    base = ExperimentConfig(
        system="cc-kmc", trace=defaults.workload(_TRACE),
        mem_mb_per_node=_default_mem(), num_clients=defaults.NUM_CLIENTS,
    )
    grid = [(point, replace(base, **overrides), label, run)
            for point, overrides in spec.points(base).items()
            for label, run in spec.variants.items()]
    # One sweep over every cell the point runner expresses.
    results = iter(run_cells([
        replace(cfg, **run) for _, cfg, _, run in grid if isinstance(run, dict)
    ]))
    rows = []
    for point, cfg, label, run in grid:
        res = next(results) if isinstance(run, dict) else run(cfg, point)
        # Every row names its memory point; the axis may be that key.
        rows.append({"mem_mb": cfg.mem_mb_per_node, spec.axis: point,
                     "variant": label,
                     **{m: METRICS[m](res) for m in spec.metrics}})
    if spec.ref is not None:
        ref = {row[spec.axis]: row["throughput_rps"] for row in rows
               if row["variant"] == spec.ref}
        for row in rows:
            rps = ref[row[spec.axis]]
            row[f"vs_{spec.ref}"] = row["throughput_rps"] / rps if rps else 0.0
    return {"name": name, "title": spec.title, "trace": _TRACE,
            "rows": rows}


def render_ablation(record: dict) -> str:
    """Print-ready table of one :func:`run_ablation` record."""
    columns = list(record["rows"][0])
    return format_table(
        columns, [[row[c] for c in columns] for row in record["rows"]],
        title=f"{record['title']}, {record['trace']}",
    )


# ---------------------------------------------------------------------------
# A10: availability and graceful degradation under injected crashes
# ---------------------------------------------------------------------------
#: A10's expected crashes per node over a run, its cluster size and the
#: seed of its fault plans.
_A10_CRASH_RATES = (0.0, 1.0, 3.0)
_A10_NODES = 8
_A10_PLAN_SEED = 1


def a10_faults() -> dict:
    """Throughput/response degradation vs crash rate (DESIGN.md S14).

    The paper evaluates a perfect cluster; this ablation asks what each
    system's protocol does when nodes fail-stop and return.  For every
    system a fault-free baseline run sizes the fault-plan horizon, then
    seeded :class:`~repro.sim.FaultPlan`\\ s with ``crashes_per_node``
    expected crashes are replayed over the *same* trace.  Every request
    must terminate — degraded or "failed", never hung — so the sweep
    doubles as an availability check on all four systems.
    """
    trace = defaults.workload(_TRACE)
    mem = _default_mem()
    systems = []
    for system in ("press", "cc-basic", "cc-sched", "cc-kmc"):
        cfg = ExperimentConfig(
            system=system,
            trace=trace,
            num_nodes=_A10_NODES,
            mem_mb_per_node=mem,
            num_clients=defaults.NUM_CLIENTS,
        )
        base = run_experiment(cfg)
        horizon = base.workload.total_ms
        points = []
        for rate in _A10_CRASH_RATES:
            if rate <= 0.0:
                res = base
            else:
                plan = FaultPlan.random(
                    _A10_PLAN_SEED, horizon, _A10_NODES, crashes_per_node=rate
                )
                res = run_experiment(replace(cfg, faults=plan))
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
        "trace": _TRACE,
        "mem_mb": mem,
        "num_nodes": _A10_NODES,
        "crash_rates": list(_A10_CRASH_RATES),
        "systems": systems,
    }


def render_a10(data: dict) -> str:
    """Print-ready A10."""
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
