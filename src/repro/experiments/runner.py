"""Single-experiment runner: one (system, trace, cluster, memory) point.

Everything in :mod:`repro.experiments` boils down to calling
:func:`run_experiment` over a sweep and formatting the results.  A
*system* is one of:

* ``"press"`` — the locality-conscious baseline;
* ``"cc-basic"`` / ``"cc-sched"`` / ``"cc-kmc"`` — the middleware
  variants (paper Figure 2's four curves);
* any :class:`~repro.core.CoopCacheConfig` instance — the ad-hoc
  configurations the ablation specs
  (:mod:`~repro.experiments.ablations`) sweep.

:func:`system_label` names either kind, distinctly per configuration, for
sweep keys, logs and the sweep runner's cell identities.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

from ..cache.block import FileLayout
from ..cache.directory import HomeMap
from ..cluster.cluster import Cluster
from ..cluster.disk import SCAN
from ..core.api import blocks_for_mb, build_directory
from ..core.config import CoopCacheConfig, variant
from ..core.middleware import CoopCacheLayer
from ..params import DEFAULT_PARAMS, SimParams
from ..press.server import PressServer
from ..sim.engine import Simulator
from ..sim.faults import FaultInjector, FaultPlan
from ..traces.model import Trace
from ..web.client import ClosedLoopDriver, WorkloadResult
from ..web.server import CoopCacheWebServer

__all__ = [
    "ExperimentConfig", "ExperimentResult", "run_experiment", "system_label",
    "cc_layer", "SYSTEMS",
]

logger = logging.getLogger(__name__)

#: Named systems accepted by :class:`ExperimentConfig`.
SYSTEMS = ("press", "cc-basic", "cc-sched", "cc-kmc")


@dataclass(frozen=True)
class ExperimentConfig:
    """One simulation point."""

    system: str | CoopCacheConfig
    trace: Trace
    num_nodes: int = 8
    #: Per-node memory (MB) — the paper's x-axis (4-512 MB).
    mem_mb_per_node: float = 32.0
    num_clients: int = 64
    warmup_frac: float = 0.25
    params: SimParams = field(default_factory=lambda: DEFAULT_PARAMS)
    seed: int = 0
    #: Fault schedule injected into the run; the empty plan (default)
    #: adds zero kernel events and reproduces the golden traces.
    faults: FaultPlan = field(default_factory=FaultPlan.none)


def system_label(system: str | CoopCacheConfig) -> str:
    """A stable display label for a named system or an ad-hoc
    middleware configuration (``cc[kmc,scan,hints0.98]``)."""
    if isinstance(system, str):
        return system
    bits = [system.policy, system.disk_discipline]
    if not system.forward_on_evict:
        bits.append("nofwd")
    if system.directory == "hints":
        bits.append(f"hints{system.hint_accuracy:g}")
    return "cc[" + ",".join(bits) + "]"


@dataclass
class ExperimentResult:
    """Steady-state output of one point."""

    config: ExperimentConfig
    workload: WorkloadResult
    #: Block-weighted local/remote/disk/total hit fractions (Figure 4).
    hit_rates: dict[str, float]
    #: Raw protocol counters for deeper analysis.
    counters: dict[str, int]
    #: Fault/recovery counters (empty for fault-free runs).
    fault_counters: dict[str, int] = field(default_factory=dict)

    @property
    def throughput_rps(self) -> float:
        """Requests per second in the measurement window."""
        return self.workload.throughput_rps

    @property
    def mean_response_ms(self) -> float:
        """Mean response time (ms) in the measurement window."""
        return self.workload.mean_response_ms


def cc_layer(
    cfg: ExperimentConfig, cluster: Cluster, layout: FileLayout,
    homes: HomeMap, config: CoopCacheConfig, obs=None, faults=None,
) -> CoopCacheLayer:
    """The middleware layer of point ``cfg`` under ``config``, with the
    directory that ``config`` names."""
    return CoopCacheLayer(
        cluster,
        layout,
        homes,
        capacity_blocks=blocks_for_mb(cfg.mem_mb_per_node, cfg.params),
        config=config,
        directory=build_directory(config, cfg.num_nodes, cfg.seed),
        obs=obs,
        faults=faults,
    )


def _build_cc(
    cfg: ExperimentConfig, sim: Simulator, config: CoopCacheConfig, obs=None,
    faults=None,
):
    cluster = Cluster(
        sim, cfg.params, cfg.num_nodes, disk_discipline=config.disk_discipline
    )
    layout = FileLayout(cfg.trace.sizes_kb, cfg.params)
    homes = HomeMap(layout.num_files, cfg.num_nodes)
    layer = cc_layer(cfg, cluster, layout, homes, config, obs=obs,
                     faults=faults)
    return cluster, CoopCacheWebServer(layer, obs=obs)


def _build_press(cfg: ExperimentConfig, sim: Simulator, obs=None, faults=None):
    # PRESS always schedules its disk queue (it is the tuned baseline).
    cluster = Cluster(sim, cfg.params, cfg.num_nodes, disk_discipline=SCAN)
    layout = FileLayout(cfg.trace.sizes_kb, cfg.params)
    server = PressServer(
        cluster, layout, capacity_kb=cfg.mem_mb_per_node * 1024.0, obs=obs,
        faults=faults,
    )
    return cluster, server


def run_experiment(cfg: ExperimentConfig, obs=None) -> ExperimentResult:
    """Simulate one point and return its steady-state measurements.

    ``obs`` is an optional :class:`~repro.obs.Observability` bundle: its
    tracer records every request as a span tree, its registry collects
    every component's metrics, and — for the middleware systems — a
    positive ``obs.invariant_every`` samples
    :meth:`~repro.core.CoopCacheLayer.check_invariants` every N kernel
    events.  After the call, dump ``obs.tracer`` / ``obs.registry``.
    """
    sim = Simulator()
    if obs is not None:
        obs.attach(sim)
    # A non-empty plan builds a real injector; fault-free runs keep every
    # component on NULL_FAULTS (zero extra kernel events — golden-pinned).
    faults = (
        FaultInjector(cfg.faults, cfg.params, seed=cfg.seed, obs=obs)
        if cfg.faults else None
    )
    if isinstance(cfg.system, CoopCacheConfig):
        cluster, service = _build_cc(cfg, sim, cfg.system, obs=obs,
                                     faults=faults)
    elif cfg.system == "press":
        cluster, service = _build_press(cfg, sim, obs=obs, faults=faults)
    elif cfg.system in SYSTEMS:
        cluster, service = _build_cc(cfg, sim, variant(cfg.system), obs=obs,
                                     faults=faults)
    else:
        raise ValueError(
            f"unknown system {cfg.system!r}; choose from {SYSTEMS} "
            "or pass a CoopCacheConfig"
        )
    if faults is not None:
        faults.install(sim, cluster)
    if obs is not None:
        cluster.bind_metrics(obs.registry)
        if obs.invariant_every and hasattr(service, "layer"):
            from ..obs import InvariantSampler

            obs.sampler = InvariantSampler(
                service.layer.check_invariants, obs.invariant_every
            )
            obs.sampler.attach(sim)

    logger.debug(
        "running %s / %s: %d nodes, %g MB/node, %d clients, seed %d",
        system_label(cfg.system), cfg.trace.spec.name, cfg.num_nodes,
        cfg.mem_mb_per_node, cfg.num_clients or 0, cfg.seed,
    )
    driver = ClosedLoopDriver(
        sim,
        cluster,
        service,
        cfg.trace,
        num_clients=cfg.num_clients,
        warmup_frac=cfg.warmup_frac,
        obs=obs,
        faults=faults,
    )
    workload = driver.run()
    logger.debug(
        "done in %.1f ms simulated: %.1f req/s, %.2f ms mean response",
        sim.now, workload.throughput_rps, workload.mean_response_ms,
    )
    return ExperimentResult(
        config=cfg,
        workload=workload,
        hit_rates=service.hit_rates(),
        counters=(
            service.counters.as_dict()
            if hasattr(service, "counters")
            else service.layer.counters.as_dict()
        ),
        fault_counters=(
            faults.counters.as_dict() if faults is not None else {}
        ),
    )
