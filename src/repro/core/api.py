"""High-level facade: the middleware as an embeddable library.

The paper pitches the layer as "a building block for diverse distributed
services" — usable "as a library module as well as an independent
middleware service".  :class:`CoopCacheService` is that building block:
it owns the simulator, cluster and middleware wiring so a service author
writes only their request-handling logic::

    svc = CoopCacheService(file_sizes_kb=[12.0, 300.0, 8.0],
                           num_nodes=4, mem_mb_per_node=1)

    def handler(node, file_id):
        yield from svc.layer.read(node, file_id)      # the middleware
        yield node.cpu.submit(0.05)                   # service-specific work

    svc.submit(handler(svc.node(0), 1))
    svc.run()

Experiments that need full control (warm-up windows, custom clients)
build the pieces directly; see :mod:`repro.experiments.runner`.
"""

from __future__ import annotations

import math
from collections.abc import Generator, Sequence

from ..cache.block import FileLayout
from ..cache.directory import GlobalDirectory, HomeMap
from ..cluster.cluster import Cluster
from ..cluster.node import Node
from ..params import DEFAULT_PARAMS, SimParams
from ..sim.engine import Event, Process, Simulator
from ..sim.faults import FaultInjector, FaultPlan
from ..sim.rng import stream
from .config import CoopCacheConfig
from .hints import HintDirectory
from .middleware import CoopCacheLayer

__all__ = ["CoopCacheService", "blocks_for_mb", "build_directory"]


def blocks_for_mb(mem_mb: float, params: SimParams = DEFAULT_PARAMS) -> int:
    """Cache blocks that fit in ``mem_mb`` MB of node memory."""
    if not 0 < mem_mb < math.inf:
        raise ValueError(f"mem_mb must be positive and finite, got {mem_mb!r}")
    blocks = int(mem_mb * 1024 // params.block_kb)
    return max(1, blocks)


def build_directory(
    config: CoopCacheConfig, num_nodes: int, seed: int
) -> GlobalDirectory | None:
    """The master directory ``config.directory`` names, or None for the
    perfect one (the layer builds that itself)."""
    if config.directory == "hints":
        return HintDirectory(
            config.hint_accuracy, num_nodes, stream(seed, "hints")
        )
    return None


class CoopCacheService:
    """One-stop construction of a cooperatively cached cluster service."""

    def __init__(
        self,
        file_sizes_kb: Sequence[float],
        num_nodes: int,
        mem_mb_per_node: float,
        config: CoopCacheConfig | None = None,
        params: SimParams = DEFAULT_PARAMS,
        seed: int = 0,
        fault_plan: FaultPlan | None = None,
    ) -> None:
        self.config = config or CoopCacheConfig()
        self.params = params
        self.sim = Simulator()
        self.cluster = Cluster(
            self.sim, params, num_nodes,
            disk_discipline=self.config.disk_discipline,
        )
        self.layout = FileLayout(file_sizes_kb, params)
        self.homes = HomeMap(self.layout.num_files, num_nodes)
        #: Fault injector (None without a plan — zero overhead, and unit
        #: tests get the whole chaos stack from one constructor argument).
        self.faults: FaultInjector | None = None
        if fault_plan:
            self.faults = FaultInjector(fault_plan, params, seed=seed)
            self.faults.install(self.sim, self.cluster)
        self.layer = CoopCacheLayer(
            self.cluster,
            self.layout,
            self.homes,
            capacity_blocks=blocks_for_mb(mem_mb_per_node, params),
            config=self.config,
            directory=build_directory(self.config, num_nodes, seed),
            faults=self.faults,
        )

    def node(self, node_id: int) -> Node:
        """The node object for ``node_id`` (to hand to protocol coroutines)."""
        return self.cluster.nodes[node_id]

    def submit(self, gen: Generator[Event, object, object]) -> Process:
        """Start a service coroutine; returns its completion event."""
        return self.sim.process(gen)

    def read(self, node_id: int, file_id: int) -> Process:
        """Convenience: start a plain middleware read as its own process."""
        return self.submit(self.layer.read(self.node(node_id), file_id))

    def run(self, until: float | None = None) -> None:
        """Drive the simulation (see :meth:`repro.sim.Simulator.run`)."""
        self.sim.run(until=until)
