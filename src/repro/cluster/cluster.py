"""Cluster assembly: nodes + LAN + router + DNS in one object."""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..params import SimParams
from ..sim.engine import Simulator
from .disk import SCAN
from .network import Network
from .node import Node
from .router import RoundRobinDNS, Router

if TYPE_CHECKING:
    from ..obs.metrics import MetricsRegistry

__all__ = ["Cluster"]


class Cluster:
    """The modeled hardware: 4-32 nodes on a shared Gb/s LAN.

    This is pure substrate; the cooperative-caching middleware and the
    PRESS baseline both run on an unmodified :class:`Cluster`.
    """

    __slots__ = ("sim", "params", "nodes", "network", "router", "dns")

    def __init__(
        self,
        sim: Simulator,
        params: SimParams,
        num_nodes: int,
        disk_discipline: str = SCAN,
    ) -> None:
        if num_nodes < 1:
            raise ValueError("cluster needs at least one node")
        self.sim = sim
        self.params = params
        self.nodes: list[Node] = [
            Node(sim, i, params, disk_discipline=disk_discipline)
            for i in range(num_nodes)
        ]
        self.network = Network(sim, params)
        self.router = Router(sim, params)
        self.dns = RoundRobinDNS(self.nodes)

    def __len__(self) -> int:
        return len(self.nodes)

    def reset_stats(self) -> None:
        """Start a fresh measurement window everywhere (end of warm-up)."""
        for node in self.nodes:
            node.reset_stats()
        self.network.reset_stats()
        self.router.reset_stats()

    def bind_metrics(self, registry: MetricsRegistry) -> None:
        """Register every node's hardware and the LAN into ``registry``."""
        for node in self.nodes:
            node.bind_metrics(registry)
        self.network.bind_metrics(registry)

    def utilization(self) -> dict[str, float]:
        """Cluster-mean utilization per resource class (Figure 6a)."""
        per_node = [n.utilization() for n in self.nodes]
        means: dict[str, float] = {}
        for k in ("cpu", "nic", "bus", "disk"):
            # Plain left-to-right float additions: from Python 3.12 on,
            # builtin sum() compensates rounding over floats, and the
            # means must not depend on the interpreter.
            total = 0.0
            for u in per_node:
                total += u[k]
            means[k] = total / len(per_node)
        return means

    def max_utilization(self) -> dict[str, float]:
        """Maximum per-node utilization per resource class.

        Useful for spotting the single bottleneck disk the paper describes
        ("the first disk that ... falls behind ... becomes the performance
        bottleneck for the entire system").
        """
        per_node = [n.utilization() for n in self.nodes]
        keys = ("cpu", "nic", "bus", "disk")
        return {k: max(u[k] for u in per_node) for k in keys}
