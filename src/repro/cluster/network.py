"""The system-area LAN shared by client and intra-cluster traffic.

The paper: "we assume the same network is used to field/service client
requests and for intra-cluster communication", approximating a VIA Gb/s
LAN.  A transfer from node *a* to node *b* occupies *a*'s send NIC for the
bandwidth-dependent time, then the message experiences one wire latency.
Receive-side protocol work is charged to the receiver's CPU by the caller
(the per-operation CPU costs in Table 1 — "serve peer block request",
"cache a new block", ... — are exactly those receive/handle costs).
"""

from __future__ import annotations

from collections.abc import Generator
from typing import TYPE_CHECKING

from ..obs.profile import NULL_PROFILER, NullProfiler, Profiler
from ..params import SimParams
from ..sim.engine import Event, Simulator
from .node import Node

if TYPE_CHECKING:
    from ..obs.metrics import MetricsRegistry
    from ..obs.tracing import Span

__all__ = ["Network"]


class Network:
    """Point-to-point message timing over the shared LAN."""

    __slots__ = ("sim", "params", "bytes_kb", "messages")

    def __init__(self, sim: Simulator, params: SimParams) -> None:
        self.sim = sim
        self.params = params
        #: Total KB moved since the last reset (for traffic accounting).
        self.bytes_kb = 0.0
        #: Total messages since the last reset.
        self.messages = 0

    def transfer(
        self, src: Node | None, dst: Node | None, size_kb: float,
        prof: Profiler | NullProfiler = NULL_PROFILER,
        parent: Span | None = None,
    ) -> Generator[Event, None, None]:
        """Coroutine: move ``size_kb`` from ``src`` to ``dst``.

        ``src is None`` models a message arriving from outside the cluster
        (a client or the router) — only wire latency applies.  ``dst`` is
        accepted for symmetry/readability; receive-side work is the
        caller's to charge.  ``prof``/``parent`` attribute the NIC and
        wire-latency waits to phase spans when profiling is on.
        """
        if size_kb < 0:
            raise ValueError("size_kb must be >= 0")
        self.bytes_kb += size_kb
        self.messages += 1
        if src is not None:
            # Local loopback costs nothing but a bus hop, modeled by caller.
            if dst is not None and src.node_id == dst.node_id:
                return
            yield from prof.wait(
                parent, src.node_id, "nic",
                src.nic.submit(self.params.network.transfer_ms(size_kb)),
            )
        yield from prof.wait(
            parent, None, "wire",
            self.sim.timeout(self.params.network.latency_ms),
        )

    def reset_stats(self) -> None:
        """Zero the traffic accounting counters."""
        self.bytes_kb = 0.0
        self.messages = 0

    def metrics(self) -> dict:
        """Current traffic totals for the metrics registry."""
        return {"bytes_kb": self.bytes_kb, "messages": self.messages}

    def bind_metrics(self, registry: MetricsRegistry) -> None:
        """Register LAN traffic accounting as a collector."""
        registry.register_collector("network", self.metrics)
