"""Web server layered on the cooperative caching middleware.

The paper's server stack is deliberately boring — "an off-the-shelf web
server and round-robin DNS" — with all cleverness in the middleware.  A
request for file *f* at node *n* costs:

1. URL parsing on *n*'s CPU (Table 1 "Parsing time");
2. the middleware read (:meth:`repro.core.CoopCacheLayer.read`);
3. reply serving on *n*'s CPU (Table 1 "Serving time", size-dependent);
4. *n*'s NIC occupancy pushing the reply onto the LAN.

Any object with this module's ``handle(node, file_id)`` / ``reset_stats``
shape plugs into the closed-loop client harness — the PRESS baseline
implements the same interface.

When built with an :class:`~repro.obs.Observability` bundle, every GET
becomes one trace (a root ``request`` span whose children are the
middleware's protocol hops) and per-class request counters accumulate in
the shared registry.
"""

from __future__ import annotations

from collections.abc import Generator

from ..cache.block import FileLayout
from ..cluster.node import Node
from ..core.middleware import CoopCacheLayer
from ..obs.profile import NULL_PROFILER
from ..obs.tracing import NULL_SPAN, NULL_TRACER
from ..sim.engine import Event
from ..sim.faults import RequestAborted

__all__ = ["CoopCacheWebServer"]


class CoopCacheWebServer:
    """HTTP GET service over :class:`~repro.core.CoopCacheLayer`."""

    def __init__(self, layer: CoopCacheLayer, obs=None):
        self.layer = layer
        self.params = layer.params
        self.layout: FileLayout = layer.layout
        self.tracer = obs.tracer if obs is not None else NULL_TRACER
        self.prof = getattr(obs, "profiler", NULL_PROFILER) or NULL_PROFILER
        self._registry = obs.registry if obs is not None else None

    def handle(
        self, node: Node, file_id: int, parent=None
    ) -> Generator[Event, object, str]:
        """Coroutine: fully process one GET for ``file_id`` at ``node``.

        Returns the request's service class ("local" / "remote" /
        "disk") for per-class response-time accounting.  ``parent`` is
        the caller's span (the client driver's, when profiling).
        """
        cpu = self.params.cpu
        prof = self.prof
        traced = self.tracer.enabled
        span = self.tracer.start(
            "request", parent=parent, node=node.node_id, file=file_id
        ) if traced else NULL_SPAN
        yield prof.wait(span, node.node_id, "cpu",
                        node.cpu.submit(cpu.parse_ms))
        try:
            service_class = yield from self.layer.read(
                node, file_id, span=span
            )
        except RequestAborted:
            # Bounded retries exhausted (fault injection): the request
            # terminates loudly as "failed" — degraded, never hung.
            span.finish(cls="failed", error=True)
            if self._registry is not None:
                self._registry.counter("requests_failed").incr()
            return "failed"
        size_kb = self.layout.size_kb(file_id)
        yield prof.wait(span, node.node_id, "cpu",
                        node.cpu.submit(cpu.serve_ms(size_kb)))
        # Reply to the client over the shared LAN.
        yield prof.wait(
            span, node.node_id, "nic",
            node.nic.submit(self.params.network.transfer_ms(size_kb)),
        )
        if traced:
            span.finish(cls=service_class)
        if self._registry is not None:
            self._registry.counter(f"requests_{service_class}").incr()
        return service_class

    def reset_stats(self) -> None:
        """Discard warm-up counters (hit rates become steady-state)."""
        self.layer.counters.reset()

    def hit_rates(self):
        """Steady-state block hit rates (Figure 4)."""
        return self.layer.hit_rates()
