"""Closed-loop HTTP clients and the measurement harness.

The paper's measurement protocol, reproduced exactly:

* "we ignore the timing information present in the traces.  Each HTTP
  client generates a new request as soon as the previous one has been
  served" — a fixed population of closed-loop clients draining a shared
  trace cursor, which measures *maximum achievable throughput*;
* "we also measure throughput only after the caches have been warmed up"
  — the first ``warmup_frac`` of the trace runs unmeasured, then every
  statistic (throughput window, response times, utilizations, hit
  counters) is reset.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from collections.abc import Generator
from typing import Protocol

from ..cluster.cluster import Cluster
from ..cluster.node import Node
from ..sim.engine import Event, Simulator
from ..sim.faults import NULL_FAULTS
from ..sim.stats import ReservoirQuantiles, RunningStats, ThroughputMeter
from ..traces.model import Trace

__all__ = ["ClusterService", "WorkloadResult", "ClosedLoopDriver"]

#: KB of an HTTP GET request message.
HTTP_REQUEST_KB = 0.3


class ClusterService(Protocol):
    """What the driver needs from a server implementation."""

    def handle(self, node: Node, file_id: int) -> Generator[Event, object, None]:
        """Process one request at ``node``; a simulation coroutine."""
        ...

    def reset_stats(self) -> None:
        """Discard warm-up counters."""
        ...


@dataclass
class WorkloadResult:
    """Steady-state measurements of one run."""

    #: Requests completed per second after warm-up.
    throughput_rps: float
    #: Mean response time (ms) after warm-up.
    mean_response_ms: float
    #: Response-time percentiles (ms) after warm-up.
    p50_ms: float
    p95_ms: float
    p99_ms: float
    #: Requests measured (excludes warm-up).
    measured_requests: int
    #: Cluster-mean utilization per resource class.
    utilization: dict[str, float] = field(default_factory=dict)
    #: Maximum per-node utilization per resource class.
    max_utilization: dict[str, float] = field(default_factory=dict)
    #: Simulated milliseconds in the measurement window.
    window_ms: float = 0.0
    #: Mean response time per service class ("local"/"remote"/"disk"/...),
    #: for services whose handle() reports one (Figure 5 analysis).
    response_by_class_ms: dict[str, float] = field(default_factory=dict)
    #: Measured request count per service class.
    requests_by_class: dict[str, int] = field(default_factory=dict)
    #: Measured requests that terminated as "failed" under fault
    #: injection (excluded from throughput and response moments; their
    #: latency still shows up in ``response_by_class_ms["failed"]``).
    failed_requests: int = 0
    #: Simulated time at the end of the whole run, warm-up included
    #: (baseline horizon for sizing a fault plan over the same trace).
    total_ms: float = 0.0


class ClosedLoopDriver:
    """Runs a trace through a service with closed-loop clients."""

    def __init__(
        self,
        sim: Simulator,
        cluster: Cluster,
        service: ClusterService,
        trace: Trace,
        num_clients: int = 64,
        warmup_frac: float = 0.25,
        obs=None,
        faults=None,
    ):
        if num_clients < 1:
            raise ValueError("need at least one client")
        if not 0.0 <= warmup_frac < 1.0:
            raise ValueError("warmup_frac must be in [0, 1)")
        self.sim = sim
        self.cluster = cluster
        self.service = service
        self.trace = trace
        self.num_clients = num_clients
        self.warmup_count = int(trace.num_requests * warmup_frac)
        self._cursor = 0
        self._issued_measured = 0
        self._warmed = warmup_frac == 0.0
        self.throughput = ThroughputMeter(sim.now)
        self.response = RunningStats()
        self.quantiles = ReservoirQuantiles()
        self.response_by_class: dict[str, RunningStats] = {}
        self.failed_requests = 0
        self._faults = faults if faults is not None else NULL_FAULTS
        self._warm_time: float = sim.now
        # Whole-run (warm-up included) response-time histogram in the
        # shared registry; never reset, so trace-derived totals match.
        self._response_hist = (
            obs.registry.histogram("client.response_ms")
            if obs is not None else None
        )
        # When profiling, each request gets a *client-side* root span
        # covering router + wire + server work + reply — exactly the
        # client-observed elapsed time the response statistics measure,
        # so offline phase attribution can sum to mean_response_ms.
        prof = getattr(obs, "profiler", None)
        self._prof = prof if (prof is not None and prof.enabled) else None
        self._tracer = obs.tracer if obs is not None else None

    # -- the client loop -----------------------------------------------------
    def _next_request(self) -> int | None:
        """Shared trace cursor: the measured stream is the trace order
        regardless of how many clients drain it."""
        if self._cursor >= self.trace.num_requests:
            return None
        idx = self._cursor
        self._cursor += 1
        if not self._warmed and idx >= self.warmup_count:
            self._begin_measurement()
        return int(self.trace.requests[idx])

    def _begin_measurement(self) -> None:
        """End of warm-up: reset every statistic to steady state."""
        self._warmed = True
        self._warm_time = self.sim.now
        self.cluster.reset_stats()
        self.service.reset_stats()
        self.throughput.reset(self.sim.now)
        self.response.reset()
        self.quantiles.reset()
        self.response_by_class.clear()
        self.failed_requests = 0

    def _pick_node(self) -> Generator[Event, object, Node | None]:
        """DNS pick with a bounded retry loop when the cluster is dark.

        Fault-free, :meth:`~repro.cluster.dns.RoundRobinDNS.pick` never
        returns None and this adds zero kernel events.  Under fault
        injection an all-nodes-down instant costs detection timeouts and
        capped backoffs, and past the retry budget returns None — the
        request then fails instead of hanging.
        """
        node = self.cluster.dns.pick()
        if node is not None:
            return node
        fparams = self.cluster.params.faults
        for attempt in range(fparams.max_retries):
            yield self.sim.timeout(fparams.detect_timeout_ms)
            delay = self._faults.backoff_ms(attempt)
            if delay > 0.0:
                yield self.sim.timeout(delay)
            node = self.cluster.dns.pick()
            if node is not None:
                return node
        return None

    def _client(self) -> Generator[Event, object, None]:
        params = self.cluster.params
        net = self.cluster.network
        while True:
            file_id = self._next_request()
            if file_id is None:
                return
            measured = self._warmed
            start = self.sim.now
            node = yield from self._pick_node()
            if node is None:
                # Every node stayed down past the retry budget.
                self._record(measured, start, "failed")
                continue
            if self._prof is None:
                # Front-end: router forwards, request crosses the LAN.
                yield self.cluster.router.forward()
                yield from net.transfer(None, node, HTTP_REQUEST_KB)
                service_class = yield self.sim.process(
                    self.service.handle(node, file_id)
                )
                # Reply wire latency back to the client.
                yield self.sim.timeout(params.network.latency_ms)
            else:
                prof = self._prof
                root = self._tracer.start(
                    "client", node=node.node_id, file=file_id
                )
                yield prof.wait(
                    root, None, "router", self.cluster.router.forward()
                )
                yield from net.transfer(None, node, HTTP_REQUEST_KB,
                                        prof=prof, parent=root)
                service_class = yield self.sim.process(
                    self.service.handle(node, file_id, parent=root)
                )
                yield prof.wait(
                    root, None, "wire",
                    self.sim.timeout(params.network.latency_ms),
                )
                root.finish(
                    measured=measured,
                    cls=service_class if isinstance(service_class, str)
                    else None,
                )
            self._record(measured, start, service_class)

    def _record(self, measured: bool, start: float, service_class) -> None:
        """Fold one finished (or failed) request into the statistics.

        Failed requests are counted — and their latency kept under
        ``response_by_class["failed"]`` — but excluded from throughput
        and the response moments: an aborted request delivered nothing,
        so folding its (short) latency in would *flatter* the faulted
        system.
        """
        if self._response_hist is not None:
            self._response_hist.observe(self.sim.now - start)
        if not measured:
            return
        elapsed = self.sim.now - start
        if service_class == "failed":
            self.failed_requests += 1
        else:
            self.throughput.record()
            self.response.record(elapsed)
            self.quantiles.record(elapsed)
        if isinstance(service_class, str):
            stats = self.response_by_class.get(service_class)
            if stats is None:
                stats = RunningStats()
                self.response_by_class[service_class] = stats
            stats.record(elapsed)

    # -- orchestration ----------------------------------------------------------
    def run(self) -> WorkloadResult:
        """Drain the whole trace; returns steady-state measurements."""
        clients = [self.sim.process(self._client()) for _ in range(self.num_clients)]
        done = self.sim.all_of(clients)
        self.sim.run()
        if not done.processed:  # pragma: no cover - deadlock guard
            raise RuntimeError("workload did not complete (deadlocked clients)")
        for client in clients:
            if not client.ok:
                raise RuntimeError("client process failed") from client.value
        now = self.sim.now
        return WorkloadResult(
            throughput_rps=self.throughput.per_second(now),
            mean_response_ms=self.response.mean,
            p50_ms=self.quantiles.quantile(0.50),
            p95_ms=self.quantiles.quantile(0.95),
            p99_ms=self.quantiles.quantile(0.99),
            measured_requests=self.throughput.count,
            utilization=self.cluster.utilization(),
            max_utilization=self.cluster.max_utilization(),
            window_ms=now - self._warm_time,
            response_by_class_ms={
                cls: stats.mean
                for cls, stats in self.response_by_class.items()
            },
            requests_by_class={
                cls: stats.n
                for cls, stats in self.response_by_class.items()
            },
            failed_requests=self.failed_requests,
            total_ms=now,
        )
