"""Observability: metrics registry, request tracing, invariant sampling.

The subsystem is strictly opt-in: every cluster component accepts an
optional :class:`Observability` and, when none is given, falls back to
no-op instruments (:data:`~repro.obs.tracing.NULL_TRACER`), so the
simulation hot path is unchanged when observability is off.

Typical use::

    obs = Observability(trace=True, invariant_every=1_000)
    result = run_experiment(cfg, obs=obs)
    obs.tracer.dump_jsonl("trace.jsonl")
    obs.registry.dump("metrics.json")

See README.md § Observability for the trace schema and the golden-trace
regression workflow.
"""

from __future__ import annotations


from .cachestats import NULL_CACHESCOPE, CacheScope, NullCacheScope
from .invariants import InvariantSampler
from .metrics import (
    DEFAULT_BUCKETS_MS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from .profile import NULL_PROFILER, NullProfiler, Profiler
from .schema import OUTPUT_SCHEMA_VERSION
from .tracing import NULL_SPAN, NULL_TRACER, NullTracer, Span, Tracer

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_BUCKETS_MS",
    "Span",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "NULL_SPAN",
    "Profiler",
    "NullProfiler",
    "NULL_PROFILER",
    "CacheScope",
    "NullCacheScope",
    "NULL_CACHESCOPE",
    "InvariantSampler",
    "Observability",
    "OUTPUT_SCHEMA_VERSION",
]


class Observability:
    """Bundle of one registry, one tracer and an invariant-sampling knob.

    ``trace=False`` substitutes the null tracer, so span calls cost a
    no-op method dispatch; the registry always exists (it is only read at
    snapshot time).  ``invariant_every=0`` disables sampling entirely;
    any N >= 1 makes the experiment runner attach an
    :class:`InvariantSampler` over the middleware's ``check_invariants``.
    ``profile=True`` additionally records critical-path phase spans on
    every blocking wait (implies tracing); feed the resulting trace to
    :mod:`repro.obs.analyze`.  ``cachestats=True`` attaches a
    :class:`~repro.obs.cachestats.CacheScope` recording cache-behavior
    telemetry (duplicate share, eviction provenance, forwarding hops);
    it is passive — no simulator events — so traces are byte-identical
    with it on or off.
    """

    def __init__(
        self,
        trace: bool = True,
        invariant_every: int = 0,
        profile: bool = False,
        cachestats: bool = False,
    ):
        if invariant_every < 0:
            raise ValueError("invariant_every must be >= 0")
        self.registry = MetricsRegistry()
        self.tracer = Tracer() if (trace or profile) else NULL_TRACER
        self.profiler = Profiler(self.tracer) if profile else NULL_PROFILER
        self.cachescope = CacheScope() if cachestats else NULL_CACHESCOPE
        self.invariant_every = invariant_every
        #: Set by the runner when sampling is active (for introspection).
        self.sampler: InvariantSampler | None = None

    def attach(self, sim) -> None:
        """Bind time-dependent pieces to a simulator's clock."""
        self.tracer.attach(sim)
        self.cachescope.attach(sim)
