"""Discrete-event simulation substrate (system S1 in DESIGN.md).

Public surface:

* :class:`~repro.sim.engine.Simulator` — the event loop over one heap.
* :class:`~repro.sim.engine.Event`, :class:`~repro.sim.engine.Process`,
  :class:`~repro.sim.engine.Timeout`, :class:`~repro.sim.engine.AllOf`,
  :class:`~repro.sim.engine.AnyOf` — waitables for protocol coroutines.
* :class:`~repro.sim.servicecenter.ServiceCenter` — finite-queue resource.
* :mod:`~repro.sim.stats` — measurement instruments.
* :func:`~repro.sim.rng.stream` — keyed deterministic RNG streams.
"""

from . import theory
from .engine import (
    AllOf,
    AnyOf,
    Event,
    Process,
    SimulationError,
    Simulator,
    Timeout,
)
from .faults import (
    NULL_FAULTS,
    FaultEvent,
    FaultInjector,
    FaultPlan,
    NullFaultInjector,
    RequestAborted,
)
from .rng import derive_seed, stream
from .servicecenter import QueueFullError, ServiceCenter
from .stats import (
    CounterSet,
    ReservoirQuantiles,
    RunningStats,
    ThroughputMeter,
    UtilizationTracker,
)

__all__ = [
    "Simulator",
    "Event",
    "Process",
    "Timeout",
    "AllOf",
    "AnyOf",
    "SimulationError",
    "ServiceCenter",
    "QueueFullError",
    "UtilizationTracker",
    "ThroughputMeter",
    "RunningStats",
    "ReservoirQuantiles",
    "CounterSet",
    "FaultEvent",
    "FaultPlan",
    "FaultInjector",
    "NullFaultInjector",
    "NULL_FAULTS",
    "RequestAborted",
    "stream",
    "derive_seed",
    "theory",
]
