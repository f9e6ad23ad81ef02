"""Shared experiment defaults and the scale-down machinery.

A full-size paper point (a 500k-2.5M request trace over a 140-790 MB file
set) is too slow for a pure-Python event simulator to sweep hundreds of
times, so by default every experiment runs a **scaled** workload: file
count and request count shrink by ``SCALE`` while per-file sizes, the
popularity shape and — crucially — the *memory-to-working-set ratio* stay
fixed (per-node memory shrinks by the same factor).  The paper's x-axis
"4-512 MB per node" therefore maps onto the same cache-pressure regimes.

Environment overrides::

    REPRO_SCALE=0.1        # workload scale factor (default 0.02)
    REPRO_REQUESTS=50000   # trace length (default 10000; 0 = the trace's own)
    REPRO_CLIENTS=256      # closed-loop client population (default 96)
    REPRO_FULL=1           # scale 1.0 and full trace lengths (slow!)

``REPRO_FULL`` is off when unset, empty or ``0`` and on at ``1``; on, it
overrides ``REPRO_SCALE`` and ``REPRO_REQUESTS``.  The knobs are read on
first use of ``SCALE``, ``NUM_REQUESTS`` or ``NUM_CLIENTS``, not at
import, and a value outside its range raises :class:`KnobError` naming
the variable.
"""

from __future__ import annotations

import math
import os
from collections.abc import Callable
from typing import Any, TypeVar

__all__ = [
    "SCALE",
    "NUM_REQUESTS",
    "NUM_CLIENTS",
    "PAPER_MEMORY_MB",
    "BENCH_MEMORY_MB",
    "KnobError",
    "env_knob",
    "bench_params",
    "memory_points_mb",
    "workload",
]

_T = TypeVar("_T")

#: The paper's per-node memory x-axis (MB), Figure 2.
PAPER_MEMORY_MB: list[float] = [4, 8, 16, 32, 64, 128, 256, 512]

#: The trimmed axis the benchmark harness and the ``sweep`` CLI share
#: (every other point of the paper's 8-point 4-512 MB axis, starting at
#: the 4 MB endpoint).  Both sides must use the same list, so that
#: ``sweep --bench-out`` reproduces the committed fig2 record; changing
#: it changes every figure record in ``benchmarks/results/``.
BENCH_MEMORY_MB: list[float] = [4, 16, 64, 256]


class KnobError(ValueError):
    """A ``REPRO_*`` environment knob holds a value outside its range."""


def env_knob(name: str, default: _T, convert: Callable[[str], _T],
             valid: Callable[[_T], bool], rule: str) -> _T:
    """Environment variable ``name`` through ``convert``, or ``default``
    when it is unset or empty; :class:`KnobError` unless ``valid``."""
    raw = os.environ.get(name)
    if not raw:
        return default
    try:
        value = convert(raw)
    except ValueError:
        raise KnobError(f"{name} must be {rule}, got {raw!r}") from None
    if not valid(value):
        raise KnobError(f"{name} must be {rule}, got {raw!r}")
    return value


#: Workload scale factor, trace length (0 = each trace's own) and
#: closed-loop client population: module globals once first read.
SCALE: float
NUM_REQUESTS: int
NUM_CLIENTS: int


def _read_knobs() -> dict[str, Any]:
    if env_knob("REPRO_FULL", 0, int, lambda n: n in (0, 1), "0 or 1"):
        scale, requests = 1.0, 0
    else:
        scale = env_knob("REPRO_SCALE", 0.02, float,
                         lambda x: 0 < x < math.inf, "positive and finite")
        requests = env_knob("REPRO_REQUESTS", 10_000, int,
                            lambda n: n >= 0, "an integer >= 0")
    clients = env_knob("REPRO_CLIENTS", 96, int,
                       lambda n: n >= 1, "an integer >= 1")
    return {"SCALE": scale, "NUM_REQUESTS": requests, "NUM_CLIENTS": clients}


def __getattr__(name: str) -> Any:
    """Read the workload knobs on first use and keep them as globals, so
    a bad value fails the command that needs it, not every import."""
    if name not in ("SCALE", "NUM_REQUESTS", "NUM_CLIENTS"):
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals().update(_read_knobs())
    return globals()[name]


def _knob(name: str) -> Any:
    """Knob ``name`` as ``defaults.<name>`` reads it (patched values win)."""
    return globals()[name] if name in globals() else __getattr__(name)


def memory_points_mb(points=None) -> list[float]:
    """The paper's memory axis, scaled to the active workload scale."""
    return [m * _knob("SCALE") for m in (points or PAPER_MEMORY_MB)]


def bench_params() -> dict:
    """The workload knobs that shape a benchmark run.

    Recorded as the ``params`` of every trajectory record (see
    :mod:`repro.bench.schema`), so a record names the workload it
    measured.  The pytest benchmark harness records exactly this dict;
    ``sweep`` records it with ``memory_mb`` set to the axis it ran.
    """
    return {
        "scale": _knob("SCALE"),
        "requests": _knob("NUM_REQUESTS"),
        "clients": _knob("NUM_CLIENTS"),
        "memory_mb": list(BENCH_MEMORY_MB),
    }


def workload(name: str):
    """Load trace ``name`` at the active scale."""
    from ..traces.datasets import scaled

    return scaled(name, _knob("SCALE"), num_requests=_knob("NUM_REQUESTS"))
