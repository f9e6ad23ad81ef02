"""Parameter sweeps over :func:`repro.experiments.runner.run_experiment`.

Every sweep decomposes into independent (system × point) cells and
executes them through :func:`repro.experiments.parallel.run_cells`, so
``workers > 1`` (or ``REPRO_WORKERS``) shards the same cells across
processes with results merged back in cell order — output is identical
to a serial run by construction.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from typing import Union

from ..core.config import CoopCacheConfig
from ..params import DEFAULT_PARAMS, SimParams
from ..traces.model import Trace
from . import defaults
from .parallel import run_cells
from .runner import ExperimentConfig, ExperimentResult, system_label

__all__ = ["memory_sweep", "node_sweep"]

System = Union[str, CoopCacheConfig]


def memory_sweep(
    trace: Trace,
    systems: Sequence[System],
    memories_mb: Sequence[float] | None = None,
    num_nodes: int = 8,
    num_clients: int | None = None,
    params: SimParams = DEFAULT_PARAMS,
    home_strategy: str = "round_robin",
    workers: int | None = None,
) -> dict[str, list[ExperimentResult]]:
    """Run every system at every per-node memory size.

    Returns ``{system_label: [result per memory point]}`` with the points
    in the order given (default: the paper's 4-512 MB axis, scaled).
    ``workers`` shards the (system × memory) cells across processes
    (default: the ``REPRO_WORKERS`` environment knob).
    """
    memories = list(memories_mb if memories_mb is not None
                    else defaults.memory_points_mb())
    clients = num_clients if num_clients is not None else defaults.NUM_CLIENTS
    labels = [system_label(system) for system in systems]
    cells = [
        ExperimentConfig(
            system=system,
            trace=trace,
            num_nodes=num_nodes,
            mem_mb_per_node=mem,
            num_clients=clients,
            params=params,
            home_strategy=home_strategy,
        )
        for system in systems
        for mem in memories
    ]
    results = run_cells(cells, workers=workers)
    n = len(memories)
    return {
        label: results[i * n:(i + 1) * n]
        for i, label in enumerate(labels)
    }


def node_sweep(
    trace: Trace,
    system: System,
    node_counts: Iterable[int],
    mem_mb_per_node: float,
    num_clients: int | None = None,
    params: SimParams = DEFAULT_PARAMS,
    workers: int | None = None,
) -> list[ExperimentResult]:
    """Run one system across cluster sizes (Figure 6b)."""
    clients = num_clients if num_clients is not None else defaults.NUM_CLIENTS
    cells = [
        ExperimentConfig(
            system=system,
            trace=trace,
            num_nodes=n,
            mem_mb_per_node=mem_mb_per_node,
            num_clients=clients,
            params=params,
        )
        for n in node_counts
    ]
    return run_cells(cells, workers=workers)
