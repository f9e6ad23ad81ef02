"""Sharded sweep execution: (trace × system × seed) cells across cores.

A *cell* is one :class:`~repro.experiments.runner.ExperimentConfig` —
the unit every figure, table and ablation sweep decomposes into
(:func:`~repro.experiments.figures.run_figures` submits the union of the
requested figures' distinct cells in one call).  Cells are
embarrassingly parallel by construction: each one builds its own
:class:`~repro.sim.Simulator`, derives every random stream from its own
``(seed, key)`` pair (:mod:`repro.sim.rng`), and touches no module
state, so a worker process needs nothing beyond the pickled config.

The determinism argument for the parallel runner, in full:

1. **Worker isolation** — ``run_experiment`` reads only its config; a
   fresh interpreter (spawn) and a forked one produce identical results
   because no ambient state (wall clock, global RNG, environment
   mutation) feeds the simulation (simlint SL02 enforces this).
2. **Seeded cells** — every stochastic input is derived from the cell's
   own seed, so results are a pure function of the cell.
3. **Ordered merge** — completion order is nondeterministic under
   ``imap_unordered``, but every outcome carries its submission index
   and the merge reassembles by index; the merged list is byte-identical
   to a serial loop over the same cells.

Hence ``run_cells(cells, workers=4)`` == ``run_cells(cells, workers=1)``
element-for-element, which ``tests/test_sweep_parallel.py`` pins all the
way down to BENCH-record and golden-digest bytes.

On top of the runner sits the *fleet telemetry* layer (opt-in and
passive — wall-clock readings land only in outcomes and log lines, never
in simulation state):

* :func:`run_cells_observed` returns, alongside the ordered results, one
  :class:`CellOutcome` per cell.  Its ``row`` is the cell's ledger row
  (:mod:`repro.obs.ledger`, version 3), built once in the worker as one
  flat dict with the keys of :data:`~repro.obs.ledger.CELL_KEYS`, in
  that order: the cell's index, its six coordinates and their params
  digest, wall-clock and worker, throughput, mean response and hit
  rate; for a profiled cell the p95/p99 response, binding resource and
  attribution report; for a failed cell its error.  A value the cell
  did not produce is null.  ``sweep --ledger`` appends each row
  unchanged, the only record of the cell, and :mod:`repro.obs.fleet`
  reads it as written.
* The merge logs one INFO line per finished cell, in completion order:
  live progress (``-v`` on the CLI) without touching the merged results.
* A worker exception no longer surfaces as a bare multiprocessing
  traceback: the failing cell's row carries the error next to its
  coordinates, and the outcome is either collected (``failures=[]``) or
  raised as one :class:`SweepCellError` naming every failed cell
  (:func:`failure_line`).
"""

from __future__ import annotations

import logging
import math
import multiprocessing
import time
import traceback as traceback_mod
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from typing import Any, Optional

from ..bench.schema import params_digest
from ..obs.ledger import CELL_KEYS
from .defaults import env_knob
from .runner import (
    ExperimentConfig, ExperimentResult, run_experiment, system_label,
)

__all__ = [
    "default_workers",
    "run_cells",
    "run_cells_observed",
    "failure_line",
    "CellOutcome",
    "SweepCellError",
]

logger = logging.getLogger(__name__)

#: Environment knob: default worker count for sweeps (unset = serial).
WORKERS_ENV = "REPRO_WORKERS"


def default_workers() -> int:
    """Worker count from ``REPRO_WORKERS`` (default 1 = serial)."""
    return env_knob(WORKERS_ENV, 1, int, lambda n: n >= 1, "an integer >= 1")


# ---------------------------------------------------------------------------
# cell outcomes
# ---------------------------------------------------------------------------
@dataclass
class CellOutcome:
    """One executed cell: its ledger row, and its result or the
    traceback of its failure."""

    #: The cell's ledger row: every key of ``CELL_KEYS``, in order.
    row: dict[str, Any]
    result: Optional[ExperimentResult] = None
    traceback: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.row["error"] is None


def _coords(row: dict[str, Any]) -> str:
    """Human-readable coordinates of a cell row."""
    return (f"{row['system']}/{row['workload']}/"
            f"{row['mem_mb_per_node']:g}MB/seed{row['seed']}")


def failure_line(row: dict[str, Any]) -> str:
    """One line naming a failed cell's row and its error."""
    return (f"cell {row['index']} [{_coords(row)}] "
            f"params {row['params_digest']}: {row['error']}")


class SweepCellError(RuntimeError):
    """One or more sweep cells failed; names each failing cell."""

    def __init__(self, outcomes: Sequence[CellOutcome]) -> None:
        self.outcomes = list(outcomes)
        lines = [f"{len(self.outcomes)} sweep cell(s) failed:"]
        lines.extend("  " + failure_line(out.row) for out in self.outcomes)
        super().__init__("\n".join(lines))


def _percentile(sorted_vals: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of an ascending-sorted sample."""
    if not sorted_vals:
        return 0.0
    rank = max(1, math.ceil(q * len(sorted_vals)))
    return float(sorted_vals[min(rank, len(sorted_vals)) - 1])


@dataclass(frozen=True)
class _CellJob:
    """Pickled unit of work shipped to a pool worker."""

    index: int
    cfg: ExperimentConfig
    profile: bool = False


def _run_cell_job(job: _CellJob) -> CellOutcome:
    """Worker entry point for observed sweeps: runs the cell and builds
    its ledger row.  Never raises: a failed cell's row carries its
    error, and its outcome the traceback."""
    cfg = job.cfg
    coords = {
        "system": system_label(cfg.system),
        "workload": cfg.trace.spec.name,
        "num_nodes": cfg.num_nodes,
        "mem_mb_per_node": cfg.mem_mb_per_node,
        "num_clients": cfg.num_clients,
        "seed": cfg.seed,
    }
    row: dict[str, Any] = dict.fromkeys(CELL_KEYS)
    row.update(index=job.index, **coords, params_digest=params_digest(coords),
               worker=multiprocessing.current_process().name)
    t0 = time.perf_counter()  # simlint: disable=SL02 -- per-cell wall-clock is ledger telemetry, never sim state
    try:
        obs = None
        if job.profile:
            from ..obs import Observability

            obs = Observability(profile=True)
        result = run_experiment(cfg, obs=obs)
        wall_s = time.perf_counter() - t0  # simlint: disable=SL02 -- per-cell wall-clock is ledger telemetry, never sim state
        metrics: dict[str, Any] = {
            "throughput_rps": result.throughput_rps,
            "mean_response_ms": result.mean_response_ms,
            "hit_rate_total": result.hit_rates.get("total", 0.0),
        }
        if obs is not None:
            from ..obs.analyze import attribute, attribution_to_dict

            attr = attribute(obs.tracer.records, measured_only=True)
            durs = sorted(r.dur for r in attr.requests)
            attribution = attribution_to_dict(attr, obs.registry.snapshot())
            binding = attribution["binding_resource"] or {}
            metrics.update(
                p95_ms=_percentile(durs, 0.95),
                p99_ms=_percentile(durs, 0.99),
                binding_resource=binding.get("resource"),
                attribution=attribution,
            )
    except Exception as exc:  # noqa: BLE001 - worker boundary, reported upward
        wall_s = time.perf_counter() - t0  # simlint: disable=SL02 -- per-cell wall-clock is ledger telemetry, never sim state
        row.update(wall_s=round(wall_s, 6),
                   error=f"{type(exc).__name__}: {exc}")
        return CellOutcome(row, traceback=traceback_mod.format_exc())
    row.update(wall_s=round(wall_s, 6), **metrics)
    return CellOutcome(row, result)


def _run_pooled_cell_job(job: _CellJob) -> CellOutcome:
    """Pool entry point: :func:`_run_cell_job` whose result travels back
    without its config, which holds the cell's whole trace; the parent
    re-attaches the config it submitted."""
    outcome = _run_cell_job(job)
    if outcome.result is not None:
        del outcome.result.config
    return outcome


# ---------------------------------------------------------------------------
# runners
# ---------------------------------------------------------------------------
def _pool_context() -> Any:
    # fork (where available) skips per-worker reimport of the package;
    # spawn is the portable fallback.  Results are identical under
    # either start method — workers only consume their pickled cell.
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context(
        "fork" if "fork" in methods else "spawn"
    )


def _merge(
    finished: Iterable[CellOutcome], cells: Sequence[ExperimentConfig],
) -> list[CellOutcome]:
    """Slot outcomes arriving in completion order back into cell order,
    logging one INFO line per finished cell as it arrives."""
    slots: list[Optional[CellOutcome]] = [None] * len(cells)
    for done, outcome in enumerate(finished, 1):
        row = outcome.row
        if outcome.result is not None:
            # Pooled results travel without their config (see
            # _run_pooled_cell_job); serially this re-sets the same one.
            outcome.result.config = cells[row["index"]]
        slots[row["index"]] = outcome
        logger.info(
            "cell %d/%d [%s] %s, %.2f s wall, worker %s",
            done, len(cells), _coords(row),
            "ok" if outcome.ok else "FAILED", row["wall_s"], row["worker"],
        )
    merged = [out for out in slots if out is not None]
    assert len(merged) == len(cells)
    return merged


def run_cells_observed(
    cells: Sequence[ExperimentConfig],
    workers: Optional[int] = None,
    *,
    profile: bool = False,
    failures: Optional[list[CellOutcome]] = None,
) -> tuple[list[Optional[ExperimentResult]], list[CellOutcome]]:
    """Run every cell with fleet telemetry; returns ``(results, outcomes)``.

    ``results`` is in cell order and identical to :func:`run_cells` —
    telemetry is passive.  ``outcomes`` (also cell order) carries each
    cell's ledger row: wall-clock, worker identity, error and metrics.
    ``profile=True`` runs each cell under ``Observability(profile=True)``
    (verified passive: simulated results are unchanged) and attributes
    its trace once, so each row also carries the cell's p95/p99
    response, binding resource and attribution report.

    Failures: by default any failed cell raises :class:`SweepCellError`
    (after *all* cells ran — the merge is never aborted mid-flight).
    Passing a ``failures`` list collects them instead; the corresponding
    ``results`` slots are ``None``.
    """
    cells = list(cells)
    if workers is None:
        workers = default_workers()
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    workers = min(workers, len(cells))
    jobs = [
        _CellJob(index=i, cfg=cfg, profile=profile)
        for i, cfg in enumerate(cells)
    ]
    if workers <= 1:
        done = _merge(map(_run_cell_job, jobs), cells)
    else:
        ctx = _pool_context()
        logger.info(
            "sharding %d cells across %d workers (%s)",
            len(cells), workers, ctx.get_start_method(),
        )
        with ctx.Pool(processes=workers) as pool:
            # chunksize=1: cells are coarse (whole simulations), so favor
            # balance over batching.  imap_unordered surfaces outcomes in
            # completion order for the progress log; _merge restores
            # submission order exactly.
            done = _merge(
                pool.imap_unordered(_run_pooled_cell_job, jobs, chunksize=1),
                cells,
            )
    failed = [out for out in done if not out.ok]
    if failed:
        if failures is None:
            raise SweepCellError(failed)
        failures.extend(failed)
    return [out.result for out in done], done


def run_cells(
    cells: Sequence[ExperimentConfig],
    workers: Optional[int] = None,
) -> list[ExperimentResult]:
    """Run every cell; returns results in cell order.

    ``workers > 1`` shards cells across that many processes (capped at
    the cell count).  Output is guaranteed identical to ``workers=1``:
    see the module docstring for the three-step determinism argument.
    A failing cell raises :class:`SweepCellError` naming its
    system/trace/params digest (after the remaining cells finished).
    """
    results, _outcomes = run_cells_observed(cells, workers)
    return [r for r in results if r is not None]
