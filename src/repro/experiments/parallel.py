"""Sharded sweep execution: (trace × system × seed) cells across cores.

A *cell* is one :class:`~repro.experiments.runner.ExperimentConfig` —
the unit every figure/table sweep already decomposes into.  Cells are
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

On top of the runner sits the *fleet telemetry* layer (all opt-in, all
passive — wall-clock readings land only in outcome/progress records,
never in simulation state):

* :func:`run_cells_observed` returns, alongside the ordered results, one
  :class:`CellOutcome` per cell: wall-clock, worker identity, exit
  status, a metrics summary (throughput, response percentiles, binding
  resource) and — when an artifacts directory is given — the path of
  each cell's attribution artifact for the run ledger
  (:mod:`repro.obs.ledger`) and fleet rollups (:mod:`repro.obs.fleet`).
* :class:`SweepProgress` streams heartbeat events (cells done,
  cells/sec, ETA, stragglers, failures) to a JSONL file as outcomes
  arrive in *completion* order — live visibility without touching the
  merged results.
* A worker exception no longer surfaces as a bare multiprocessing
  traceback: the failing cell's system/trace/params digest is captured
  in its outcome and either collected (``failures=[]``) or raised as one
  :class:`SweepCellError` naming every failed cell.
"""

from __future__ import annotations

import json
import logging
import math
import multiprocessing
import os
import time
import traceback as traceback_mod
from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import Any, Callable, IO, Optional

from .runner import (
    ExperimentConfig, ExperimentResult, run_experiment, system_label,
)

__all__ = [
    "default_workers",
    "run_cells",
    "run_cells_observed",
    "cell_info",
    "CellInfo",
    "CellOutcome",
    "SweepCellError",
    "SweepProgress",
]

logger = logging.getLogger(__name__)

#: Environment knob: default worker count for sweeps (0/unset = serial).
WORKERS_ENV = "REPRO_WORKERS"


def default_workers() -> int:
    """Worker count from ``REPRO_WORKERS`` (default 1 = serial)."""
    raw = os.environ.get(WORKERS_ENV)
    if not raw:
        return 1
    value = int(raw)
    if value < 1:
        raise ValueError(f"{WORKERS_ENV} must be >= 1, got {value}")
    return value


# ---------------------------------------------------------------------------
# cell identity & outcomes
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class CellInfo:
    """Stable identity of one sweep cell (for ledgers and error reports)."""

    index: int
    system: str
    workload: str
    num_nodes: int
    mem_mb_per_node: float
    num_clients: int
    seed: int
    #: Digest over the cell coordinates (same construction as BENCH
    #: records), so a ledger row names *which* point ran.
    params_digest: str

    def coords(self) -> str:
        """Human-readable cell coordinates."""
        return (f"{self.system}/{self.workload}/"
                f"{self.mem_mb_per_node:g}MB/seed{self.seed}")


def cell_info(index: int, cfg: ExperimentConfig) -> CellInfo:
    """Build the ledger-facing identity of cell ``index``."""
    from ..bench.schema import params_digest

    coords = {
        "system": system_label(cfg.system),
        "workload": cfg.trace.spec.name,
        "num_nodes": cfg.num_nodes,
        "mem_mb_per_node": cfg.mem_mb_per_node,
        "num_clients": cfg.num_clients,
        "seed": cfg.seed,
    }
    return CellInfo(
        index=index,
        system=system_label(cfg.system),
        workload=cfg.trace.spec.name,
        num_nodes=cfg.num_nodes,
        mem_mb_per_node=cfg.mem_mb_per_node,
        num_clients=cfg.num_clients,
        seed=cfg.seed,
        params_digest=params_digest(coords),
    )


@dataclass
class CellOutcome:
    """Everything the fleet layer knows about one executed cell."""

    info: CellInfo
    ok: bool
    result: Optional[ExperimentResult] = None
    error: Optional[str] = None
    traceback: Optional[str] = None
    #: Wall-clock seconds the cell took (worker-measured, ledger-only).
    wall_s: float = 0.0
    worker: str = "main"
    #: Artifact name -> path written by the worker (attribution).
    artifacts: dict[str, str] = field(default_factory=dict)
    #: Ledger-ready metric summary (empty for failed cells).
    summary: dict[str, Any] = field(default_factory=dict)


class SweepCellError(RuntimeError):
    """One or more sweep cells failed; names each failing cell."""

    def __init__(self, outcomes: Sequence[CellOutcome]) -> None:
        self.outcomes = list(outcomes)
        lines = [f"{len(self.outcomes)} sweep cell(s) failed:"]
        for out in self.outcomes:
            lines.append(
                f"  cell {out.info.index} [{out.info.coords()}] "
                f"params {out.info.params_digest}: {out.error}"
            )
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
    artifacts_dir: Optional[str] = None
    profile: bool = False


def _cell_summary(result: ExperimentResult, obs: Any) -> dict[str, Any]:
    """Ledger-facing metric summary of one finished cell."""
    summary: dict[str, Any] = {
        "throughput_rps": result.throughput_rps,
        "mean_response_ms": result.mean_response_ms,
        "hit_rate_total": result.hit_rates.get("total", 0.0),
    }
    if obs is None:
        return summary
    from ..obs.analyze import binding_resource, build_trees, request_roots

    roots, _ = build_trees(obs.tracer.records)
    durs = sorted(r.dur for r in request_roots(roots, measured_only=True))
    summary["requests_measured"] = len(durs)
    summary["p95_ms"] = _percentile(durs, 0.95)
    summary["p99_ms"] = _percentile(durs, 0.99)
    binding = binding_resource(obs.registry.snapshot())
    summary["binding_resource"] = binding["resource"] if binding else None
    return summary


def _run_cell_job(job: _CellJob) -> CellOutcome:
    """Worker entry point for observed sweeps.  Never raises: failures
    come back as ``ok=False`` outcomes carrying the cell's identity."""
    info = cell_info(job.index, job.cfg)
    worker = multiprocessing.current_process().name
    t0 = time.perf_counter()  # simlint: disable=SL02 -- per-cell wall-clock is ledger telemetry, never sim state
    try:
        obs = None
        if job.profile:
            from ..obs import Observability

            obs = Observability(profile=True)
        result = run_experiment(job.cfg, obs=obs)
        wall_s = time.perf_counter() - t0  # simlint: disable=SL02 -- per-cell wall-clock is ledger telemetry, never sim state
        artifacts: dict[str, str] = {}
        if job.artifacts_dir is not None and obs is not None:
            os.makedirs(job.artifacts_dir, exist_ok=True)
            stem = os.path.join(job.artifacts_dir, f"cell-{job.index:04d}")
            from ..obs.analyze import attribute, attribution_to_dict

            attr = attribute(obs.tracer.records, measured_only=True)
            report = attribution_to_dict(attr, obs.registry.snapshot())
            with open(stem + "-attr.json", "w", encoding="utf-8") as fp:
                json.dump(report, fp, indent=2, sort_keys=True, default=float)
                fp.write("\n")
            artifacts = {"attribution": stem + "-attr.json"}
        return CellOutcome(
            info=info, ok=True, result=result, wall_s=wall_s, worker=worker,
            artifacts=artifacts, summary=_cell_summary(result, obs),
        )
    except Exception as exc:  # noqa: BLE001 - worker boundary, reported upward
        wall_s = time.perf_counter() - t0  # simlint: disable=SL02 -- per-cell wall-clock is ledger telemetry, never sim state
        return CellOutcome(
            info=info, ok=False,
            error=f"{type(exc).__name__}: {exc}",
            traceback=traceback_mod.format_exc(),
            wall_s=wall_s, worker=worker,
        )


# ---------------------------------------------------------------------------
# live progress telemetry
# ---------------------------------------------------------------------------
class SweepProgress:
    """Streams sweep heartbeat events to a JSONL file (and optionally a
    terminal) as cells complete.

    Events are emitted in *completion* order — that is the point: live
    visibility into a sharded sweep without perturbing the merged
    results.  ``clock`` is injectable (monotonic seconds) so tests pin
    the event stream byte-for-byte.  A cell whose wall-clock exceeds
    ``straggler_factor`` × the median is flagged a straggler in the
    ``end`` event and the summary.
    """

    def __init__(
        self,
        total: int,
        path: Optional[str] = None,
        clock: Optional[Callable[[], float]] = None,
        straggler_factor: float = 3.0,
        stream: Optional[IO[str]] = None,
    ) -> None:
        if total < 0:
            raise ValueError("total must be >= 0")
        if straggler_factor <= 1.0:
            raise ValueError("straggler_factor must be > 1")
        self.total = total
        self.path = path
        self.straggler_factor = straggler_factor
        self._clock: Callable[[], float] = (
            clock if clock is not None else time.monotonic  # simlint: disable=SL02 -- progress heartbeats are operator telemetry, never sim state
        )
        self._stream = stream
        self._fp: Optional[IO[str]] = None
        self._t0 = 0.0
        self.done = 0
        self.failed: list[CellOutcome] = []
        self._walls: list[tuple[float, CellInfo]] = []
        self._workers: dict[str, int] = {}

    # -- event plumbing -----------------------------------------------------
    def _emit(self, event: dict[str, Any]) -> None:
        if self.path is not None:
            if self._fp is None:
                self._fp = open(self.path, "w", encoding="utf-8")
            self._fp.write(
                json.dumps(event, sort_keys=True, default=float) + "\n"
            )
            self._fp.flush()

    def _rate(self, elapsed: float) -> float:
        return self.done / elapsed if elapsed > 0 else 0.0

    # -- lifecycle ----------------------------------------------------------
    def start(self) -> None:
        """Mark the sweep started; emits the ``start`` event."""
        self._t0 = self._clock()
        self._emit({"event": "start", "total": self.total})
        if self._stream is not None:
            print(f"sweep: 0/{self.total} cells", file=self._stream)

    def cell_done(self, outcome: CellOutcome) -> None:
        """Record one completed cell; emits a ``cell`` heartbeat."""
        self.done += 1
        if not outcome.ok:
            self.failed.append(outcome)
        self._walls.append((outcome.wall_s, outcome.info))
        self._workers[outcome.worker] = (
            self._workers.get(outcome.worker, 0) + 1
        )
        elapsed = self._clock() - self._t0
        rate = self._rate(elapsed)
        remaining = self.total - self.done
        eta = remaining / rate if rate > 0 else 0.0
        self._emit({
            "event": "cell",
            "index": outcome.info.index,
            "system": outcome.info.system,
            "workload": outcome.info.workload,
            "mem_mb_per_node": outcome.info.mem_mb_per_node,
            "status": "ok" if outcome.ok else "failed",
            "worker": outcome.worker,
            "wall_s": round(outcome.wall_s, 6),
            "done": self.done,
            "total": self.total,
            "elapsed_s": round(elapsed, 6),
            "cells_per_s": round(rate, 6),
            "eta_s": round(eta, 6),
        })
        if self._stream is not None:
            status = "" if outcome.ok else "  FAILED"
            print(
                f"sweep: {self.done}/{self.total} cells "
                f"({rate:.2f}/s, eta {eta:.0f}s) "
                f"[{outcome.info.coords()}]{status}",
                file=self._stream,
            )

    def stragglers(self) -> list[dict[str, Any]]:
        """Cells whose wall-clock exceeded factor × median (needs >= 2)."""
        if len(self._walls) < 2:
            return []
        walls = sorted(w for w, _info in self._walls)
        median = walls[len(walls) // 2]
        if median <= 0:
            return []
        return [
            {
                "index": info.index,
                "cell": info.coords(),
                "wall_s": round(wall, 6),
                "x_median": round(wall / median, 3),
            }
            for wall, info in sorted(self._walls,
                                     key=lambda wi: (wi[0], wi[1].index))
            if wall > self.straggler_factor * median
        ]

    def summary(self) -> dict[str, Any]:
        """Ledger/report-ready rollup of the whole sweep."""
        elapsed = (self._clock() - self._t0) if self.done else 0.0
        return {
            "total": self.total,
            "done": self.done,
            "failed": len(self.failed),
            "elapsed_s": round(elapsed, 6),
            "cells_per_s": round(self._rate(elapsed), 6),
            "stragglers": self.stragglers(),
            "workers": dict(sorted(self._workers.items())),
        }

    def finish(self) -> dict[str, Any]:
        """Emit the ``end`` event; returns the summary."""
        summary = self.summary()
        self._emit(dict(summary, event="end"))
        if self._fp is not None:
            self._fp.close()
            self._fp = None
        if self._stream is not None:
            print(
                f"sweep: done — {summary['done']}/{summary['total']} cells, "
                f"{summary['failed']} failed, {summary['elapsed_s']:.1f}s",
                file=self._stream,
            )
        return summary


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


def run_cells_observed(
    cells: Sequence[ExperimentConfig],
    workers: Optional[int] = None,
    *,
    progress: Optional[SweepProgress] = None,
    artifacts_dir: Optional[str] = None,
    profile: bool = False,
    failures: Optional[list[CellOutcome]] = None,
) -> tuple[list[Optional[ExperimentResult]], list[CellOutcome]]:
    """Run every cell with fleet telemetry; returns ``(results, outcomes)``.

    ``results`` is in cell order and identical to :func:`run_cells` —
    telemetry is passive.  ``outcomes`` (also cell order) carries
    per-cell wall-clock, worker identity, status, metric summaries and
    artifact paths.  ``profile=True`` runs each cell under
    ``Observability(profile=True)`` (verified passive: simulated results
    are unchanged) so summaries include response percentiles and the
    binding resource; with ``artifacts_dir`` each worker also writes the
    cell's attribution report there.

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
        _CellJob(index=i, cfg=cfg, artifacts_dir=artifacts_dir,
                 profile=profile)
        for i, cfg in enumerate(cells)
    ]
    if progress is not None:
        progress.start()
    outcomes: list[Optional[CellOutcome]] = [None] * len(cells)
    if workers <= 1:
        for job in jobs:
            outcome = _run_cell_job(job)
            outcomes[outcome.info.index] = outcome
            if progress is not None:
                progress.cell_done(outcome)
    else:
        ctx = _pool_context()
        logger.info(
            "sharding %d cells across %d workers (%s)",
            len(cells), workers, ctx.get_start_method(),
        )
        with ctx.Pool(processes=workers) as pool:
            # chunksize=1: cells are coarse (whole simulations), so favor
            # balance over batching.  imap_unordered surfaces outcomes in
            # completion order for live progress; the indexed reassembly
            # below restores submission order exactly.
            for outcome in pool.imap_unordered(_run_cell_job, jobs,
                                               chunksize=1):
                outcomes[outcome.info.index] = outcome
                if progress is not None:
                    progress.cell_done(outcome)
    if progress is not None:
        progress.finish()
    done = [out for out in outcomes if out is not None]
    assert len(done) == len(cells)
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
