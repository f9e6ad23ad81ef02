"""Cross-cell fleet aggregation over a sweep's run-ledger slice.

Input is a list of ledger records (:func:`repro.obs.ledger.load_ledger`)
containing one ``sweep`` record and its ``cell`` children.  The cell
rows are read as the sweep worker wrote them; a ledger is input from
outside the program, so each row is checked once before it is read, and
a malformed one is a :class:`ValueError` naming its ``run_id``.  The
output — report kind ``"fleet"`` under the shared
:data:`~repro.obs.schema.OUTPUT_SCHEMA_VERSION` envelope — rolls the
cell rows up into fleet-level answers:

* **Attribution rollup + conservation check** — per-cell phase tables
  (from the attribution each cell row carries) summed across the fleet
  must reconcile *exactly* with the per-cell response-time totals (phase
  sums telescope to root durations per request, so the cross-cell
  identity ``Σ_cells Σ_phases = Σ_cells mean·n`` holds to float
  tolerance; a violation means a row was edited or truncated).
* **Binding-resource frequency** — how often each resource class binds
  across the (memory × system × trace) matrix, the fleet version of the
  paper's Figure-6a bottleneck-migration narrative.
* **Throughput matrix** — the fig2-shaped (trace × system × memory)
  grid, rendered as ASCII heatmaps by
  :func:`repro.obs.reports.render_fleet_report`.
* **The program's view** — wall-clock, cells/s, cells per worker and
  the stragglers: cells slower than :data:`STRAGGLER_FACTOR` × the
  sweep's median wall-clock.

Everything here is offline post-processing of ledger rows; nothing
touches simulation state.
"""

from __future__ import annotations

import math
import reprlib
from collections.abc import Callable, Iterable, Sequence
from typing import Any, Optional

from .ledger import CELL_KEYS, LEDGER_VERSION
from .schema import as_report

__all__ = [
    "select_sweep",
    "fleet_report",
    "conservation_check",
    "CONSERVATION_REL_TOL",
    "STRAGGLER_FACTOR",
]

#: Relative float tolerance for the cross-cell conservation identity.
CONSERVATION_REL_TOL = 1e-6
#: A cell whose wall-clock exceeds this multiple of the sweep's median
#: is a straggler.
STRAGGLER_FACTOR = 3.0

#: The keys of each entry of the report's ``cells`` list: the cell row
#: cut down to what the per-cell summary shows.
_REPORT_KEYS = (
    "run_id", "index", "system", "workload", "mem_mb_per_node", "seed",
    "status", "wall_s", "worker", "error", "throughput_rps",
    "mean_response_ms", "hit_rate_total", "p95_ms", "p99_ms",
    "binding_resource",
)


def select_sweep(
    records: Iterable[dict[str, Any]],
) -> tuple[dict[str, Any], list[dict[str, Any]]]:
    """The ledger's latest sweep record and its cells (matched by
    ``parent``)."""
    records = list(records)
    sweeps = [r for r in records if r.get("kind") == "sweep"]
    if not sweeps:
        raise ValueError("ledger contains no sweep records")
    sweep = sweeps[-1]
    cells = [
        r for r in records
        if r.get("kind") == "cell" and r.get("parent") == sweep.get("run_id")
    ]
    return sweep, cells


def _number(value: Any) -> bool:
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and math.isfinite(value))


def _number_or_null(value: Any) -> bool:
    return value is None or _number(value)


def _attribution_or_null(value: Any) -> bool:
    """Null, or an attribution report with the numbers the fleet sums."""
    if value is None:
        return True
    if not isinstance(value, dict):
        return False
    phases = value.get("phase_means_ms")
    return (all(_number(value.get(k)) for k in
                ("requests", "mean_response_ms", "mean_residual_ms"))
            and isinstance(phases, dict)
            # simlint: ordered -- all() is the same in any order.
            and all(_number(ms) for ms in phases.values()))


def _integer(value: Any) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _string(value: Any) -> bool:
    return isinstance(value, str)


#: What the fleet reads of a cell row's values: (key, rule, test).
_CELL_RULES: tuple[tuple[str, str, Callable[[Any], bool]], ...] = (
    ("index", "an integer", _integer),
    ("system", "a string", _string),
    ("workload", "a string", _string),
    ("mem_mb_per_node", "a finite number", _number),
    *((key, "a finite number or null", _number_or_null) for key in (
        "wall_s", "throughput_rps", "mean_response_ms", "hit_rate_total",
        "p95_ms", "p99_ms")),
    ("attribution", "an attribution report or null", _attribution_or_null),
)


def _check_row(row: dict[str, Any]) -> None:
    """Raise :class:`ValueError`, naming the row's ``run_id``, unless
    the cell row has every key of a ledger row and values the fleet
    can read."""
    missing = [k for k in ("run_id", "status", *CELL_KEYS) if k not in row]
    if missing:
        raise ValueError(f"cell row {row.get('run_id', '?')} lacks "
                         f"{', '.join(missing)}")
    for key, rule, test in _CELL_RULES:
        if not test(row[key]):
            raise ValueError(f"cell row {row['run_id']}: {key} must be "
                             f"{rule}, got {reprlib.repr(row[key])}")


def conservation_check(
    cell_rows: Sequence[dict[str, Any]],
) -> dict[str, Any]:
    """The exact cross-cell attribution conservation identity.

    For every cell with an attribution, per-request phase sums
    telescope to the root duration, so ``(Σ phase_means + residual) · n``
    must equal ``mean_response_ms · n`` — and summed across cells, the
    fleet-wide per-phase totals must reconcile with the fleet-wide
    response-time total.  ``ok`` is true iff the absolute error is
    within :data:`CONSERVATION_REL_TOL` of the total (floor 1 ms).
    """
    phase_sum = 0.0
    residual_sum = 0.0
    total = 0.0
    checked = 0
    for row in cell_rows:
        attr = row.get("attribution")
        if not attr:
            continue
        n = float(attr.get("requests", 0))
        if n <= 0:
            continue
        checked += 1
        total += float(attr.get("mean_response_ms", 0.0)) * n
        residual_sum += float(attr.get("mean_residual_ms", 0.0)) * n
        # simlint: ordered -- JSON-parsed dict preserves the row's key
        # order, and ledger rows are dumped sort_keys=True, so the float
        # accumulation order is fixed by the file bytes.
        for ms in attr.get("phase_means_ms", {}).values():
            phase_sum += float(ms) * n
    error = abs(total - (phase_sum + residual_sum))
    bound = CONSERVATION_REL_TOL * max(1.0, abs(total))
    return {
        "cells_checked": checked,
        "total_ms": total,
        "phase_sum_ms": phase_sum,
        "residual_sum_ms": residual_sum,
        "error_ms": error,
        "bound_ms": bound,
        "ok": bool(checked) and error <= bound,
    }


def _phase_totals(cell_rows: Sequence[dict[str, Any]]) -> dict[str, float]:
    """Fleet-wide per-phase milliseconds (phase mean × requests, summed)."""
    totals: dict[str, float] = {}
    for row in cell_rows:
        attr = row["attribution"]
        if not attr:
            continue
        n = float(attr.get("requests", 0))
        # simlint: ordered -- ledger rows are sort_keys=True on disk, so
        # JSON-parse insertion order (hence summation order) is fixed;
        # the result is re-sorted below regardless.
        for phase, ms in attr.get("phase_means_ms", {}).items():
            totals[phase] = totals.get(phase, 0.0) + float(ms) * n
    return dict(sorted(totals.items()))


def _binding_frequency(
    cell_rows: Sequence[dict[str, Any]],
) -> dict[str, int]:
    """How many cells each resource class binds across the matrix."""
    freq: dict[str, int] = {}
    for row in cell_rows:
        res = row["binding_resource"]
        if res:
            freq[str(res)] = freq.get(str(res), 0) + 1
    return dict(sorted(freq.items(), key=lambda kv: (-kv[1], kv[0])))


def _ordered_unique(values: Iterable[Any]) -> list[Any]:
    seen: list[Any] = []
    for v in values:
        if v not in seen:
            seen.append(v)
    return seen


def _throughput_matrix(
    cell_rows: Sequence[dict[str, Any]],
) -> dict[str, Any]:
    """(trace × system × memory) throughput grid, axes in ledger order."""
    traces = _ordered_unique(r["workload"] for r in cell_rows)
    systems = _ordered_unique(r["system"] for r in cell_rows)
    memories = _ordered_unique(r["mem_mb_per_node"] for r in cell_rows)
    grid: dict[str, dict[str, list[Optional[float]]]] = {
        t: {s: [None] * len(memories) for s in systems} for t in traces
    }
    for row in cell_rows:
        m = memories.index(row["mem_mb_per_node"])
        grid[row["workload"]][row["system"]][m] = row["throughput_rps"]
    return {
        "traces": traces,
        "systems": systems,
        "memories_mb": memories,
        "throughput_rps": grid,
    }


def _stragglers(rows: Sequence[dict[str, Any]]) -> list[dict[str, Any]]:
    """Cells whose wall-clock exceeds :data:`STRAGGLER_FACTOR` × the
    sweep's median, slowest last (none below 2 cells or at a zero
    median); ``rows`` come in cell order, which breaks ties."""
    timed = [r for r in rows if r["wall_s"] is not None]
    if len(timed) < 2:
        return []
    walls = sorted(float(r["wall_s"]) for r in timed)
    median = walls[len(walls) // 2]
    if median <= 0:
        return []
    return [
        {
            "index": r["index"],
            "system": r["system"],
            "workload": r["workload"],
            "mem_mb_per_node": r["mem_mb_per_node"],
            "wall_s": r["wall_s"],
            "x_median": round(float(r["wall_s"]) / median, 3),
        }
        for r in sorted(timed, key=lambda r: float(r["wall_s"]))
        if float(r["wall_s"]) > STRAGGLER_FACTOR * median
    ]


def _cells_per_worker(rows: Sequence[dict[str, Any]]) -> dict[str, int]:
    """How many cells each worker process ran."""
    counts: dict[str, int] = {}
    for row in rows:
        worker = str(row["worker"])
        counts[worker] = counts.get(worker, 0) + 1
    return dict(sorted(counts.items()))


def fleet_report(records: Iterable[dict[str, Any]]) -> dict[str, Any]:
    """Build the ``"fleet"`` report over the latest sweep's ledger slice.

    Raises :class:`ValueError` when that sweep was recorded under
    another :data:`~repro.obs.ledger.LEDGER_VERSION`, when its
    ``elapsed_s`` is not a finite number or null, or when one of its
    cell rows lacks a key or holds a value the report cannot read.
    """
    sweep, rows = select_sweep(records)
    version = sweep.get("ledger_version")
    if version != LEDGER_VERSION:
        raise ValueError(
            f"sweep {sweep.get('run_id')} has ledger version {version!r}; "
            f"this build reads version {LEDGER_VERSION} (re-run the sweep)"
        )
    elapsed_s = sweep.get("elapsed_s")
    if not _number_or_null(elapsed_s):
        raise ValueError(f"sweep row {sweep.get('run_id')}: elapsed_s must "
                         f"be a finite number or null, got "
                         f"{reprlib.repr(elapsed_s)}")
    for row in rows:
        _check_row(row)
    rows.sort(key=lambda r: r["index"])
    ok_rows = [r for r in rows if r["status"] == "ok"]
    failed = [
        {k: r[k] for k in
         ("run_id", "index", "system", "workload", "mem_mb_per_node",
          "error")}
        for r in rows if r["status"] != "ok"
    ]
    elapsed = float(elapsed_s or 0.0)
    payload: dict[str, Any] = {
        "sweep": {
            "run_id": sweep.get("run_id"),
            "git_sha": sweep.get("git_sha"),
            "workers": sweep.get("workers"),
            "elapsed_s": elapsed,
            "cells_per_s": len(rows) / elapsed if elapsed > 0 else 0.0,
            "cells_per_worker": _cells_per_worker(rows),
            "cells": len(rows),
            "cells_ok": len(ok_rows),
            "cells_failed": len(failed),
        },
        "conservation": conservation_check(rows),
        "phase_totals_ms": _phase_totals(rows),
        "binding_resources": _binding_frequency(ok_rows),
        "matrix": _throughput_matrix(ok_rows) if ok_rows else None,
        "stragglers": _stragglers(rows),
        "failed_cells": failed,
        "cells": [{k: r[k] for k in _REPORT_KEYS} for r in rows],
    }
    return as_report("fleet", payload)
