"""Cross-cell fleet aggregation over a sweep's run-ledger slice.

Input is a list of ledger records (:func:`repro.obs.ledger.load_ledger`)
containing one ``sweep`` record and its ``cell`` children.  The output
— report kind ``"fleet"`` under the shared
:data:`~repro.obs.schema.OUTPUT_SCHEMA_VERSION` envelope — rolls the
per-cell observability artifacts up into fleet-level answers:

* **Attribution rollup + conservation check** — per-cell phase tables
  (from each cell's attribution artifact) summed across the fleet must
  reconcile *exactly* with the per-cell response-time totals (phase sums
  telescope to root durations per request, so the cross-cell identity
  ``Σ_cells Σ_phases = Σ_cells mean·n`` holds to float tolerance; a
  violation means an artifact is stale or truncated).
* **Binding-resource frequency** — how often each resource class binds
  across the (memory × system × trace) matrix, the fleet version of the
  paper's Figure-6a bottleneck-migration narrative.
* **Throughput matrix** — the fig2-shaped (trace × system × memory)
  grid, rendered as ASCII heatmaps by
  :func:`repro.obs.reports.render_fleet_report`.

Everything here is offline post-processing of ledger rows and artifact
files; nothing touches simulation state.
"""

from __future__ import annotations

import json
import os
from collections.abc import Iterable, Sequence
from typing import Any, Optional

from .ledger import latest_sweep
from .schema import as_report

__all__ = [
    "select_sweep",
    "fleet_report",
    "conservation_check",
    "CONSERVATION_REL_TOL",
]

#: Relative float tolerance for the cross-cell conservation identity.
CONSERVATION_REL_TOL = 1e-6


def select_sweep(
    records: Iterable[dict[str, Any]],
) -> tuple[dict[str, Any], list[dict[str, Any]]]:
    """The ledger's latest sweep record and its cells (matched by
    ``parent``)."""
    records = list(records)
    sweep = latest_sweep(records)
    if sweep is None:
        raise ValueError("ledger contains no sweep records")
    cells = [
        r for r in records
        if r.get("kind") == "cell" and r.get("parent") == sweep["run_id"]
    ]
    return sweep, cells


def _resolve(path: str, base_dir: str) -> Optional[str]:
    """An artifact path as recorded, else relative to the ledger's dir."""
    if os.path.exists(path):
        return path
    alt = os.path.join(base_dir, path)
    if os.path.exists(alt):
        return alt
    return None


def _load_attribution(cell: dict[str, Any],
                      base_dir: str) -> Optional[dict[str, Any]]:
    artifacts = cell.get("artifacts") or {}
    raw = artifacts.get("attribution")
    if not raw:
        return None
    path = _resolve(str(raw), base_dir)
    if path is None:
        return None
    with open(path, encoding="utf-8") as fp:
        doc = json.load(fp)
    if not isinstance(doc, dict) or doc.get("kind") != "attribution":
        return None
    return doc


def conservation_check(
    cell_rows: Sequence[dict[str, Any]],
) -> dict[str, Any]:
    """The exact cross-cell attribution conservation identity.

    For every cell with an attribution artifact, per-request phase sums
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
        attr = row.get("_attribution")
        if not attr:
            continue
        n = float(attr.get("requests", 0))
        if n <= 0:
            continue
        checked += 1
        total += float(attr.get("mean_response_ms", 0.0)) * n
        residual_sum += float(attr.get("mean_residual_ms", 0.0)) * n
        # simlint: ordered -- JSON-parsed dict preserves the artifact's
        # key order, and attribution artifacts are dumped sort_keys=True,
        # so the float accumulation order is fixed by the file bytes.
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
        attr = row.get("_attribution")
        if not attr:
            continue
        n = float(attr.get("requests", 0))
        # simlint: ordered -- artifact dicts are sort_keys=True on disk,
        # so JSON-parse insertion order (hence summation order) is fixed;
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
        res = row.get("binding_resource")
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
        grid[row["workload"]][row["system"]][m] = row.get("throughput_rps")
    return {
        "traces": traces,
        "systems": systems,
        "memories_mb": memories,
        "throughput_rps": grid,
    }


def _cell_row(cell: dict[str, Any], base_dir: str) -> dict[str, Any]:
    """One flattened per-cell row (ledger fields + artifact joins)."""
    summary = cell.get("summary") or {}
    row: dict[str, Any] = {
        "run_id": cell.get("run_id"),
        "index": cell.get("cell_index"),
        "system": cell.get("system"),
        "workload": cell.get("workload"),
        "mem_mb_per_node": cell.get("mem_mb_per_node"),
        "seed": cell.get("seed"),
        "status": cell.get("status"),
        "wall_s": cell.get("wall_s"),
        "worker": cell.get("worker"),
        "error": cell.get("error"),
        "throughput_rps": summary.get("throughput_rps"),
        "mean_response_ms": summary.get("mean_response_ms"),
        "hit_rate_total": summary.get("hit_rate_total"),
        "p95_ms": summary.get("p95_ms"),
        "p99_ms": summary.get("p99_ms"),
        "binding_resource": summary.get("binding_resource"),
    }
    attr = _load_attribution(cell, base_dir)
    if attr is not None:
        # internal join, stripped before the row enters the report
        row["_attribution"] = attr
        binding = attr.get("binding_resource") or {}
        if row["binding_resource"] is None and binding:
            row["binding_resource"] = binding.get("resource")
    return row


def fleet_report(
    records: Iterable[dict[str, Any]],
    *,
    base_dir: str = ".",
) -> dict[str, Any]:
    """Build the ``"fleet"`` report over the latest sweep's ledger slice.

    ``base_dir`` resolves relative artifact paths (pass the ledger
    file's directory).
    """
    sweep, cells = select_sweep(records)
    rows = [_cell_row(c, base_dir) for c in cells]
    rows.sort(key=lambda r: (r["index"] if r["index"] is not None else 0))
    ok_rows = [r for r in rows if r["status"] == "ok"]
    failed = [
        {k: r[k] for k in
         ("run_id", "index", "system", "workload", "mem_mb_per_node",
          "error")}
        for r in rows if r["status"] != "ok"
    ]
    payload: dict[str, Any] = {
        "sweep": {
            "run_id": sweep.get("run_id"),
            "git_sha": sweep.get("git_sha"),
            "workers": sweep.get("workers"),
            "progress": sweep.get("progress"),
            "cells": len(rows),
            "cells_ok": len(ok_rows),
            "cells_failed": len(failed),
        },
        "conservation": conservation_check(rows),
        "phase_totals_ms": _phase_totals(rows),
        "binding_resources": _binding_frequency(ok_rows),
        "matrix": _throughput_matrix(ok_rows) if ok_rows else None,
        "failed_cells": failed,
        "cells": [
            # simlint: ordered -- key filter preserves the row's ledger
            # insertion order; serialization re-sorts keys anyway.
            {k: v for k, v in r.items() if not k.startswith("_")}
            for r in rows
        ],
    }
    return as_report("fleet", payload)
