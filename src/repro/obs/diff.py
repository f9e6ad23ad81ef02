"""Differential attribution: explain *why* two runs differ.

The bench-trajectory gate (``git diff`` of the regenerated
``benchmarks/results/``) can say that a run's numbers changed; this
module says where the time went.  Given two attribution summaries — the
``analyze --json`` output of a baseline and a current run — it produces
a phase-by-phase delta report with a **conservation check**: phase
deltas plus the residual delta sum to the mean-response delta exactly
(each side's attribution already telescopes to its measured mean, so
the difference telescopes too; any residue is float noise).

Inputs are deliberately flexible: :func:`load_attribution` accepts
either an attribution JSON summary (preferred — small, CI-archivable)
or a raw profiled trace JSONL, which it attributes on the fly.  That
lets ``analyze diff A B`` work from whichever artifact a pipeline kept.
"""

from __future__ import annotations

import json
import logging
from typing import Any

from .analyze import attribute, attribution_to_dict, load_jsonl, ordered_sum
from .schema import as_report, check_report

__all__ = ["load_attribution", "diff_attributions"]

logger = logging.getLogger(__name__)

#: Phase deltas smaller than this (ms/req) are reported but never named
#: as the regressed/improved phase — they are measurement noise.
_NAME_FLOOR_MS = 1e-9


def load_attribution(path) -> dict[str, Any]:
    """Load an attribution summary from ``path``.

    Accepts either an ``analyze --json`` attribution report or a
    profiled trace JSONL (detected by its first record carrying span
    fields), which is attributed on the fly.
    """
    with open(path, "r", encoding="utf-8") as fp:
        first = ""
        for line in fp:
            first = line.strip()
            if first:
                break
    head = None
    if first:
        try:
            head = json.loads(first)
        except json.JSONDecodeError:
            # Pretty-printed JSON: the first line is just "{".  A truly
            # malformed file fails the full parse below instead.
            head = None
    if isinstance(head, dict) and "span" in head and "trace" in head:
        logger.info("%s: trace JSONL; attributing on the fly", path)
        return attribution_to_dict(attribute(load_jsonl(path)))
    with open(path, "r", encoding="utf-8") as fp:
        doc = json.load(fp)
    check_report(doc, "attribution")
    return doc


def _class_summary(side: dict[str, Any]) -> dict[str, Any]:
    return {
        "requests": side.get("requests", 0),
        "mean_response_ms": side.get("mean_response_ms", 0.0),
    }


def _binding(side: dict[str, Any]) -> str | None:
    info = side.get("binding_resource")
    return info.get("resource") if isinstance(info, dict) else None


def diff_attributions(
    base: dict[str, Any], current: dict[str, Any]
) -> dict[str, Any]:
    """Phase-by-phase delta between two attribution summaries.

    Returns a shared-schema ``diff`` report.  Sign convention: positive
    deltas mean the *current* run is slower.  ``conservation_residual_ms``
    is ``delta - (sum(phase deltas) + residual delta)`` and must be ~0;
    a violation means the two summaries are not comparable (different
    schema, truncated file), not that the analysis is wrong.
    """
    base_phases = base.get("phase_means_ms", {})
    cur_phases = current.get("phase_means_ms", {})
    phases = sorted(set(base_phases) | set(cur_phases))
    phase_delta = {
        p: cur_phases.get(p, 0.0) - base_phases.get(p, 0.0) for p in phases
    }
    delta = (current.get("mean_response_ms", 0.0)
             - base.get("mean_response_ms", 0.0))
    residual_delta = (current.get("mean_residual_ms", 0.0)
                      - base.get("mean_residual_ms", 0.0))
    conservation = delta - (ordered_sum(phase_delta.values())
                            + residual_delta)

    regressions = sorted(
        ((p, d) for p, d in phase_delta.items() if d > _NAME_FLOOR_MS),
        key=lambda kv: (-kv[1], kv[0]),
    )
    improvements = sorted(
        ((p, d) for p, d in phase_delta.items() if d < -_NAME_FLOOR_MS),
        key=lambda kv: (kv[1], kv[0]),
    )

    base_classes = base.get("by_class", {})
    cur_classes = current.get("by_class", {})
    by_class_delta = {}
    for cls in sorted(set(base_classes) | set(cur_classes)):
        b = base_classes.get(cls, {})
        c = cur_classes.get(cls, {})
        by_class_delta[cls] = {
            "base": _class_summary(b),
            "current": _class_summary(c),
            "delta_ms": (c.get("mean_response_ms", 0.0)
                         - b.get("mean_response_ms", 0.0)),
        }

    base_res = _binding(base)
    cur_res = _binding(current)
    return as_report("diff", {
        "base": {
            "requests": base.get("requests", 0),
            "mean_response_ms": base.get("mean_response_ms", 0.0),
        },
        "current": {
            "requests": current.get("requests", 0),
            "mean_response_ms": current.get("mean_response_ms", 0.0),
        },
        "delta_ms": delta,
        "phase_delta_ms": phase_delta,
        "residual_delta_ms": residual_delta,
        "conservation_residual_ms": conservation,
        "regressed_phase": regressions[0][0] if regressions else None,
        "improved_phase": improvements[0][0] if improvements else None,
        "top_regressions": [
            {"phase": p, "delta_ms": d,
             "share": d / delta if delta > 0.0 else 0.0}
            for p, d in regressions[:3]
        ],
        "top_improvements": [
            {"phase": p, "delta_ms": d,
             "share": d / delta if delta < 0.0 else 0.0}
            for p, d in improvements[:3]
        ],
        "by_class_delta": by_class_delta,
        "binding_resource": {
            "base": base_res,
            "current": cur_res,
            "changed": bool(base_res and cur_res and base_res != cur_res),
        },
    })
