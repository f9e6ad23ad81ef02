"""Diff a benchmark trajectory record against a committed baseline.

The gate is throughput-shaped: a metric *regresses* when
``current < baseline * (1 - threshold)``.  Improvements are reported but
never fail; metrics the current run is missing fail loudly (a silently
dropped curve is the worst kind of regression), and so does a NaN or
infinite value on either side, which no ratio test can judge.  A
``params_digest`` mismatch also fails — comparing runs with different
workload knobs says nothing about the code.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any

__all__ = ["CompareResult", "compare_records", "render_compare"]


@dataclass
class CompareResult:
    """Outcome of one record-vs-baseline comparison."""

    name: str
    threshold: float
    regressions: list[dict[str, Any]] = field(default_factory=list)
    improvements: list[dict[str, Any]] = field(default_factory=list)
    missing: list[str] = field(default_factory=list)
    nonfinite: list[dict[str, Any]] = field(default_factory=list)
    compared: int = 0
    params_mismatch: bool = False

    @property
    def ok(self) -> bool:
        """True when the gate passes."""
        return not self.regressions and not self.missing \
            and not self.nonfinite and not self.params_mismatch


def compare_records(
    current: dict[str, Any],
    baseline: dict[str, Any],
    threshold: float = 0.10,
) -> CompareResult:
    """Compare ``current`` against ``baseline`` at ``threshold``."""
    if not 0.0 < threshold < 1.0:
        raise ValueError("threshold must be in (0, 1)")
    result = CompareResult(
        name=str(current.get("name", "?")), threshold=threshold
    )
    if current.get("params_digest") != baseline.get("params_digest"):
        result.params_mismatch = True
        return result
    cur = current.get("metrics", {})
    base = baseline.get("metrics", {})
    for metric in sorted(base):
        b = base[metric]
        if metric not in cur:
            result.missing.append(metric)
            continue
        c = cur[metric]
        if not (math.isfinite(b) and math.isfinite(c)):
            result.nonfinite.append(
                {"metric": metric, "baseline": b, "current": c})
            continue
        if b <= 0.0:
            continue
        result.compared += 1
        ratio = c / b
        entry = {
            "metric": metric, "baseline": b, "current": c, "ratio": ratio,
        }
        # Inclusive boundary: a drop of exactly the threshold fails (the
        # gate reads "regressed by 10% or more", not "strictly more").
        if ratio <= 1.0 - threshold:
            result.regressions.append(entry)
        elif ratio >= 1.0 + threshold:
            result.improvements.append(entry)
    return result


def render_compare(result: CompareResult) -> str:
    """Human-readable comparison report."""
    pct = result.threshold * 100.0
    lines = [
        f"== {result.name}: {result.compared} metrics vs baseline "
        f"(gate: -{pct:.0f}%) =="
    ]
    if result.params_mismatch:
        lines.append(
            "  FAIL params digest mismatch — current and baseline were "
            "produced with different workload knobs; regenerate the "
            "baseline with matching REPRO_* settings"
        )
        return "\n".join(lines)
    for entry in result.regressions:
        lines.append(
            f"  REGRESSION {entry['metric']}: "
            f"{entry['baseline']:.2f} -> {entry['current']:.2f} "
            f"({(entry['ratio'] - 1.0) * 100.0:+.1f}%)"
        )
    for metric in result.missing:
        lines.append(f"  MISSING {metric}: in baseline, absent from run")
    for entry in result.nonfinite:
        lines.append(
            f"  NOT FINITE {entry['metric']}: "
            f"{entry['baseline']} -> {entry['current']}"
        )
    for entry in result.improvements:
        lines.append(
            f"  improved {entry['metric']}: "
            f"{entry['baseline']:.2f} -> {entry['current']:.2f} "
            f"({(entry['ratio'] - 1.0) * 100.0:+.1f}%)"
        )
    if result.ok:
        lines.append(
            f"  ok — no metric regressed more than {pct:.0f}% "
            f"({len(result.improvements)} improved)"
        )
    return "\n".join(lines)
