"""Human-readable reports over trace analysis results.

All renderers are plain text (terminal / CI-log friendly):

* :func:`render_profile_report` — the bottleneck report: per-phase
  attribution table summing to measured mean response time, per-class
  breakdowns, and the binding resource named from per-node utilizations;
* :func:`render_top_requests` — the top-K slowest requests with their
  span trees pretty-printed (unfinished requests listed separately);
* :func:`render_diff_report` — the "explain" report between two runs'
  attributions, with the conservation check;
* :func:`render_fleet_report` — cross-cell sweep rollup: wall-clock
  and stragglers, conservation check, binding-resource frequency,
  (memory × system × trace) throughput heatmaps, per-cell table.
"""

from __future__ import annotations

from collections.abc import Iterable
from typing import Any

from ..experiments.report import format_table
from .analyze import (
    PHASE_ORDER,
    REQUEST_ROOT_NAMES,
    Attribution,
    SpanNode,
    binding_resource,
    build_trees,
    decompose_request,
    request_roots,
)
from .fleet import STRAGGLER_FACTOR
from .profile import PHASE_SPAN

__all__ = [
    "render_profile_report",
    "render_top_requests",
    "render_diff_report",
    "render_fleet_report",
    "format_span_tree",
]


def _ordered_phases(means: dict[str, float]) -> list[str]:
    """Phases in canonical order, then any unknown ones alphabetically."""
    known = [p for p in PHASE_ORDER if p in means]
    extra = sorted(set(means) - set(PHASE_ORDER))
    return known + extra


def _phase_table(attr: Attribution, title: str) -> str:
    means = attr.phase_means()
    mean_total = attr.mean_response_ms
    rows = []
    for phase in _ordered_phases(means):
        ms = means[phase]
        share = 100.0 * ms / mean_total if mean_total else 0.0
        rows.append((phase, ms, share))
    rows.append(("(residual)", attr.mean_residual_ms,
                 100.0 * attr.mean_residual_ms / mean_total
                 if mean_total else 0.0))
    rows.append(("total = mean response", mean_total, 100.0))
    return format_table(
        ["phase", "mean ms/req", "share %"], rows,
        title=f"{title} ({attr.count} requests)", ndigits=4,
    )


def render_profile_report(
    attr: Attribution,
    metrics: dict[str, Any] | None = None,
    per_class: bool = True,
) -> str:
    """The bottleneck report for one attributed run."""
    parts: list[str] = []
    if not attr.count:
        return ("no finished request roots in trace "
                "(was the run profiled with --profile?)")
    parts.append(_phase_table(attr, "critical-path attribution"))

    if per_class:
        for cls, sub in attr.by_class().items():
            parts.append("")
            parts.append(_phase_table(sub, f"class {cls!r}"))

    parts.append("")
    if metrics is not None:
        info = binding_resource(metrics)
        if info is not None:
            per_res = info["per_resource"]
            rows = [
                (res, per_res[res]["mean"], per_res[res]["max"],
                 per_res[res]["max_node"])
                for res in sorted(
                    per_res, key=lambda r: -per_res[r]["mean"]
                )
            ]
            parts.append(format_table(
                ["resource", "mean util", "max util", "hottest node"],
                rows, title="per-resource utilization", ndigits=3,
            ))
            parts.append("")
            parts.append(
                f"binding resource: {info['resource']} "
                f"(cluster-mean utilization {info['mean']:.3f}, "
                f"peak {info['max']:.3f} at {info['max_node']})"
            )
        else:
            parts.append("binding resource: n/a "
                         "(metrics snapshot has no per-node utilizations)")
    else:
        # No metrics: name the dominant phase group instead.
        means = attr.phase_means()
        groups: dict[str, float] = {}
        for phase, ms in means.items():
            groups[phase.split(".", 1)[0]] = (
                groups.get(phase.split(".", 1)[0], 0.0) + ms
            )
        if groups:
            top = max(groups, key=lambda g: groups[g])
            parts.append(
                f"dominant phase group: {top} "
                f"({groups[top]:.4f} ms/req; pass metrics.json for "
                f"utilization-based binding-resource analysis)"
            )
    return "\n".join(parts)


# ---------------------------------------------------------------------------
# span-tree pretty printing / top-K
# ---------------------------------------------------------------------------
def _span_label(node: SpanNode) -> str:
    if node.name == PHASE_SPAN:
        name = f"ph:{node.attrs.get('p', '?')}"
    else:
        name = node.name
    where = f" node={node.node}" if node.node is not None else ""
    dur = node.dur
    timing = (
        f" +{dur:.4f}ms" if dur is not None else " (unfinished)"
    )
    extras = {
        k: v for k, v in node.attrs.items()
        if k in ("cls", "q", "seek", "svc", "peer", "home", "n", "hits",
                 "misses", "d", "pe", "j")
    }
    extra = (
        " [" + " ".join(f"{k}={v}" for k, v in sorted(extras.items())) + "]"
        if extras else ""
    )
    return f"{name}{where} @{node.start:.3f}{timing}{extra}"


def format_span_tree(root: SpanNode, max_depth: int = 8) -> str:
    """Indented one-line-per-span rendering of a trace tree."""
    lines: list[str] = []

    def visit(node: SpanNode, depth: int) -> None:
        lines.append("  " * depth + _span_label(node))
        if depth + 1 > max_depth:
            if node.children:
                lines.append("  " * (depth + 1)
                             + f"... {len(node.children)} children elided")
            return
        for child in node.children:
            visit(child, depth + 1)

    visit(root, 0)
    return "\n".join(lines)


def render_top_requests(
    records: Iterable[dict[str, Any]], k: int = 10,
    measured_only: bool = True,
) -> str:
    """The K slowest requests, each with its span tree.

    Request roots without an end timestamp cannot be ranked by duration
    — silently dropping (or zero-ranking) them would hide exactly the
    requests a crash cut short — so they get their own "unfinished"
    section after the ranking.
    """
    roots, _index = build_trees(records)
    reqs = request_roots(roots, measured_only=measured_only)
    unfinished = [
        r for r in roots if r.name in REQUEST_ROOT_NAMES and r.dur is None
    ]
    parts: list[str] = []
    if not reqs:
        parts.append("no finished request roots in trace")
    else:
        slowest = sorted(
            reqs, key=lambda r: (-(r.dur or 0.0), r.span_id)
        )[:k]
        parts.append(f"top {len(slowest)} slowest requests")
        for rank, root in enumerate(slowest, 1):
            profile = decompose_request(root)
            top_phases = sorted(
                profile.phases.items(), key=lambda kv: -kv[1]
            )[:3]
            summary = ", ".join(f"{p} {ms:.3f}ms" for p, ms in top_phases)
            parts.append("")
            parts.append(
                f"#{rank} trace {root.trace_id} cls={profile.cls or '?'} "
                f"{profile.dur:.4f} ms  (top phases: {summary})"
            )
            parts.append(format_span_tree(root))
    if unfinished:
        parts.append("")
        parts.append(
            f"unfinished requests ({len(unfinished)}) — no end "
            "timestamp, excluded from the ranking:"
        )
        for root in sorted(unfinished, key=lambda r: (r.start, r.span_id)):
            where = f" node={root.node}" if root.node is not None else ""
            parts.append(
                f"  trace {root.trace_id} span {root.span_id}{where} "
                f"started @{root.start:.3f} ms"
            )
    return "\n".join(parts)


# ---------------------------------------------------------------------------
# differential ("explain") report
# ---------------------------------------------------------------------------
def render_diff_report(diff: dict[str, Any]) -> str:
    """The explain report for a
    :func:`repro.obs.diff.diff_attributions` result."""
    base = diff.get("base", {})
    cur = diff.get("current", {})
    delta = diff.get("delta_ms", 0.0)
    phase_delta = diff.get("phase_delta_ms", {})
    rows = []
    for p in _ordered_phases(phase_delta):
        d = phase_delta[p]
        rows.append((p, d, 100.0 * d / delta if delta else 0.0))
    rows.append(("(residual)", diff.get("residual_delta_ms", 0.0),
                 100.0 * diff.get("residual_delta_ms", 0.0) / delta
                 if delta else 0.0))
    rows.append(("total = Δ mean response", delta, 100.0))
    parts = [format_table(
        ["phase", "Δ ms/req", "share of Δ %"], rows,
        title=(
            f"differential attribution "
            f"({base.get('requests', 0)} -> {cur.get('requests', 0)} "
            f"requests, {base.get('mean_response_ms', 0.0):.4f} -> "
            f"{cur.get('mean_response_ms', 0.0):.4f} ms)"
        ),
        ndigits=4,
    )]
    parts.append(
        f"conservation check: phase deltas + residual - Δ = "
        f"{diff.get('conservation_residual_ms', 0.0):.6f} ms (~0 expected)"
    )
    parts.append("")
    if delta > 0.0 and diff.get("regressed_phase"):
        top = diff["top_regressions"][0]
        parts.append(
            f"regression explained by: {top['phase']} "
            f"({top['delta_ms']:+.4f} ms/req, "
            f"{100.0 * top['share']:.0f}% of the {delta:+.4f} ms delta)"
        )
    elif delta < 0.0 and diff.get("improved_phase"):
        top = diff["top_improvements"][0]
        parts.append(
            f"improvement explained by: {top['phase']} "
            f"({top['delta_ms']:+.4f} ms/req, "
            f"{100.0 * top['share']:.0f}% of the {delta:+.4f} ms delta)"
        )
    else:
        parts.append("mean response unchanged (no phase to name)")
    binding = diff.get("binding_resource", {})
    if binding.get("base") and binding.get("current"):
        if binding["changed"]:
            parts.append(
                f"binding resource moved: {binding['base']} -> "
                f"{binding['current']}"
            )
        else:
            parts.append(
                f"binding resource unchanged: {binding['current']}"
            )
    by_class = diff.get("by_class_delta", {})
    if by_class:
        parts.append("")
        parts.append(format_table(
            ["class", "base ms", "current ms", "Δ ms", "base n", "cur n"],
            [
                (cls, row["base"]["mean_response_ms"],
                 row["current"]["mean_response_ms"], row["delta_ms"],
                 row["base"]["requests"], row["current"]["requests"])
                for cls, row in sorted(by_class.items())
            ],
            title="per-class mean response", ndigits=4,
        ))
    return "\n".join(parts)


# ---------------------------------------------------------------------------
# fleet report (cross-cell sweep rollup)
# ---------------------------------------------------------------------------
#: Shade ramp for the ASCII throughput heatmaps (low -> high).
_HEAT_GLYPHS = " ░▒▓█"


def _heat(value: float | None, lo: float, hi: float) -> str:
    if value is None:
        return "  ·  "
    if hi <= lo:
        frac = 1.0
    else:
        frac = (value - lo) / (hi - lo)
    idx = min(len(_HEAT_GLYPHS) - 1, int(frac * (len(_HEAT_GLYPHS) - 1)
                                         + 0.5))
    return _HEAT_GLYPHS[idx] * 5


def _fleet_heatmaps(matrix: dict[str, Any]) -> list[str]:
    """One (system × memory) heatmap panel per trace, shades normalized
    within the panel so the bottleneck-migration shape stands out."""
    parts: list[str] = []
    memories = matrix["memories_mb"]
    header = "  " + f"{'system':<10}" + " ".join(
        f"{m:>5g}" for m in memories
    ) + "   MB/node"
    for trace in matrix["traces"]:
        grid = matrix["throughput_rps"][trace]
        vals = [v for row in grid.values() for v in row if v is not None]
        lo, hi = (min(vals), max(vals)) if vals else (0.0, 0.0)
        parts.append(f"throughput heatmap — {trace} "
                     f"(range {lo:.0f}..{hi:.0f} req/s)")
        parts.append(header)
        for system in matrix["systems"]:
            cells = " ".join(
                _heat(v, lo, hi) for v in grid[system]
            )
            parts.append(f"  {system:<10}{cells}")
        parts.append("")
    return parts


def _straggler_line(stragglers: list[dict[str, Any]], cells: int) -> str:
    head = f"stragglers (> {STRAGGLER_FACTOR:g}x median wall-clock): "
    if cells < 2:
        return head + "n/a (need at least 2 cells)"
    if not stragglers:
        return head + "none"
    return head + ", ".join(
        f"#{s.get('index')} {s.get('system')}/{s.get('workload')}"
        f"/{s.get('mem_mb_per_node')}MB {s.get('wall_s', 0.0):.2f}s "
        f"({s.get('x_median', 0.0):.1f}x)"
        for s in stragglers
    )


def render_fleet_report(report: dict[str, Any]) -> str:
    """The cross-cell rollup for an ``analyze fleet`` report."""
    sweep = report.get("sweep", {})
    per_worker = ", ".join(
        f"{name}={count}"
        for name, count in sweep.get("cells_per_worker", {}).items()
    )
    if per_worker:
        per_worker = f" ({per_worker})"
    parts = [
        f"fleet report — sweep {sweep.get('run_id', '?')} "
        f"(git {sweep.get('git_sha', '?')})",
        f"  cells: {sweep.get('cells', 0)} total, "
        f"{sweep.get('cells_ok', 0)} ok, "
        f"{sweep.get('cells_failed', 0)} failed; "
        f"workers: {sweep.get('workers', '?')}{per_worker}",
        f"  wall-clock: {sweep.get('elapsed_s', 0.0):.1f}s at "
        f"{sweep.get('cells_per_s', 0.0):.2f} cells/s",
        "  " + _straggler_line(report.get("stragglers", []),
                               sweep.get("cells", 0)),
    ]

    cons = report.get("conservation", {})
    parts.append("")
    if cons.get("cells_checked"):
        verdict = "OK" if cons.get("ok") else "VIOLATED"
        parts.append(
            f"conservation check [{verdict}]: "
            f"{cons['cells_checked']} cells, per-phase sum "
            f"{cons.get('phase_sum_ms', 0.0):.3f} ms + residual "
            f"{cons.get('residual_sum_ms', 0.0):.3f} ms vs total "
            f"{cons.get('total_ms', 0.0):.3f} ms "
            f"(error {cons.get('error_ms', 0.0):.2e} ms, "
            f"bound {cons.get('bound_ms', 0.0):.2e} ms)"
        )
    else:
        parts.append("conservation check: n/a "
                     "(no cells carry an attribution)")

    freq = report.get("binding_resources", {})
    if freq:
        parts.append("")
        parts.append(format_table(
            ["resource", "cells bound"], list(freq.items()),
            title="binding-resource frequency across the matrix",
        ))

    matrix = report.get("matrix")
    if matrix:
        parts.append("")
        parts.extend(_fleet_heatmaps(matrix))

    cells = report.get("cells", [])
    if cells:
        rows = [
            (c.get("index"), c.get("system"), c.get("workload"),
             c.get("mem_mb_per_node"), c.get("status"),
             c.get("throughput_rps"), c.get("p95_ms"),
             c.get("binding_resource") or "-",
             c.get("wall_s"))
            for c in cells
        ]
        parts.append(format_table(
            ["#", "system", "trace", "MB/node", "status", "req/s",
             "p95 ms", "binds", "wall s"],
            rows, title="per-cell summary", ndigits=2,
        ))

    failed = report.get("failed_cells", [])
    if failed:
        parts.append("")
        parts.append(f"failed cells ({len(failed)}):")
        for f in failed:
            parts.append(
                f"  #{f.get('index')} {f.get('system')}/{f.get('workload')}"
                f"/{f.get('mem_mb_per_node')}MB: {f.get('error')}"
            )
    return "\n".join(parts)
