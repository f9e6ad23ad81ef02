"""Command-line entry point for the reproduction harness.

Usage::

    python -m repro.experiments.cli list
    python -m repro.experiments.cli table1 table2
    python -m repro.experiments.cli fig3 fig4
    python -m repro.experiments.cli a4 a6
    python -m repro.experiments.cli all          # everything (minutes)

    # One observable experiment: trace + metrics + sampled invariants.
    python -m repro.experiments.cli run --system cc-kmc --workload rutgers \\
        --trace trace.jsonl --metrics-out metrics.json --invariant-every 1000

    # Same, with critical-path profiling and an inline bottleneck report.
    python -m repro.experiments.cli run --profile --trace trace.jsonl

    # Chaos run: fault-free baseline, then the same workload under a
    # seeded fault plan (crashes/link drops/disk stalls), side by side.
    python -m repro.experiments.cli chaos --system cc-kmc \\
        --crashes-per-node 2 --plan-out plan.json --trace chaos.jsonl

    # Offline analysis of a dumped run: attribution report, Perfetto
    # export, windowed time series as JSON, and the slowest requests;
    # --json emits the attribution summary machine-readably.
    python -m repro.experiments.cli analyze trace.jsonl metrics.json \\
        --report --perfetto perfetto.json --timeseries-out ts.json --top 10
    python -m repro.experiments.cli analyze trace.jsonl metrics.json --json -

    # Differential attribution: explain what changed between two runs
    # (inputs are `analyze --json` summaries or raw trace JSONL).
    python -m repro.experiments.cli analyze diff base.json current.json

    # Cache-behavior telemetry (CacheScope): duplicate share, eviction
    # provenance and forwarding hops, summarized and dumped as JSONL.
    python -m repro.experiments.cli run --system cc-basic \\
        --cachestats cachescope.jsonl

    # Sharded figure sweep: run the fig2 (trace x system x memory) cell
    # matrix across 4 worker processes and emit the trajectory record —
    # byte-identical to a serial (--workers 1) run, and at the default
    # knobs to the committed benchmarks/results/fig2.json.
    python -m repro.experiments.cli sweep --workers 4 \\
        --bench-out BENCH_fig2.json
    cmp BENCH_fig2.json benchmarks/results/fig2.json

    # Fleet observability: the same sweep with a run ledger (one row per
    # cell, carrying its attribution) and one progress log line per
    # finished cell (-v), then the cross-cell rollup (conservation
    # check, binding-resource frequency, throughput heatmaps,
    # stragglers) over the latest sweep.
    python -m repro.experiments.cli sweep -v --workers 4 \\
        --ledger ledger.jsonl --bench-out BENCH_fig2.json
    python -m repro.obs.ledger list ledger.jsonl
    python -m repro.experiments.cli analyze fleet ledger.jsonl

Pass ``-v`` / ``--verbose`` (repeatable) anywhere for INFO/DEBUG
logging.  Workload scale is controlled by the usual environment knobs
(``REPRO_SCALE`` / ``REPRO_REQUESTS`` / ``REPRO_CLIENTS`` /
``REPRO_FULL``).
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import sys
from collections.abc import Callable
from functools import partial

from . import ablations, defaults, figures, tables
from .report import banner

__all__ = [
    "ARTIFACTS", "main", "run_command", "analyze_command",
    "analyze_diff_command", "analyze_fleet_command", "chaos_command",
    "sweep_command",
]


def _render_ablation(name: str) -> str:
    return ablations.render_ablation(ablations.run_ablation(name))


#: artifact name -> renderer.  The :data:`~repro.experiments.figures.FIGURES`
#: renderers take their figure's data from one ``run_figures`` call in
#: :func:`main`; the rest take no argument.
ARTIFACTS: dict[str, Callable[..., str]] = {
    "table1": tables.render_table1,
    "table2": tables.render_table2,
    "fig1": lambda: figures.render_fig1(figures.fig1()),
    "fig2": figures.render_fig2,
    "fig3": figures.render_fig3,
    "fig4": figures.render_fig4,
    "fig5": figures.render_fig5,
    "fig6a": figures.render_fig6a,
    "fig6b": figures.render_fig6b,
    "fig_ring": lambda: figures.render_fig_ring(figures.fig_ring()),
    **{name: partial(_render_ablation, name) for name in ablations.ABLATIONS},
    "a10": lambda: ablations.render_a10(ablations.a10_faults()),
}


#: The figure ``sweep`` runs: its BENCH record name and ledger tag.
_SWEEP_FIGURE = "fig2"


def _positive(convert):
    def parse(text: str):
        value = convert(text)
        if not 0 < value < math.inf:
            raise argparse.ArgumentTypeError(
                f"must be positive and finite, got {text}")
        return value

    parse.__name__ = convert.__name__  # argparse: "invalid int value"
    return parse


def _non_negative(convert):
    def parse(text: str):
        value = convert(text)
        if not 0 <= value < math.inf:
            raise argparse.ArgumentTypeError(
                f"must be >= 0 and finite, got {text}")
        return value

    parse.__name__ = convert.__name__  # argparse: "invalid int value"
    return parse


def _add_cell_flags(p: argparse.ArgumentParser) -> None:
    """The six flags ``run`` and ``chaos`` share: one cell's coordinates."""
    from ..traces.datasets import TRACE_NAMES
    from .runner import SYSTEMS

    p.add_argument("--system", default="cc-kmc",
                   choices=list(SYSTEMS), help="server variant")
    p.add_argument("--workload", default="rutgers", choices=list(TRACE_NAMES),
                   help="trace name (scaled per REPRO_SCALE)")
    p.add_argument("--mem-mb", type=_positive(float), default=None,
                   help="per-node memory MB (default: 32 x scale)")
    p.add_argument("--nodes", type=_positive(int), default=8,
                   help="cluster size")
    p.add_argument("--clients", type=_positive(int), default=None,
                   help="closed-loop clients (default: REPRO_CLIENTS)")
    p.add_argument("--seed", type=int, default=0, help="root RNG seed")


def _cell_config(opts):
    """The experiment the :func:`_add_cell_flags` flags name."""
    from .runner import ExperimentConfig

    return ExperimentConfig(
        system=opts.system,
        trace=defaults.workload(opts.workload),
        num_nodes=opts.nodes,
        mem_mb_per_node=(
            opts.mem_mb if opts.mem_mb is not None else 32.0 * defaults.SCALE
        ),
        num_clients=opts.clients or defaults.NUM_CLIENTS,
        seed=opts.seed,
    )


def _run_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="repro-experiments run",
        description="Run one observable experiment point.",
    )
    _add_cell_flags(p)
    p.add_argument("--trace", metavar="FILE", default=None,
                   help="write per-request span trace as JSONL to FILE")
    p.add_argument("--metrics-out", metavar="FILE", default=None,
                   help="write the metrics-registry snapshot (JSON) to FILE")
    p.add_argument("--invariant-every", type=_non_negative(int), default=0,
                   metavar="N",
                   help="sample check_invariants every N kernel events "
                        "(middleware systems; 0 = off)")
    p.add_argument("--profile", action="store_true",
                   help="wrap every blocking wait in a phase span and "
                        "print the critical-path bottleneck report")
    p.add_argument("--cachestats", metavar="FILE", default=None,
                   help="record cache-behavior telemetry (duplicate share, "
                        "eviction provenance, forwarding hops) and dump it "
                        "as JSONL to FILE")
    return p


def run_command(argv) -> int:
    """``run`` subcommand: one experiment with observability attached."""
    from ..obs import Observability
    from .runner import run_experiment, system_label

    opts = _run_parser().parse_args(argv)
    cfg = _cell_config(opts)
    obs = Observability(
        trace=opts.trace is not None,
        invariant_every=opts.invariant_every,
        profile=opts.profile,
        cachestats=opts.cachestats is not None,
    )
    result = run_experiment(cfg, obs=obs)

    print(banner(f"run {system_label(cfg.system)} / {opts.workload}"))
    print(f"throughput        {result.throughput_rps:.1f} req/s")
    print(f"mean response     {result.mean_response_ms:.2f} ms")
    for cls in sorted(result.workload.response_by_class_ms):
        print(f"  {cls:<10} {result.workload.response_by_class_ms[cls]:8.2f} ms"
              f"  x{result.workload.requests_by_class[cls]}")
    hr = result.hit_rates
    print(f"hit rates         local={hr['local']:.3f} remote={hr['remote']:.3f} "
          f"disk={hr['disk']:.3f}")
    if obs.sampler is not None:
        print(f"invariant checks  {obs.sampler.checks_run} "
              f"(every {obs.sampler.every} of {obs.sampler.events_seen} events)")
    elif opts.invariant_every:
        print("invariant checks  n/a (no middleware layer in this system)")
    _dump_trace_and_metrics(obs, opts)
    if opts.cachestats:
        scope = obs.cachescope
        scope.dump_jsonl(opts.cachestats)
        snap_totals = scope.snapshot()["totals"]
        print(f"cachestats        -> {opts.cachestats}")
        print(f"  duplicate share {snap_totals['duplicate_share']:.4f} "
              f"({snap_totals['duplicate_kb']:.0f} of "
              f"{snap_totals['resident_kb']:.0f} KB resident)")
        print(f"  evictions       master={snap_totals['master_evictions']} "
              f"nonmaster={snap_totals['nonmaster_evictions']} "
              f"violations={snap_totals['violations']}")
        print(f"  forwards        {snap_totals['forwards']} "
              f"stale lookups {snap_totals['stale_lookups']}")
    if opts.profile:
        _print_profile(obs, "critical-path profile")
    return 0


def _dump_trace_and_metrics(obs, opts) -> None:
    """``run``/``chaos``: write ``--trace`` and ``--metrics-out``."""
    if opts.trace:
        sha = obs.tracer.dump_jsonl(opts.trace)
        print(f"trace             {obs.tracer.finished_count()} spans -> "
              f"{opts.trace} (sha256 {sha[:16]}...)")
    if opts.metrics_out:
        obs.registry.dump(opts.metrics_out)
        print(f"metrics           -> {opts.metrics_out}")


def _print_profile(obs, title: str) -> None:
    """``run``/``chaos --profile``: the critical-path bottleneck report."""
    from ..obs.analyze import attribute
    from ..obs.reports import render_profile_report

    print()
    print(banner(title))
    print(render_profile_report(
        attribute(obs.tracer.records),
        metrics=obs.registry.snapshot(),
    ))


def _sweep_parser() -> argparse.ArgumentParser:
    from ..traces.datasets import TRACE_NAMES

    p = argparse.ArgumentParser(
        prog="repro-experiments sweep",
        description="Run the fig2 (trace x system x memory) cell matrix, "
                    "optionally sharded across worker processes, and emit "
                    "a BENCH trajectory record.  Output is byte-identical "
                    "at any worker count.",
    )
    p.add_argument("--workload", action="append", dest="workloads",
                   choices=list(TRACE_NAMES), default=None,
                   help="restrict to this trace (repeatable; default: all)")
    p.add_argument("--nodes", type=_positive(int), default=8,
                   help="cluster size")
    p.add_argument("--workers", type=_positive(int), default=None,
                   help="worker processes to shard cells across "
                        "(default: REPRO_WORKERS or 1 = serial)")
    p.add_argument("--memory-axis", default="bench",
                   choices=["bench", "paper"],
                   help="memory points: the 4-point benchmark axis (the "
                        "fig2 bench's) or the paper's full 8-point axis")
    p.add_argument("--bench-out", metavar="FILE", default=None,
                   help="write the trajectory record (JSON, repro.bench "
                        "schema; params.memory_mb names the axis) to FILE; "
                        "with every flag and knob at its default it is "
                        "benchmarks/results/fig2.json byte for byte")
    p.add_argument("--ledger", metavar="FILE", default=None,
                   help="profile every cell and append a provenance-stamped "
                        "manifest record per sweep and per cell (git sha, "
                        "seed, knobs, wall-clock, exit status, metric "
                        "summary, attribution) to this run-ledger JSONL; "
                        "inspect with `python -m repro.obs.ledger list` "
                        "and `analyze fleet`")
    return p


def _ledger_sweep_records(ledger, opts, outcomes, elapsed,
                          workers, n_cells) -> None:
    """Append the sweep manifest + each outcome's cell row, unchanged."""
    failed = any(not o.ok for o in outcomes)
    sweep_rec = ledger.append(
        "sweep",
        status="failed" if failed else "ok",
        figure=_SWEEP_FIGURE,
        cells=n_cells,
        workers=workers,
        elapsed_s=round(elapsed, 6),
        # A failed sweep writes no BENCH record (see sweep_command).
        artifacts=({"bench": opts.bench_out}
                   if opts.bench_out and not failed else {}),
    )
    for out in outcomes:
        ledger.append("cell", status="ok" if out.ok else "failed",
                      parent=sweep_rec["run_id"], **out.row)
    print(f"ledger            -> {ledger.path} "
          f"(sweep run id {sweep_rec['run_id']}, {len(outcomes)} cell "
          f"records)")


def sweep_command(argv) -> int:
    """``sweep`` subcommand: sharded figure sweep + BENCH record.

    Every cell runs through the *observed* runner; with ``--ledger`` it
    is also profiled and appended as one ledger row carrying its
    attribution.  Telemetry is passive: the BENCH record is
    byte-identical either way.  ``-v`` logs one line per finished cell.
    A failing cell is named (system/trace/params digest), recorded in
    the ledger, and the exit code is 1.
    """
    import time

    from ..bench.schema import dump_record, wrap_result
    from ..obs.ledger import Ledger
    from ..traces.datasets import TRACE_NAMES
    from .parallel import default_workers, failure_line, run_cells_observed

    opts = _sweep_parser().parse_args(argv)
    workers = opts.workers if opts.workers is not None else default_workers()
    axis = (defaults.BENCH_MEMORY_MB if opts.memory_axis == "bench"
            else defaults.PAPER_MEMORY_MB)
    memories = defaults.memory_points_mb(axis)
    trace_names = list(dict.fromkeys(opts.workloads or TRACE_NAMES))
    spec = figures.FIGURES[_SWEEP_FIGURE](
        memories, [(name, opts.nodes) for name in trace_names]
    )
    cells = figures.cell_configs(spec.cells)
    n_systems = len(figures.ALL_SYSTEMS)
    n_cells = len(cells)
    print(banner(f"sweep {_SWEEP_FIGURE}"))
    print(f"cells             {n_cells} "
          f"({len(trace_names)} traces x {n_systems} systems x "
          f"{len(memories)} memory points)")
    print(f"workers           {workers}")
    ledger = Ledger(opts.ledger) if opts.ledger is not None else None
    failures = []
    # Wall-clock is operator-facing progress reporting only; it never
    # feeds simulation state (results are a pure function of the cells).
    t0 = time.perf_counter()  # simlint: disable=SL02 -- elapsed-time report, not sim state
    results, outcomes = run_cells_observed(
        cells, workers, profile=ledger is not None, failures=failures,
    )
    elapsed = time.perf_counter() - t0  # simlint: disable=SL02 -- elapsed-time report, not sim state
    print(f"elapsed           {elapsed:.1f} s wall "
          f"({n_cells / elapsed:.2f} cells/s)")
    if ledger is not None:
        _ledger_sweep_records(ledger, opts, outcomes, elapsed,
                              workers, n_cells)
    if failures:
        print(f"sweep: {len(failures)} cell(s) failed:", file=sys.stderr)
        for out in failures:
            print("  " + failure_line(out.row), file=sys.stderr)
        print("sweep: skipping BENCH record (incomplete matrix)",
              file=sys.stderr)
        return 1
    if opts.bench_out:
        record = wrap_result(
            _SWEEP_FIGURE, spec.view(dict(zip(spec.cells, results))), seed=0,
            params=dict(defaults.bench_params(), memory_mb=list(axis)),
        )
        dump_record(record, opts.bench_out)
        print(f"trajectory record -> {opts.bench_out} "
              f"(params digest {record['params_digest']})")
    return 0


def _chaos_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="repro-experiments chaos",
        description="Run a workload under a deterministic fault plan and "
                    "compare it with the fault-free baseline.",
    )
    _add_cell_flags(p)
    p.add_argument("--plan-seed", type=int, default=1,
                   help="fault-plan RNG seed (independent of --seed)")
    p.add_argument("--crashes-per-node", type=_non_negative(float), default=1.0,
                   help="expected crashes per node over the run")
    p.add_argument("--link-drops", type=_non_negative(int), default=0,
                   help="number of transient link failures")
    p.add_argument("--disk-stalls", type=_non_negative(int), default=0,
                   help="number of disk stalls")
    p.add_argument("--plan", metavar="FILE", default=None,
                   help="replay this fault plan JSON instead of generating "
                        "one (skips the baseline sizing run)")
    p.add_argument("--plan-out", metavar="FILE", default=None,
                   help="archive the fault plan as JSON to FILE")
    p.add_argument("--trace", metavar="FILE", default=None,
                   help="write the chaotic run's span trace JSONL to FILE")
    p.add_argument("--metrics-out", metavar="FILE", default=None,
                   help="write the metrics-registry snapshot (JSON) to FILE")
    p.add_argument("--profile", action="store_true",
                   help="phase spans + critical-path report (fault waits "
                        "show up as fault.detect / retry.backoff)")
    return p


def chaos_command(argv) -> int:
    """``chaos`` subcommand: baseline vs faulted run of one workload."""
    from dataclasses import replace

    from ..obs import Observability
    from ..sim.faults import FaultPlan
    from .runner import run_experiment, system_label

    opts = _chaos_parser().parse_args(argv)
    base_cfg = _cell_config(opts)
    baseline = None
    if opts.plan:
        try:
            plan = FaultPlan.load(opts.plan)
            plan.check_nodes(opts.nodes)
        except (OSError, json.JSONDecodeError, KeyError, TypeError,
                ValueError) as exc:
            print(f"chaos: cannot load plan: {exc}", file=sys.stderr)
            return 2
    else:
        # Fault-free baseline sizes the plan horizon to this workload —
        # and is the comparison row printed below.
        baseline = run_experiment(base_cfg)
        plan = FaultPlan.random(
            opts.plan_seed,
            baseline.workload.total_ms,
            opts.nodes,
            crashes_per_node=opts.crashes_per_node,
            link_drops=opts.link_drops,
            disk_stalls=opts.disk_stalls,
        )
    if opts.plan_out:
        plan.dump(opts.plan_out)
    obs = Observability(trace=opts.trace is not None, profile=opts.profile)
    result = run_experiment(replace(base_cfg, faults=plan), obs=obs)

    print(banner(f"chaos {system_label(base_cfg.system)} / {opts.workload}"))
    print(f"fault plan        {len(plan)} events over "
          f"{plan.horizon_ms:.0f} ms"
          + (f" (replaying {opts.plan})" if opts.plan else "")
          + (f" -> {opts.plan_out}" if opts.plan_out else ""))
    w = result.workload
    if baseline is not None:
        b = baseline.workload
        ratio = (w.throughput_rps / b.throughput_rps
                 if b.throughput_rps else 0.0)
        print(f"throughput        {w.throughput_rps:.1f} req/s "
              f"(fault-free {b.throughput_rps:.1f}, x{ratio:.2f})")
        print(f"mean response     {w.mean_response_ms:.2f} ms "
              f"(fault-free {b.mean_response_ms:.2f})")
    else:
        print(f"throughput        {w.throughput_rps:.1f} req/s")
        print(f"mean response     {w.mean_response_ms:.2f} ms")
    print(f"failed requests   {w.failed_requests} of "
          f"{w.measured_requests + w.failed_requests} measured")
    for cls in sorted(w.response_by_class_ms):
        print(f"  {cls:<10} {w.response_by_class_ms[cls]:8.2f} ms"
              f"  x{w.requests_by_class[cls]}")
    if result.fault_counters:
        print("fault counters    "
              + " ".join(f"{k}={v}"
                         for k, v in sorted(result.fault_counters.items())))
    _dump_trace_and_metrics(obs, opts)
    if opts.profile:
        _print_profile(obs, "critical-path profile (chaotic run)")
    return 0


def _write_json(doc, dest: str, label: str) -> None:
    """``--json FILE``: the report as sorted JSON to FILE (``-``: stdout)."""
    text = json.dumps(doc, indent=2, sort_keys=True, default=float)
    if dest == "-":
        print(text)
    else:
        with open(dest, "w", encoding="utf-8") as fp:
            fp.write(text + "\n")
        print(f"{label:<18}-> {dest}")


def _analyze_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="repro-experiments analyze",
        description="Offline analysis of a dumped run "
                    "(trace JSONL from `run --profile --trace`).",
    )
    p.add_argument("trace", metavar="TRACE",
                   help="span trace JSONL (from run --trace)")
    p.add_argument("metrics", metavar="METRICS", nargs="?", default=None,
                   help="metrics snapshot JSON (from run --metrics-out); "
                        "enables utilization-based bottleneck analysis")
    p.add_argument("--report", action="store_true",
                   help="print the critical-path attribution / bottleneck "
                        "report (default when no other output is requested)")
    p.add_argument("--json", metavar="FILE", default=None, dest="json_out",
                   help="write the attribution/bottleneck summary as JSON "
                        "to FILE ('-' for stdout) for CI consumption")
    p.add_argument("--perfetto", metavar="FILE", default=None,
                   help="write a Chrome trace-event JSON (Perfetto / "
                        "chrome://tracing) to FILE")
    p.add_argument("--timeseries-out", metavar="FILE", default=None,
                   help="write the windowed time series as JSON to FILE")
    p.add_argument("--window-ms", type=_positive(float), default=None,
                   help="time-series window width (default: run length / 60)")
    p.add_argument("--top", type=_non_negative(int), default=0, metavar="K",
                   help="print the K slowest requests with span trees")
    p.add_argument("--all-requests", action="store_true",
                   help="include warm-up requests, not just measured ones")
    return p


def _diff_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="repro-experiments analyze diff",
        description="Differential attribution between two runs: a "
                    "phase-by-phase delta report naming the regressed "
                    "(or improved) phase, with a conservation check "
                    "(phase deltas sum to the mean-response delta).  "
                    "Inputs are `analyze --json` summaries or raw trace "
                    "JSONL dumps (sniffed automatically).",
    )
    p.add_argument("base", metavar="BASE",
                   help="baseline attribution JSON or trace JSONL")
    p.add_argument("current", metavar="CURRENT",
                   help="current attribution JSON or trace JSONL")
    p.add_argument("--json", metavar="FILE", default=None, dest="json_out",
                   help="write the diff report as JSON to FILE "
                        "('-' for stdout)")
    return p


def analyze_diff_command(argv) -> int:
    """``analyze diff`` subcommand: explain what changed between runs."""
    from ..obs.diff import diff_attributions, load_attribution
    from ..obs.reports import render_diff_report

    opts = _diff_parser().parse_args(argv)
    try:
        base = load_attribution(opts.base)
        current = load_attribution(opts.current)
    except (OSError, json.JSONDecodeError, ValueError) as exc:
        print(f"analyze diff: cannot read input: {exc}", file=sys.stderr)
        return 2
    report = diff_attributions(base, current)
    if opts.json_out:
        _write_json(report, opts.json_out, "diff json")
    if opts.json_out != "-":
        print(banner(f"diff: {opts.base} -> {opts.current}"))
        print(render_diff_report(report))
    return 0


def _fleet_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="repro-experiments analyze fleet",
        description="Cross-cell fleet rollup over the latest sweep in a "
                    "run ledger: per-cell attribution with the exact "
                    "conservation check, binding-resource frequency, and "
                    "(memory x system x trace) throughput heatmaps.",
    )
    p.add_argument("ledger", metavar="LEDGER",
                   help="run-ledger JSONL (from `sweep --ledger`)")
    p.add_argument("--json", metavar="FILE", default=None, dest="json_out",
                   help="write the fleet report (schema kind 'fleet') as "
                        "JSON to FILE ('-' for stdout)")
    return p


def analyze_fleet_command(argv) -> int:
    """``analyze fleet`` subcommand: cross-cell rollup over a ledger."""
    from ..obs.fleet import fleet_report
    from ..obs.ledger import load_ledger
    from ..obs.reports import render_fleet_report

    opts = _fleet_parser().parse_args(argv)
    try:
        report = fleet_report(load_ledger(opts.ledger))
    except (OSError, json.JSONDecodeError, ValueError) as exc:
        print(f"analyze fleet: {exc}", file=sys.stderr)
        return 2
    if opts.json_out:
        _write_json(report, opts.json_out, "fleet json")
    if opts.json_out != "-":
        print(banner(f"fleet: {opts.ledger}"))
        print(render_fleet_report(report))
    return 0


def analyze_command(argv) -> int:
    """``analyze`` subcommand: reports over dumped trace/metrics files."""
    from ..obs.analyze import attribute, load_jsonl

    if argv and argv[0] == "diff":
        return analyze_diff_command(argv[1:])
    if argv and argv[0] == "fleet":
        return analyze_fleet_command(argv[1:])
    opts = _analyze_parser().parse_args(argv)
    try:
        records = load_jsonl(opts.trace)
        metrics = None
        if opts.metrics:
            with open(opts.metrics, "r", encoding="utf-8") as fp:
                metrics = json.load(fp)
    except (OSError, ValueError) as exc:
        print(f"analyze: cannot read input: {exc}", file=sys.stderr)
        return 2

    measured_only = not opts.all_requests
    want_report = opts.report or not (
        opts.perfetto or opts.timeseries_out or opts.top or opts.json_out
    )

    if opts.json_out or want_report:
        attr = attribute(records, measured_only=measured_only)
    if opts.json_out:
        from ..obs.analyze import attribution_to_dict

        _write_json(attribution_to_dict(attr, metrics=metrics),
                    opts.json_out, "attribution json")
    if want_report:
        from ..obs.reports import render_profile_report

        print(banner(f"profile: {opts.trace}"))
        print(render_profile_report(attr, metrics=metrics))
    if opts.top:
        from ..obs.reports import render_top_requests

        print(banner(f"top {opts.top} slowest"))
        print(render_top_requests(
            records, k=opts.top, measured_only=measured_only
        ))
    if opts.timeseries_out:
        from ..obs.timeseries import build_timeseries, dump_timeseries

        dump_timeseries(build_timeseries(records, window_ms=opts.window_ms),
                        opts.timeseries_out)
        print(f"time series       -> {opts.timeseries_out}")
    if opts.perfetto:
        from ..obs.export import dump_chrome_trace

        dump_chrome_trace(records, opts.perfetto)
        print(f"chrome trace      -> {opts.perfetto} "
              f"(open in ui.perfetto.dev or chrome://tracing)")
    return 0


def _configure_logging(args) -> list:
    """Strip ``-v``/``--verbose`` flags and configure the root logger."""
    level = 0
    kept = []
    for arg in args:
        if arg == "--verbose":
            level += 1
        elif arg.startswith("-") and len(arg) > 1 and set(arg[1:]) == {"v"}:
            level += len(arg) - 1
        else:
            kept.append(arg)
    logging.basicConfig(
        level=(logging.WARNING, logging.INFO)[min(level, 1)]
        if level < 2 else logging.DEBUG,
        format="%(levelname)s %(name)s: %(message)s",
    )
    return kept


def main(argv=None) -> int:
    """Render the requested artifacts to stdout; returns an exit code
    (2 for a usage error, a bad ``REPRO_*`` knob included)."""
    args = _configure_logging(list(sys.argv[1:] if argv is None else argv))
    try:
        return _dispatch(args)
    except defaults.KnobError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _dispatch(args: list) -> int:
    if args and args[0] == "run":
        return run_command(args[1:])
    if args and args[0] == "chaos":
        return chaos_command(args[1:])
    if args and args[0] == "analyze":
        return analyze_command(args[1:])
    if args and args[0] == "sweep":
        return sweep_command(args[1:])
    if not args or args == ["list"]:
        print(__doc__)
        print("artifacts:", " ".join(ARTIFACTS))
        print(f"scale={defaults.SCALE:g} requests={defaults.NUM_REQUESTS} "
              f"clients={defaults.NUM_CLIENTS}")
        return 0
    if args == ["all"]:
        args = list(ARTIFACTS)
    unknown = [a for a in args if a not in ARTIFACTS]
    if unknown:
        print(f"unknown artifact(s): {' '.join(unknown)}", file=sys.stderr)
        print(f"choose from: {' '.join(ARTIFACTS)}", file=sys.stderr)
        return 2
    figs = [name for name in args if name in figures.FIGURES]
    data = figures.run_figures(figs) if figs else {}
    for name in args:
        print(banner(name))
        print(ARTIFACTS[name](data[name]) if name in data else ARTIFACTS[name]())
        print()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
