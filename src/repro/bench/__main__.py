"""CLI for the benchmark trajectory tools.

``compare`` is the CI regression gate::

    python -m repro.bench compare BENCH_fig2.json BENCH_a10_faults.json \\
        --baselines benchmarks/baselines --threshold 0.10

Each record is diffed against ``<baselines>/<filename>``; records with
no committed baseline are reported and skipped (the first run seeds
them).

Exit codes (distinct so CI can tell the failure modes apart):

* 0 — every record compared clean (or was skipped);
* 1 — regression gate tripped: a metric regressed past the threshold,
  a metric is missing or not finite on either side, or params digests
  disagree;
* 2 — usage error (bad flags, unreadable record).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .compare import compare_records, render_compare
from .schema import load_record

#: Exit codes, also documented in ``--help``.
EXIT_CLEAN = 0
EXIT_REGRESSION = 1
EXIT_USAGE = 2


def _threshold(text: str) -> float:
    """``--threshold``: a fraction strictly between 0 and 1."""
    value = float(text)
    if not 0.0 < value < 1.0:
        raise argparse.ArgumentTypeError(
            f"must be a fraction in (0, 1), got {text}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Benchmark trajectory records and regression gating.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    cmp_p = sub.add_parser(
        "compare", help="diff trajectory records against baselines",
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog=(
            "exit codes:\n"
            "  0  clean (all records within threshold; records without a\n"
            "     baseline are skipped)\n"
            "  1  regression (metric past threshold, metric missing or not\n"
            "     finite, or params digest mismatch)\n"
            "  2  usage error"
        ),
    )
    cmp_p.add_argument(
        "records", nargs="*", metavar="RECORD",
        help="BENCH_<name>.json trajectory record(s) to check "
             "(or use --all)",
    )
    cmp_p.add_argument(
        "--all", action="store_true", dest="all_records",
        help="gate every BENCH_*.json under --dir in one invocation "
             "(records without a committed baseline skip, as usual)",
    )
    cmp_p.add_argument(
        "--dir", default=".", metavar="DIR",
        help="directory searched by --all (default: current directory)",
    )
    cmp_p.add_argument(
        "--baselines", default="benchmarks/baselines", metavar="DIR",
        help="directory of committed baseline records "
             "(default: benchmarks/baselines)",
    )
    cmp_p.add_argument(
        "--threshold", type=_threshold, default=0.10, metavar="FRAC",
        help="regression gate as a fraction in (0, 1) "
             "(default: 0.10 = 10%%)",
    )
    return parser


def _cmd_compare(args: argparse.Namespace) -> int:
    if args.all_records and args.records:
        print("give RECORD arguments or --all, not both", file=sys.stderr)
        return EXIT_USAGE
    if args.all_records:
        args.records = sorted(
            str(p) for p in Path(args.dir).glob("BENCH_*.json")
        )
        if not args.records:
            print(f"compare --all: no BENCH_*.json records under "
                  f"{args.dir}", file=sys.stderr)
            return EXIT_USAGE
    elif not args.records:
        print("no records given (pass RECORD files or --all)",
              file=sys.stderr)
        return EXIT_USAGE
    regressed = False
    for rec_path in args.records:
        try:
            current = load_record(rec_path)
        except (OSError, json.JSONDecodeError, ValueError) as exc:
            print(f"compare: cannot read record {rec_path}: {exc}",
                  file=sys.stderr)
            return EXIT_USAGE
        base_path = Path(args.baselines) / Path(rec_path).name
        if not base_path.exists():
            print(f"== {Path(rec_path).name}: no baseline at {base_path} "
                  f"— skipped (commit one to arm the gate)")
            continue
        try:
            baseline = load_record(base_path)
        except (OSError, json.JSONDecodeError, ValueError) as exc:
            print(f"compare: cannot read baseline {base_path}: {exc}",
                  file=sys.stderr)
            return EXIT_USAGE
        result = compare_records(
            current, baseline, threshold=args.threshold
        )
        print(render_compare(result))
        if not result.ok:
            regressed = True
    return EXIT_REGRESSION if regressed else EXIT_CLEAN


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "compare":
        return _cmd_compare(args)
    raise AssertionError("unreachable")  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
