"""CLI for the benchmark trajectory tools.

``compare`` is the CI regression gate::

    python -m repro.bench compare benchmarks/results/fig2.json \\
        benchmarks/results/a10_faults.json --baselines benchmarks/baselines

Each record is compared with ``<baselines>/<name>.json``, ``name`` being
the record's own ``name`` field, so a ``sweep --bench-out`` file gates
like the bench's record.  The rule is
:func:`~repro.bench.compare.compare_records`: a record must equal its
baseline (floats within 1e-9).  Every input is read before any is
compared, so a usage error never comes with a half-printed gate.

Exit codes (distinct so CI can tell the failure modes apart):

* 0 — every record equals its baseline;
* 1 — gate failure: a value, key, list length, params digest or schema
  version differs from the baseline, or a number is not finite;
* 2 — usage error (bad flags, an unreadable record or baseline, or a
  record with no baseline).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Any

from .compare import compare_records
from .schema import load_record

#: Exit codes, also documented in ``--help``.
EXIT_CLEAN = 0
EXIT_MISMATCH = 1
EXIT_USAGE = 2


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Benchmark trajectory records and their regression "
                    "gate.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    cmp_p = sub.add_parser(
        "compare", help="check trajectory records against their baselines",
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog=(
            "exit codes:\n"
            "  0  clean: every record equals its baseline\n"
            "  1  mismatch: a value, key, list length, params digest or\n"
            "     schema version differs, or a number is not finite\n"
            "  2  usage error (an unreadable record or baseline, or a\n"
            "     record with no baseline, included)"
        ),
    )
    cmp_p.add_argument(
        "records", nargs="+", metavar="RECORD",
        help="trajectory record(s) to check, e.g. "
             "benchmarks/results/fig2.json",
    )
    cmp_p.add_argument(
        "--baselines", default="benchmarks/baselines", metavar="DIR",
        help="directory of committed baselines, one <name>.json per "
             "record name (default: benchmarks/baselines)",
    )
    return parser


def _read(path: Path | str) -> dict[str, Any]:
    """Load a record; ``ValueError`` if it has no string ``name``."""
    record = load_record(path)
    if not isinstance(record, dict) or not isinstance(record.get("name"),
                                                      str):
        raise ValueError("not a trajectory record (no name)")
    return record


def _cmd_compare(args: argparse.Namespace) -> int:
    pairs = []
    for rec_path in args.records:
        try:
            current = _read(rec_path)
        except (OSError, ValueError) as exc:
            print(f"compare: cannot read record {rec_path}: {exc}",
                  file=sys.stderr)
            return EXIT_USAGE
        base_path = Path(args.baselines) / f"{current['name']}.json"
        if not base_path.exists():
            print(f"compare: {rec_path} is record {current['name']!r}, "
                  f"which has no baseline at {base_path}", file=sys.stderr)
            return EXIT_USAGE
        try:
            baseline = _read(base_path)
        except (OSError, ValueError) as exc:
            print(f"compare: cannot read baseline {base_path}: {exc}",
                  file=sys.stderr)
            return EXIT_USAGE
        pairs.append((rec_path, current, base_path, baseline))
    failed = False
    for rec_path, current, base_path, baseline in pairs:
        found = compare_records(current, baseline)
        if found:
            failed = True
            print(f"FAIL {rec_path}: {len(found)} mismatch(es) against "
                  f"{base_path}")
            print("\n".join(f"  {line}" for line in found))
        else:
            print(f"ok   {rec_path} equals {base_path}")
    return EXIT_MISMATCH if failed else EXIT_CLEAN


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "compare":
        return _cmd_compare(args)
    raise AssertionError("unreachable")  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
