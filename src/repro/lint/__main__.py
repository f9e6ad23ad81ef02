"""``python -m repro.lint`` — run the simlint suite.

Exit codes: 0 = clean, 1 = findings, 2 = usage error.

Every per-file rule (SL00–SL05) runs.  The suppression-staleness audit
(SL08) only engages on *full* runs — no explicit paths, or paths naming
at least the default set (``src/repro/`` and ``./src/repro`` both name
``src/repro``) — because a partial run cannot prove a suppression dead.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from collections.abc import Sequence

from .config import DEFAULT_PATHS
from .engine import lint_paths
from .report import render_text, to_json_dict
from .rules import all_rules


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.lint",
        description="simlint: determinism & cache-invariant static analysis",
    )
    parser.add_argument("paths", nargs="*",
                        help="files or directories to lint "
                             f"(default: {' '.join(DEFAULT_PATHS)})")
    parser.add_argument("--json-out", metavar="FILE",
                        help="also write the JSON report to FILE")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)

    paths: list[str] = list(args.paths) or list(DEFAULT_PATHS)
    missing = [p for p in paths if not Path(p).exists()]
    if missing:
        print(f"error: no such path(s): {', '.join(missing)}", file=sys.stderr)
        return 2

    # SL08 needs every rule to have run over the full default file set;
    # otherwise an unused pragma proves nothing.  Paths are compared
    # resolved, so any spelling of the default set counts.
    full_run = ({Path(p).resolve() for p in paths}
                >= {Path(p).resolve() for p in DEFAULT_PATHS})

    findings, files_checked = lint_paths(paths, all_rules(), full_run=full_run)
    if files_checked == 0:
        print("error: no python files found under the given paths",
              file=sys.stderr)
        return 2

    if args.json_out:
        Path(args.json_out).write_text(
            json.dumps(to_json_dict(findings, files_checked), indent=2) + "\n",
            encoding="utf-8")
    print(render_text(findings, files_checked))
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())
