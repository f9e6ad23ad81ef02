"""``python -m repro.lint`` — run the simlint suite.

Exit codes: 0 = clean, 1 = findings, 2 = usage/configuration error.

By default every per-file rule (SL00–SL05) runs.  The
suppression-staleness audit (SL08) only engages on *full* runs — no
``--select`` and no explicit paths, or paths naming at least the
configured default set (``src/repro/`` and ``./src/repro`` both name
``src/repro``) — because a partial run cannot prove a suppression dead.
"""

from __future__ import annotations

import argparse
import json
import sys
import textwrap
from pathlib import Path
from collections.abc import Sequence

from .config import load_config
from .docs import render_explain, rule_doc
from .engine import lint_paths
from .report import render_text, to_json_dict
from .rules import all_rules, rule_catalog


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.lint",
        description="simlint: determinism & cache-invariant static analysis",
    )
    parser.add_argument("paths", nargs="*",
                        help="files or directories to lint "
                             "(default: [tool.simlint] paths)")
    parser.add_argument("--format", choices=("text", "json"), default="text",
                        help="report format on stdout (default: text)")
    parser.add_argument("--json-out", metavar="FILE",
                        help="also write the JSON report to FILE")
    parser.add_argument("--select", metavar="RULES",
                        help="comma-separated rule ids to run (default: all; "
                             "disables the SL08 staleness audit)")
    parser.add_argument("--list-rules", action="store_true",
                        help="print the rule catalog and exit")
    parser.add_argument("--explain", metavar="RULE",
                        help="print one rule's rationale, examples, and "
                             "pragma contract, then exit")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)

    if args.explain:
        doc = rule_doc(args.explain)
        if doc is None:
            print(f"error: unknown rule id {args.explain!r}", file=sys.stderr)
            return 2
        print(render_explain(doc))
        return 0

    if args.list_rules:
        for rule_id, doc in rule_catalog():
            head, _, rest = doc.partition("\n")
            print(f"{rule_id}  {head}")
            if rest.strip():
                print(textwrap.indent(textwrap.fill(rest.strip(), 72), "      "))
            print()
        return 0

    config = load_config()
    rules = list(all_rules())
    if args.select:
        wanted = {r.strip().upper() for r in args.select.split(",") if r.strip()}
        known = {r.id for r in rules} | {"SL00", "SL08"}
        unknown = wanted - known
        if unknown:
            print(f"error: unknown rule id(s): {', '.join(sorted(unknown))}",
                  file=sys.stderr)
            return 2
        rules = [r for r in rules if r.id in wanted]

    paths: list[str] = list(args.paths) or list(config.paths)
    missing = [p for p in paths if not Path(p).exists()]
    if missing:
        print(f"error: no such path(s): {', '.join(missing)}", file=sys.stderr)
        return 2

    # SL08 needs every rule to have run over the full configured file
    # set; otherwise an unused pragma proves nothing.  Paths are compared
    # resolved, so any spelling of the configured set counts.
    full_run = args.select is None and (
        {Path(p).resolve() for p in paths}
        >= {Path(p).resolve() for p in config.paths})

    findings, files_checked = lint_paths(paths, config, rules,
                                         full_run=full_run)
    if files_checked == 0:
        print("error: no python files found under the given paths",
              file=sys.stderr)
        return 2

    doc_json = to_json_dict(findings, files_checked)
    if args.json_out:
        Path(args.json_out).write_text(json.dumps(doc_json, indent=2) + "\n",
                                       encoding="utf-8")
    if args.format == "json":
        print(json.dumps(doc_json, indent=2))
    else:
        print(render_text(findings, files_checked))
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())
