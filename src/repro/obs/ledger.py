"""Append-only, provenance-stamped run registry (the *run ledger*).

``sweep --ledger`` appends one JSONL *manifest record* for the sweep
(git sha, worker count, wall-clock and the BENCH record it wrote) and
one for each of its ``cell``s.  A cell's row is the only record of that
cell.  It is the envelope every record has (``ledger_version``,
``kind``, ``status``, ``git_sha``, ``recorded_at``, ``parent``,
``run_id``) plus the flat row the sweep worker built
(:mod:`repro.experiments.parallel`), appended unchanged: the keys of
:data:`CELL_KEYS`, every one present and null where the cell produced
no value.  ``python -m repro.obs.ledger list`` answers *what ran*, and
:mod:`repro.obs.fleet` reads the rows as written into cross-cell
reports.

Design rules:

* **Append-only JSONL** — one sorted-keys JSON object per line; records
  are never rewritten, a failed run appends a ``status: "failed"`` row.
* **Deterministic identity** — ``run_id`` is a digest of the record
  itself (minus the id), so with an injected clock and a pinned
  ``REPRO_GIT_SHA`` the ledger is byte-reproducible (the determinism
  tests pin this).
* **Passive** — nothing here touches simulation state.  Wall-clock
  readings live only in ledger rows (``simlint`` SL02 pragmas mark each
  sanctioned use).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from collections.abc import Callable, Sequence
from typing import Any, Optional

from ..bench.schema import git_sha, params_digest

__all__ = [
    "LEDGER_VERSION",
    "CELL_KEYS",
    "RECORD_KINDS",
    "Ledger",
    "run_id",
    "load_ledger",
    "main",
]

#: Version of the ledger row shape; bump on incompatible changes.
#: 1 — each cell's attribution in its own file, named by the cell row;
#:     the sweep row carries a ``progress`` summary.
#: 2 — each cell row carries its ``attribution`` inline; the sweep row
#:     carries ``elapsed_s``.
#: 3 — a cell row is flat: every key of :data:`CELL_KEYS`, null where
#:     the cell produced no value (``cell_index`` became ``index``, and
#:     the nested ``summary`` went).
LEDGER_VERSION = 3

#: The keys of a ``cell`` row beside the envelope, in the order the
#: sweep worker builds them: the cell's index, coordinates and their
#: params digest; its wall-clock and worker; its metrics (p95/p99,
#: binding resource and attribution from a profiled cell); a failed
#: cell's error.
CELL_KEYS = (
    "index", "system", "workload", "num_nodes", "mem_mb_per_node",
    "num_clients", "seed", "params_digest", "wall_s", "worker",
    "throughput_rps", "mean_response_ms", "hit_rate_total", "p95_ms",
    "p99_ms", "binding_resource", "attribution", "error",
)

#: Every record kind the harness appends.
RECORD_KINDS = ("sweep", "cell")

Clock = Callable[[], float]


def run_id(record: dict[str, Any]) -> str:
    """Deterministic 16-hex identity of a record (sans any ``run_id``)."""
    # simlint: ordered -- key filter only; params_digest() sorts keys,
    # so the digest is independent of this iteration order.
    return params_digest({k: v for k, v in record.items() if k != "run_id"})


class Ledger:
    """Appends manifest records to one JSONL ledger file.

    ``clock`` supplies ``recorded_at`` timestamps (seconds); the default
    is the wall clock, tests inject a fixed counter for byte-stable
    output.  The file is opened per append (append mode), so concurrent
    ledgers in one process and re-opened CLIs all see a consistent,
    line-complete file.
    """

    def __init__(self, path: str, clock: Optional[Clock] = None):
        self.path = path
        self._clock: Clock = clock if clock is not None else time.time  # simlint: disable=SL02 -- ledger timestamps are operator provenance, never sim state

    def append(
        self,
        kind: str,
        *,
        status: str = "ok",
        parent: Optional[str] = None,
        **fields: Any,
    ) -> dict[str, Any]:
        """Append one record; returns it with ``run_id`` stamped."""
        if kind not in RECORD_KINDS:
            raise ValueError(f"unknown ledger record kind {kind!r}; "
                             f"choose from {RECORD_KINDS}")
        record: dict[str, Any] = {
            "ledger_version": LEDGER_VERSION,
            "kind": kind,
            "status": status,
            "git_sha": git_sha(),
            "recorded_at": round(float(self._clock()), 6),
        }
        if parent is not None:
            record["parent"] = parent
        record.update(fields)
        record["run_id"] = run_id(record)
        with open(self.path, "a", encoding="utf-8") as fp:
            fp.write(json.dumps(record, sort_keys=True, default=float) + "\n")
        return record


def load_ledger(path: str) -> list[dict[str, Any]]:
    """Read every record of a ledger file, in append order."""
    records: list[dict[str, Any]] = []
    with open(path, encoding="utf-8") as fp:
        for line in fp:
            line = line.strip()
            if not line:
                continue
            doc = json.loads(line)
            if not isinstance(doc, dict):
                raise ValueError("ledger rows must be JSON objects")
            records.append(doc)
    return records


# ---------------------------------------------------------------------------
# CLI: list
# ---------------------------------------------------------------------------
def _format_row(rec: dict[str, Any]) -> str:
    mem = rec.get("mem_mb_per_node")
    coords = " ".join(
        str(part) for part in (
            rec.get("system"), rec.get("workload"),
            f"{mem:g}MB" if isinstance(mem, (int, float)) else None,
        ) if part is not None
    )
    wall = rec.get("wall_s")
    wall_txt = f"{wall:8.2f}s" if isinstance(wall, (int, float)) else " " * 9
    # str() first: a row is outside input, and only a str pads.
    return (f"{str(rec.get('run_id', '?')):<16} "
            f"{str(rec.get('kind', '?')):<6} "
            f"{str(rec.get('status', '?')):<7} {wall_txt}  {coords}")


def _cmd_list(args: argparse.Namespace) -> int:
    try:
        records = load_ledger(args.ledger)
    except (OSError, json.JSONDecodeError, ValueError) as exc:
        print(f"ledger: cannot read {args.ledger}: {exc}", file=sys.stderr)
        return 2
    if not records:
        print("(no records)")
        return 0
    print(f"{'run_id':<16} {'kind':<6} {'status':<7} {'wall':>8}   cell")
    for rec in records:
        print(_format_row(rec))
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.ledger",
        description="Inspect an append-only run ledger (JSONL manifests "
                    "appended by `sweep --ledger`).",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    list_p = sub.add_parser("list", help="list the ledger's records")
    list_p.add_argument("ledger", help="ledger JSONL file")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "list":
        return _cmd_list(args)
    raise AssertionError("unreachable")  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    try:
        sys.exit(main())
    except BrokenPipeError:
        # `ledger list | head` closes the pipe early; exit quietly
        # instead of dumping a traceback (recipe from the Python docs:
        # point stdout at devnull so the shutdown flush can't re-raise).
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(0)
