"""Append-only, provenance-stamped run registry (the *run ledger*).

Every experiment the harness executes — a single observable ``run``, a
``chaos`` run, a sharded ``sweep`` and each of its ``cell``s, a bench
invocation — can append one JSONL *manifest record* describing what ran:
git sha, seed, workload knobs and their digest, the active
directory environment, wall-clock, exit status, and the paths
of every artifact the run produced (trace, metrics, BENCH record,
attribution summary).  The ledger is the registry a 100-cell sweep was
missing: ``python -m repro.obs.ledger list`` answers *what ran*, ``show``
joins a record back to its artifacts, and :mod:`repro.obs.fleet`
aggregates a sweep's slice of the ledger into cross-cell reports.

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
import hashlib
import json
import os
import sys
import time
from collections.abc import Callable, Iterable, Sequence
from typing import Any, Optional

__all__ = [
    "LEDGER_VERSION",
    "RECORD_KINDS",
    "Ledger",
    "run_id",
    "load_ledger",
    "filter_records",
    "latest_sweep",
    "environment_stamp",
    "main",
]

#: Version of the ledger row shape; bump on incompatible changes.
LEDGER_VERSION = 1

#: Every record kind the harness appends.
RECORD_KINDS = ("run", "chaos", "sweep", "cell", "bench")

Clock = Callable[[], float]


def _canonical(obj: Any) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"),
                      default=float)


def run_id(record: dict[str, Any]) -> str:
    """Deterministic 16-hex identity of a record (sans any ``run_id``)."""
    # simlint: ordered -- key filter only; _canonical() sorts keys, so
    # the digest is independent of this iteration order.
    stripped = {k: v for k, v in record.items() if k != "run_id"}
    return hashlib.sha256(_canonical(stripped).encode()).hexdigest()[:16]


def environment_stamp() -> dict[str, str]:
    """The simulator-shaping environment knobs active right now."""
    return {
        "directory": os.environ.get("REPRO_DIRECTORY") or "oracle",
    }


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
        from ..bench.schema import git_sha

        record: dict[str, Any] = {
            "ledger_version": LEDGER_VERSION,
            "kind": kind,
            "status": status,
            "git_sha": git_sha(),
            "recorded_at": round(float(self._clock()), 6),
            "env": environment_stamp(),
        }
        if parent is not None:
            record["parent"] = parent
        record.update(fields)
        record["run_id"] = run_id(record)
        with open(self.path, "a", encoding="utf-8") as fp:
            fp.write(_canonical_line(record))
        return record


def _canonical_line(record: dict[str, Any]) -> str:
    return json.dumps(record, sort_keys=True, default=float) + "\n"


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


def filter_records(
    records: Iterable[dict[str, Any]],
    *,
    kind: Optional[str] = None,
    status: Optional[str] = None,
    system: Optional[str] = None,
    workload: Optional[str] = None,
    parent: Optional[str] = None,
) -> list[dict[str, Any]]:
    """Records matching every given criterion (None = don't care)."""
    out = []
    for rec in records:
        if kind is not None and rec.get("kind") != kind:
            continue
        if status is not None and rec.get("status") != status:
            continue
        if system is not None and rec.get("system") != system:
            continue
        if workload is not None and rec.get("workload") != workload:
            continue
        if parent is not None and rec.get("parent") != parent:
            continue
        out.append(rec)
    return out


def latest_sweep(records: Iterable[dict[str, Any]]) -> Optional[dict[str, Any]]:
    """The last ``sweep`` record appended, or None."""
    sweep = None
    for rec in records:
        if rec.get("kind") == "sweep":
            sweep = rec
    return sweep


def find_record(
    records: Iterable[dict[str, Any]], run_id_prefix: str
) -> Optional[dict[str, Any]]:
    """The unique record whose ``run_id`` starts with the given prefix.

    Raises :class:`ValueError` when the prefix is ambiguous.
    """
    matches = [r for r in records
               if str(r.get("run_id", "")).startswith(run_id_prefix)]
    if len(matches) > 1:
        ids = ", ".join(str(r["run_id"]) for r in matches[:5])
        raise ValueError(f"run id prefix {run_id_prefix!r} is ambiguous "
                         f"({ids}...)")
    return matches[0] if matches else None


# ---------------------------------------------------------------------------
# CLI: list / show
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
    return (f"{rec.get('run_id', '?'):<16} {rec.get('kind', '?'):<6} "
            f"{rec.get('status', '?'):<7} {wall_txt}  {coords}")


def _cmd_list(args: argparse.Namespace) -> int:
    try:
        records = load_ledger(args.ledger)
    except (OSError, json.JSONDecodeError, ValueError) as exc:
        print(f"ledger: cannot read {args.ledger}: {exc}", file=sys.stderr)
        return 2
    records = filter_records(
        records, kind=args.kind, status=args.status,
        system=args.system, workload=args.workload, parent=args.parent,
    )
    if args.json:
        print(json.dumps(records, indent=2, sort_keys=True, default=float))
        return 0
    if not records:
        print("(no matching records)")
        return 0
    print(f"{'run_id':<16} {'kind':<6} {'status':<7} {'wall':>8}   cell")
    for rec in records:
        print(_format_row(rec))
    return 0


def _show_artifact(name: str, path: str) -> list[str]:
    """Join one artifact path back to a summary of its content."""
    lines = [f"  {name:<12} {path}"]
    if not os.path.exists(path):
        lines[0] += "  (missing)"
        return lines
    if not path.endswith(".json"):
        lines[0] += f"  ({os.path.getsize(path)} bytes)"
        return lines
    try:
        with open(path, encoding="utf-8") as fp:
            doc = json.load(fp)
    except (OSError, json.JSONDecodeError):
        lines[0] += "  (unreadable)"
        return lines
    if not isinstance(doc, dict):
        return lines
    if "params_digest" in doc and "metrics" in doc:  # BENCH trajectory record
        lines.append(f"    bench record {doc.get('name', '?')!r}: "
                     f"{len(doc.get('metrics', {}))} metrics, "
                     f"params digest {doc.get('params_digest')}")
    elif doc.get("kind") == "attribution":
        binding = doc.get("binding_resource") or {}
        lines.append(f"    attribution: {doc.get('requests', 0)} requests, "
                     f"mean {doc.get('mean_response_ms', 0.0):.3f} ms, "
                     f"binding {binding.get('resource', 'n/a')}")
    return lines


def _cmd_show(args: argparse.Namespace) -> int:
    try:
        records = load_ledger(args.ledger)
        rec = find_record(records, args.run_id)
    except (OSError, json.JSONDecodeError, ValueError) as exc:
        print(f"ledger: {exc}", file=sys.stderr)
        return 2
    if rec is None:
        print(f"ledger: no record with run id {args.run_id!r}",
              file=sys.stderr)
        return 1
    print(json.dumps(rec, indent=2, sort_keys=True, default=float))
    artifacts = rec.get("artifacts") or {}
    if artifacts and not args.no_artifacts:
        print("artifacts:")
        for name in sorted(artifacts):
            if artifacts[name]:
                for line in _show_artifact(name, str(artifacts[name])):
                    print(line)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.ledger",
        description="Inspect an append-only run ledger (JSONL manifests "
                    "appended by run/chaos/sweep with --ledger).",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    list_p = sub.add_parser("list", help="list (filtered) ledger records")
    list_p.add_argument("ledger", help="ledger JSONL file")
    list_p.add_argument("--kind", choices=list(RECORD_KINDS), default=None)
    list_p.add_argument("--status", default=None,
                        help="filter by exit status (ok / failed)")
    list_p.add_argument("--system", default=None)
    list_p.add_argument("--workload", default=None)
    list_p.add_argument("--parent", default=None, metavar="RUN_ID",
                        help="only records with this parent (a sweep's cells)")
    list_p.add_argument("--json", action="store_true",
                        help="emit the matching records as JSON")
    show_p = sub.add_parser(
        "show", help="show one record and join it to its artifacts"
    )
    show_p.add_argument("ledger", help="ledger JSONL file")
    show_p.add_argument("run_id", help="run id (unique prefix accepted)")
    show_p.add_argument("--no-artifacts", action="store_true",
                        help="skip reading artifact files")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "list":
        return _cmd_list(args)
    if args.command == "show":
        return _cmd_show(args)
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
