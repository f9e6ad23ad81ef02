"""The shared benchmark-artifact schema.

A *trajectory record* wraps one benchmark's result ``data`` with what
shaped it, and nothing else, so a record's bytes depend only on the
code, the seed and the knobs:

* ``schema_version`` — bump on incompatible shape changes (2 dropped
  the extracted ``metrics``; 3 dropped ``git_sha``, the one field that
  changed on every commit);
* ``seed`` — the experiment seed (runs are deterministic given it);
* ``params`` + ``params_digest`` — the knobs that shaped the workload
  (scale, request count, clients, memory points) and a short digest of
  them.

Records are always serialized with sorted keys, so the committed
``benchmarks/results/<name>.json`` is its own regression gate: rerun
the bench and ``git diff`` the file.  :func:`git_sha` stamps run-ledger
rows (:mod:`repro.obs.ledger`), not records.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
from typing import Any

__all__ = [
    "SCHEMA_VERSION",
    "git_sha",
    "params_digest",
    "wrap_result",
    "dump_record",
]

SCHEMA_VERSION = 3


def git_sha() -> str:
    """Commit sha of the working tree, or ``"unknown"``.

    ``REPRO_GIT_SHA`` wins when set (CI exports it so ledger rows stay
    correct even when the checkout is shallow or detached).
    """
    env = os.environ.get("REPRO_GIT_SHA")
    if env:
        return env
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10, check=False,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else "unknown"


def _canonical(obj: Any) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"),
                      default=float)


def params_digest(params: dict[str, Any]) -> str:
    """Short stable digest of a parameter dict (16 hex chars)."""
    return hashlib.sha256(_canonical(params).encode()).hexdigest()[:16]


def wrap_result(
    name: str,
    data: Any,
    *,
    seed: int = 0,
    params: dict[str, Any] | None = None,
) -> dict[str, Any]:
    """Build one trajectory record around a benchmark result."""
    params = dict(params or {})
    return {
        "schema_version": SCHEMA_VERSION,
        "name": name,
        "seed": seed,
        "params": params,
        "params_digest": params_digest(params),
        "data": data,
    }


def dump_record(record: dict[str, Any], path) -> None:
    """Serialize a record with sorted keys (stable diffs)."""
    with open(path, "w", encoding="utf-8") as fp:
        json.dump(record, fp, indent=2, sort_keys=True, default=float)
        fp.write("\n")
