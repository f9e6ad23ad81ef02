"""Compare a benchmark trajectory record with its committed baseline.

The simulator is deterministic, so a record must reproduce its baseline:
the same ``name``, ``schema_version`` and ``params_digest`` (a run with
other workload knobs says nothing about the code) and the same ``data``,
value for value.  :func:`mismatches` is the rule: the same dict keys,
the same list lengths, equal strings, booleans and integers, and floats
within :data:`FLOAT_TOL` of the baseline's.  The tolerance leaves room
for interpreter rounding (float ``sum()`` rounds differently from
Python 3.12 on), far below any simulated change.  A NaN or infinite
float matches nothing, not even itself.
"""

from __future__ import annotations

from typing import Any

__all__ = ["FLOAT_TOL", "mismatches", "compare_records"]

#: Absolute tolerance for a float against its baseline.
FLOAT_TOL = 1e-9

#: Record fields that must equal the baseline's before ``data`` is compared.
_IDENTITY = ("name", "schema_version", "params_digest")


def _is_number(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def mismatches(current: Any, baseline: Any, path: str = "$") -> list[str]:
    """Every place ``current`` departs from ``baseline``, one
    ``path: baseline -> current`` line each (empty when they match)."""
    if isinstance(current, float) or isinstance(baseline, float):
        # abs() of a difference with NaN or inf is NaN or inf: no match.
        if _is_number(current) and _is_number(baseline) \
                and abs(current - baseline) <= FLOAT_TOL:
            return []
    elif isinstance(current, dict) and isinstance(baseline, dict):
        if current.keys() != baseline.keys():
            return [f"{path}: keys missing "
                    f"{sorted(baseline.keys() - current.keys())}, "
                    f"extra {sorted(current.keys() - baseline.keys())}"]
        return [line for key in baseline
                for line in mismatches(current[key], baseline[key],
                                       f"{path}.{key}")]
    elif isinstance(current, list) and isinstance(baseline, list):
        if len(current) != len(baseline):
            return [f"{path}: {len(baseline)} items -> {len(current)}"]
        return [line for i, (cur, base) in enumerate(zip(current, baseline))
                for line in mismatches(cur, base, f"{path}[{i}]")]
    elif type(current) is type(baseline) and current == baseline:
        return []
    return [f"{path}: {baseline!r} -> {current!r}"]


def compare_records(
    current: dict[str, Any], baseline: dict[str, Any]
) -> list[str]:
    """The gate: every mismatch of ``current`` against ``baseline``.

    ``data`` is compared only when the identity fields agree: data from
    other knobs or another schema cannot be compared value by value.
    """
    found = [line for key in _IDENTITY
             for line in mismatches(current.get(key), baseline.get(key), key)]
    return found or mismatches(current.get("data"), baseline.get("data"),
                               "data")
