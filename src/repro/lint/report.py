"""simlint reporters: human text and machine-readable JSON.

The JSON document is versioned (``schema``) so CI consumers can gate on
shape changes; the text reporter is the default for humans and mirrors
the ``path:line:col: RULE message`` convention of ruff/mypy so editors
pick the locations up.

Schema 3 findings are flat ``{path, line, col, rule, message}``
objects (schema 2 also carried a per-finding ``trace`` array for the
retired whole-program rules).
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import Any

from .engine import Finding

__all__ = ["render_text", "to_json_dict", "JSON_SCHEMA_VERSION"]

JSON_SCHEMA_VERSION = 3


def render_text(findings: Sequence[Finding], files_checked: int) -> str:
    """One line per finding and a summary line."""
    lines = [f"{f.path}:{f.line}:{f.col}: {f.rule} {f.message}"
             for f in findings]
    noun = "file" if files_checked == 1 else "files"
    if findings:
        by_rule = _count_by_rule(findings)
        breakdown = ", ".join(f"{rule}={n}" for rule, n in sorted(by_rule.items()))
        lines.append(
            f"simlint: {len(findings)} finding(s) in {files_checked} {noun} "
            f"({breakdown})")
    else:
        lines.append(f"simlint: clean ({files_checked} {noun} checked)")
    return "\n".join(lines)


def _count_by_rule(findings: Sequence[Finding]) -> dict[str, int]:
    counts: dict[str, int] = {}
    for f in findings:
        counts[f.rule] = counts.get(f.rule, 0) + 1
    return counts


def to_json_dict(findings: Sequence[Finding], files_checked: int) -> dict[str, Any]:
    """Versioned JSON document for CI artifacts and tooling."""
    items: list[dict[str, Any]] = [
        {
            "path": f.path,
            "line": f.line,
            "col": f.col,
            "rule": f.rule,
            "message": f.message,
        }
        for f in findings
    ]
    return {
        "schema": JSON_SCHEMA_VERSION,
        "tool": "simlint",
        "findings": items,
        "summary": {
            "files_checked": files_checked,
            "findings": len(items),
            "by_rule": _count_by_rule(findings),
        },
    }

