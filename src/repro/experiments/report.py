"""Plain-text rendering of experiment results.

The harness prints the same rows/series the paper's tables and figures
report, as aligned ASCII tables — suitable for terminals, logs, and the
EXPERIMENTS.md paper-vs-measured record.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from typing import Union

__all__ = ["format_table", "banner"]

Cell = Union[str, int, float, None]


def _fmt(cell: Cell, ndigits: int) -> str:
    if cell is None:
        return "-"
    if isinstance(cell, bool):
        return str(cell)
    if isinstance(cell, float):
        return f"{cell:.{ndigits}f}"
    return str(cell)


def format_table(
    headers: Sequence[str],
    rows: Iterable[Sequence[Cell]],
    title: str | None = None,
    ndigits: int = 2,
) -> str:
    """Render an aligned ASCII table.

    Numbers are right-aligned, text left-aligned; floats get ``ndigits``
    decimals; ``None`` prints as ``-``.
    """
    raw_rows = [list(row) for row in rows]
    str_rows: list[list[str]] = [
        [_fmt(c, ndigits) for c in row] for row in raw_rows
    ]
    ncols = len(headers)
    for r in str_rows:
        if len(r) != ncols:
            raise ValueError(
                f"row has {len(r)} cells, expected {ncols}: {r!r}"
            )
    widths = [
        max(len(headers[i]), *(len(r[i]) for r in str_rows)) if str_rows
        else len(headers[i])
        for i in range(ncols)
    ]
    # Right-align columns that hold numbers, left-align text columns.
    numeric = [
        str_rows
        and all(
            isinstance(row[i], (int, float)) or row[i] is None
            for row in raw_rows
        )
        for i in range(ncols)
    ]
    sep = "-+-".join("-" * w for w in widths)
    head = " | ".join(h.ljust(widths[i]) for i, h in enumerate(headers))
    body = [
        " | ".join(
            r[i].rjust(widths[i]) if numeric[i] else r[i].ljust(widths[i])
            for i in range(ncols)
        )
        for r in str_rows
    ]
    lines = []
    if title:
        lines.append(title)
        lines.append("=" * len(title))
    lines.append(head)
    lines.append(sep)
    lines.extend(body)
    return "\n".join(lines)


def banner(text: str) -> str:
    """A section banner for multi-part reports."""
    bar = "#" * (len(text) + 4)
    return f"{bar}\n# {text} #\n{bar}"
