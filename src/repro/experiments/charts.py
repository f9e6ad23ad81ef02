"""Terminal line charts for the figure renderers.

The paper's figures are line plots; the harness reproduces the numbers
as tables (exact) plus these Unicode charts (shape at a glance).  Pure
text, no plotting dependency — suitable for logs and CI output.
"""

from __future__ import annotations

from collections.abc import Sequence

__all__ = ["line_chart"]

#: Plot glyph per series, cycled.
_GLYPHS = "*o+x#@%&"


def _scale(value: float, lo: float, hi: float, steps: int) -> int:
    if hi <= lo:
        return 0
    frac = (value - lo) / (hi - lo)
    return min(steps - 1, max(0, int(round(frac * (steps - 1)))))


def line_chart(
    x: Sequence[float],
    series: dict[str, Sequence[float]],
    width: int = 60,
    height: int = 16,
    title: str | None = None,
    y_label: str = "",
    x_label: str = "",
) -> str:
    """Render named series over a shared x axis as a text chart.

    X positions are spread by *index* (the paper's memory axis is
    log-spaced, and index spacing matches how its figures read).
    """
    if not x:
        raise ValueError("need at least one x value")
    for name, ys in series.items():
        if len(ys) != len(x):
            raise ValueError(f"series {name!r} length != x length")
    all_y = [y for ys in series.values() for y in ys]
    if not all_y:
        raise ValueError("need at least one series")
    y_lo = min(0.0, min(all_y))
    y_hi = max(all_y) or 1.0

    grid = [[" "] * width for _ in range(height)]
    for si, (name, ys) in enumerate(series.items()):
        glyph = _GLYPHS[si % len(_GLYPHS)]
        prev = None
        for i, yv in enumerate(ys):
            cx = _scale(i, 0, max(1, len(x) - 1), width)
            cy = height - 1 - _scale(yv, y_lo, y_hi, height)
            if prev is not None:
                # Sparse interpolation so lines read as lines.
                px, py = prev
                steps = max(abs(cx - px), abs(cy - py))
                for s in range(1, steps):
                    ix = px + (cx - px) * s // steps
                    iy = py + (cy - py) * s // steps
                    if grid[iy][ix] == " ":
                        grid[iy][ix] = "."
            grid[cy][cx] = glyph
            prev = (cx, cy)

    lines: list[str] = []
    if title:
        lines.append(title)
    top = f"{y_hi:,.4g}"
    bottom = f"{y_lo:,.4g}"
    margin = max(len(top), len(bottom), len(y_label)) + 1
    if y_label:
        lines.append(y_label.rjust(margin))
    for row_idx, row in enumerate(grid):
        if row_idx == 0:
            label = top
        elif row_idx == height - 1:
            label = bottom
        else:
            label = ""
        lines.append(label.rjust(margin) + " |" + "".join(row))
    lines.append(" " * margin + " +" + "-" * width)
    ticks = " " * (margin + 2)
    first, last = f"{x[0]:g}", f"{x[-1]:g}"
    pad = max(0, width - len(first) - len(last))
    lines.append(ticks + first + " " * pad + last)
    if x_label:
        lines.append(" " * (margin + 2) + x_label)
    legend = "   ".join(
        f"{_GLYPHS[i % len(_GLYPHS)]} {name}"
        for i, name in enumerate(series)
    )
    lines.append(" " * (margin + 2) + legend)
    return "\n".join(lines)

