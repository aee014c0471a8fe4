"""Minimal ASCII rendering of experiment output.

The benchmark harness runs under ``pytest`` in a terminal; instead of
depending on a plotting stack, the experiment drivers render their series as
plain-text tables and simple scatter plots so the "shape" of the paper's
figures is visible directly in the benchmark log.
"""

from __future__ import annotations

from typing import Mapping, Sequence

__all__ = ["format_table", "ascii_plot"]


def format_table(rows: Sequence[Mapping], columns: Sequence[str] | None = None) -> str:
    """Render ``rows`` (mappings) as a fixed-width text table."""
    rows = list(rows)
    if not rows:
        return "(no data)"
    if columns is None:
        columns = list(rows[0].keys())
    rendered_rows = [
        [_format_cell(row.get(column)) for column in columns] for row in rows
    ]
    widths = [
        max(len(str(column)), *(len(row[i]) for row in rendered_rows))
        for i, column in enumerate(columns)
    ]
    header = "  ".join(str(column).ljust(width) for column, width in zip(columns, widths))
    separator = "  ".join("-" * width for width in widths)
    body = "\n".join(
        "  ".join(cell.ljust(width) for cell, width in zip(row, widths))
        for row in rendered_rows
    )
    return "\n".join([header, separator, body])


def ascii_plot(
    xs: Sequence[float],
    ys: Sequence[float],
    width: int = 70,
    height: int = 16,
    title: str = "",
) -> str:
    """Render a simple scatter/line plot of ``ys`` against ``xs``."""
    if len(xs) != len(ys):
        raise ValueError("xs and ys must have the same length")
    if not xs:
        return "(no data)"
    x_min, x_max = min(xs), max(xs)
    y_min, y_max = min(ys), max(ys)
    x_span = (x_max - x_min) or 1.0
    y_span = (y_max - y_min) or 1.0

    grid = [[" "] * width for _ in range(height)]
    for x, y in zip(xs, ys):
        column = int((x - x_min) / x_span * (width - 1))
        row = int((y - y_min) / y_span * (height - 1))
        grid[height - 1 - row][column] = "*"

    lines = []
    if title:
        lines.append(title)
    top_label = f"{y_max:.3g}"
    bottom_label = f"{y_min:.3g}"
    label_width = max(len(top_label), len(bottom_label))
    for index, row in enumerate(grid):
        if index == 0:
            label = top_label.rjust(label_width)
        elif index == height - 1:
            label = bottom_label.rjust(label_width)
        else:
            label = " " * label_width
        lines.append(f"{label} |{''.join(row)}")
    lines.append(" " * label_width + " +" + "-" * width)
    lines.append(
        " " * label_width + f"  {x_min:.3g}" + " " * (width - 12) + f"{x_max:.3g}"
    )
    return "\n".join(lines)


def _format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.3f}"
    return str(value)
