"""Plain-text rendering of experiment results.

The benchmark harness and the examples print the same rows/series the
paper's figures show; this module renders those rows as aligned text
tables so results can be inspected in a terminal or diffed between runs
without any plotting dependency.
"""

from __future__ import annotations

import math
from typing import List, Mapping, Sequence

__all__ = ["format_value", "render_table"]


def format_value(value, precision: int = 4) -> str:
    """Format a cell: floats compactly, infinities explicitly, rest via str."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return str(value)
    if isinstance(value, int):
        return str(value)
    if math.isnan(value):
        return "nan"
    if math.isinf(value):
        return "inf" if value > 0 else "-inf"
    if value != 0 and (abs(value) >= 10_000 or abs(value) < 10 ** (-precision)):
        return f"{value:.{precision}e}"
    return f"{value:.{precision}g}"


def render_table(rows: Sequence[Mapping[str, object]], title: str = "") -> str:
    """Render a list of homogeneous dict rows as an aligned text table."""
    if not rows:
        return f"{title}\n(no data)" if title else "(no data)"
    columns: List[str] = list(rows[0].keys())
    rendered_rows = [[format_value(row.get(column, "")) for column in columns] for row in rows]
    widths = [
        max(len(column), *(len(rendered[index]) for rendered in rendered_rows))
        for index, column in enumerate(columns)
    ]
    lines = []
    if title:
        lines.append(title)
    header = "  ".join(column.ljust(width) for column, width in zip(columns, widths))
    lines.append(header)
    lines.append("  ".join("-" * width for width in widths))
    for rendered in rendered_rows:
        lines.append("  ".join(cell.ljust(width) for cell, width in zip(rendered, widths)))
    return "\n".join(lines)
