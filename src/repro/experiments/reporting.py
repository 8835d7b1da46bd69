"""Plain-text table rendering shared by benchmarks and EXPERIMENTS.md."""

from __future__ import annotations

from collections.abc import Mapping, Sequence


def _format_cell(value: object, precision: int) -> str:
    if value is None:
        # "no data" must read as such, never as a perfect 0.0
        return "n/a"
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        return f"{value:.{precision}f}"
    return str(value)


def render_table(
    rows: Sequence[Mapping[str, object]],
    columns: Sequence[str] | None = None,
    title: str | None = None,
    precision: int = 3,
) -> str:
    """Render dict rows as an aligned text table (markdown-compatible);
    a ``None`` cell renders as ``n/a``."""
    if not rows:
        raise ValueError("rows must be non-empty")
    if columns is None:
        columns = list(rows[0].keys())
    cells = [
        [_format_cell(row.get(column, ""), precision) for column in columns]
        for row in rows
    ]
    widths = [
        max(len(str(column)), max(len(row[i]) for row in cells))
        for i, column in enumerate(columns)
    ]
    lines = []
    if title:
        lines.append(title)
    header = " | ".join(str(c).ljust(w) for c, w in zip(columns, widths))
    rule = "-|-".join("-" * w for w in widths)
    lines.append(header)
    lines.append(rule)
    for row in cells:
        lines.append(" | ".join(cell.rjust(w) for cell, w in zip(row, widths)))
    return "\n".join(lines)
