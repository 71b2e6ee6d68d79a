"""Plain-text report formatting helpers."""

from __future__ import annotations

from typing import List, Sequence


def format_table(headers: Sequence[str], rows: Sequence[Sequence[object]]) -> str:
    """Render an aligned monospace table.

    Column widths adapt to content; numeric cells are right-aligned,
    text cells left-aligned.
    """
    str_rows: List[List[str]] = [
        [_fmt_cell(cell) for cell in row] for row in rows
    ]
    widths = [len(h) for h in headers]
    for row in str_rows:
        for i, cell in enumerate(row):
            if i < len(widths):
                widths[i] = max(widths[i], len(cell))
    numeric = [
        all(_is_numeric(row[i]) for row in str_rows if i < len(row)) if str_rows else False
        for i in range(len(headers))
    ]

    def render_row(cells: Sequence[str]) -> str:
        out = []
        for i, cell in enumerate(cells):
            if i >= len(widths):
                break
            out.append(cell.rjust(widths[i]) if numeric[i] else cell.ljust(widths[i]))
        return "  ".join(out).rstrip()

    lines = [render_row(list(headers)), render_row(["-" * w for w in widths])]
    lines.extend(render_row(row) for row in str_rows)
    return "\n".join(lines)


def _fmt_cell(cell: object) -> str:
    if isinstance(cell, float):
        return f"{cell:.2f}"
    return str(cell)


def _is_numeric(cell: str) -> bool:
    try:
        float(cell)
        return True
    except ValueError:
        return False


def gain_vs_penalty_report(
    gain: float,
    gross_revenue: float,
    penalties: float,
    violation_rate: float,
) -> str:
    """The headline box of the demo dashboard: gains vs. penalties."""
    net = gross_revenue - penalties
    lines = [
        "=== Overbooking: gains vs. penalties ===",
        f"multiplexing gain      : {gain:6.2f}x",
        f"gross revenue          : {gross_revenue:10.2f}",
        f"SLA penalties          : {penalties:10.2f}",
        f"net revenue            : {net:10.2f}",
        f"violation rate         : {violation_rate:8.2%}",
    ]
    return "\n".join(lines)


def sparkline(values: Sequence[float], width: int = 40) -> str:
    """Render a unicode sparkline of a series (dashboard gain history).

    Values are min-max normalized onto eight block heights; the series
    is resampled to at most ``width`` points by striding.

    Raises:
        ValueError: If ``width`` is not positive.
    """
    blocks = "▁▂▃▄▅▆▇█"
    vals = [float(v) for v in values]
    if not vals:
        return ""
    if width <= 0:
        raise ValueError(f"width must be positive, got {width}")
    if len(vals) > width:
        stride = len(vals) / width
        vals = [vals[int(i * stride)] for i in range(width)]
    lo, hi = min(vals), max(vals)
    if hi - lo < 1e-12:
        return blocks[0] * len(vals)
    out = []
    for v in vals:
        idx = int((v - lo) / (hi - lo) * (len(blocks) - 1))
        out.append(blocks[idx])
    return "".join(out)


__all__ = ["format_table", "gain_vs_penalty_report", "sparkline"]
