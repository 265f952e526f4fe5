"""Plain-text rendering of experiment tables and series.

The benchmarks print the same rows/series the paper's tables and figures
report; these helpers keep the formatting consistent and dependency-free.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence


def format_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    title: Optional[str] = None,
) -> str:
    """Fixed-width table with a header rule."""
    cells = [[str(h) for h in headers]]
    for row in rows:
        cells.append([_fmt(v) for v in row])
    widths = [
        max(len(r[i]) for r in cells) for i in range(len(headers))
    ]
    lines = []
    if title:
        lines.append(title)
    lines.append(
        "  ".join(h.ljust(w) for h, w in zip(cells[0], widths))
    )
    lines.append("  ".join("-" * w for w in widths))
    for row in cells[1:]:
        lines.append(
            "  ".join(c.ljust(w) for c, w in zip(row, widths))
        )
    return "\n".join(lines)


def format_series_table(
    series: Dict[str, Sequence[float]],
    x_label: str = "cycle",
    fmt: str = "{:.2f}",
    title: Optional[str] = None,
) -> str:
    """Multiple aligned series (one figure's worth of lines)."""
    lines = []
    if title:
        lines.append(title)
    n = max((len(v) for v in series.values()), default=0)
    lines.append(
        f"{x_label:>16s}: " + " ".join(f"{i + 1:>7d}" for i in range(n))
    )
    for label, values in series.items():
        lines.append(
            f"{label:>16s}: "
            + " ".join(f"{fmt.format(v):>7s}" for v in values)
        )
    return "\n".join(lines)


def _fmt(value: object) -> str:
    if isinstance(value, bool):
        return "X" if value else ""
    if isinstance(value, float):
        return f"{value:.2f}"
    return str(value)
