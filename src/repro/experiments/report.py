"""Plain-text table rendering for experiment outputs.

Every experiment returns rows of dicts; this module renders them in the
aligned ASCII style the benchmarks and ``python -m repro`` commands print.
"""

from __future__ import annotations

from typing import Any, Sequence

__all__ = ["render_table", "format_value"]


def format_value(v: Any) -> str:
    """Compact human formatting: floats to 4 significant digits."""
    if isinstance(v, bool):
        return "yes" if v else "no"
    if isinstance(v, float):
        if v == 0:
            return "0"
        if abs(v) >= 1e5 or abs(v) < 1e-3:
            return f"{v:.3e}"
        return f"{v:.4g}"
    return str(v)


def render_table(
    rows: Sequence[dict], columns: Sequence[str] | None = None, title: str = ""
) -> str:
    """Render a list of dict rows as an aligned monospace table."""
    if not rows:
        return f"{title}\n(empty)\n" if title else "(empty)\n"
    if columns is None:
        columns = list(rows[0].keys())
    cells = [[format_value(r.get(c, "")) for c in columns] for r in rows]
    widths = [
        max(len(str(c)), *(len(row[i]) for row in cells))
        for i, c in enumerate(columns)
    ]
    lines = []
    if title:
        lines.append(title)
    header = "  ".join(str(c).ljust(w) for c, w in zip(columns, widths))
    lines.append(header)
    lines.append("  ".join("-" * w for w in widths))
    for row in cells:
        lines.append("  ".join(v.ljust(w) for v, w in zip(row, widths)))
    return "\n".join(lines) + "\n"
