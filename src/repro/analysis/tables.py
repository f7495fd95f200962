"""Plain-text table rendering for experiment output.

The CLI prints the same rows the paper reports; these helpers format
them readably without any plotting dependency.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

__all__ = ["render_table", "render_kv"]


def render_table(rows: Sequence[Dict[str, object]], columns: Sequence[str] = ()) -> str:
    """Render dict-rows as an aligned ASCII table.

    Column order defaults to first-row key order; values are str()'d.
    """
    if not rows:
        return "(empty table)"
    cols = list(columns) if columns else list(rows[0].keys())
    cells = [[str(row.get(col, "")) for col in cols] for row in rows]
    widths = [
        max(len(col), *(len(row[i]) for row in cells))
        for i, col in enumerate(cols)
    ]
    def line(parts: Sequence[str]) -> str:
        return "  ".join(part.ljust(width) for part, width in zip(parts, widths))

    header = line(cols)
    rule = "  ".join("-" * width for width in widths)
    body = "\n".join(line(row) for row in cells)
    return f"{header}\n{rule}\n{body}"


def render_kv(pairs: Dict[str, object], title: str = "") -> str:
    """Render a flat key/value mapping, one per line."""
    width = max((len(k) for k in pairs), default=0)
    lines = [f"{k.ljust(width)} : {v}" for k, v in pairs.items()]
    if title:
        lines.insert(0, title)
        lines.insert(1, "=" * len(title))
    return "\n".join(lines)
