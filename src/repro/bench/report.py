"""Plain-text rendering of the tables and series the benchmarks print."""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence, Tuple

from ..telemetry.inspect import text_table

__all__ = ["render_table", "render_scaling_series", "format_mpps"]


def format_mpps(value: float) -> str:
    return f"{value:7.2f}"


def render_table(headers: Sequence[str], rows: Iterable[Sequence[object]], title: str = "") -> str:
    """Aligned monospace table, under ``title`` when one is given."""
    lines = text_table(headers, rows)
    return "\n".join([title, *lines] if title else lines)


def render_scaling_series(
    points_by_technique: Dict[str, List[Tuple[int, float]]], title: str = ""
) -> str:
    """Render throughput-vs-cores series, one column per technique.

    ``points_by_technique`` maps technique name → [(cores, mpps), ...].
    """
    cores = sorted({c for pts in points_by_technique.values() for c, _ in pts})
    techniques = list(points_by_technique)
    headers = ["cores"] + [f"{t} (Mpps)" for t in techniques]
    lookup = {
        t: {c: v for c, v in pts} for t, pts in points_by_technique.items()
    }
    rows = []
    for c in cores:
        row = [c]
        for t in techniques:
            v = lookup[t].get(c)
            row.append("-" if v is None else f"{v:.2f}")
        rows.append(row)
    return render_table(headers, rows, title=title)
