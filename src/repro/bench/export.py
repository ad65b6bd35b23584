"""CSV export of experiment results, for plotting outside this repo."""

from __future__ import annotations

import csv
from pathlib import Path
from typing import TYPE_CHECKING, Dict, Iterable, List, Sequence, Tuple, Union

if TYPE_CHECKING:  # pragma: no cover — type-only; repro.bench stays scenario-free
    from ..scenario.build import ScenarioResult

__all__ = ["write_csv", "scaling_points_to_csv", "series_to_csv"]


def write_csv(
    path: Union[str, Path], headers: Sequence[str], rows: Iterable[Sequence[object]]
) -> Path:
    """Write rows to ``path`` as CSV; returns the path written."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(headers)
        for row in rows:
            writer.writerow(row)
    return path


def scaling_points_to_csv(
    results: Iterable["ScenarioResult"], path: Union[str, Path]
) -> Path:
    """One row per (technique, cores) MLFFR measurement."""
    return write_csv(
        path,
        ["technique", "cores", "mlffr_mpps", "search_iterations"],
        [
            [r.scenario.technique, r.scenario.cores, f"{r.mlffr_mpps:.4f}",
             r.iterations]
            for r in results
        ],
    )


def series_to_csv(
    series: Dict[str, List[Tuple[int, float]]], path: Union[str, Path]
) -> Path:
    """Wide format: one column per technique, one row per core count."""
    cores = sorted({c for pts in series.values() for c, _ in pts})
    names = list(series)
    lookup = {n: dict(pts) for n, pts in series.items()}
    rows = []
    for c in cores:
        row: List[object] = [c]
        for n in names:
            value = lookup[n].get(c)
            row.append("" if value is None else f"{value:.4f}")
        rows.append(row)
    return write_csv(path, ["cores"] + names, rows)
