"""Schema-versioned benchmark artifacts: ``BENCH_<name>.json``.

One artifact captures one suite run as durable, comparable numbers:

* **provenance** — git SHA, python/platform, creation time, the
  ``TABLE4_PARAMS`` cost rows in effect, and the seed policy (base seed +
  per-repetition seeds) that produced the workloads;
* **series** — named measurement series (one per technique, usually),
  each point carrying the median and MAD over k repetitions plus the raw
  per-rep values, a unit, and a comparison direction;
* optional **model fit** (Appendix A residuals per core count) and
  **profile** (per-core cycle attribution) sections.

The compare engine (:mod:`repro.perf.compare`) refuses to diff artifacts
whose ``schema`` strings differ — the version is the compatibility
contract, bump it when the shape changes.
"""

from __future__ import annotations

import dataclasses
import datetime
import json
import platform
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Union

from ..cpu.costmodel import TABLE4_PARAMS, CostParams
from ..telemetry.artifact import JSON_NUMBER, current_git_sha, json_field, json_typed, load_json

__all__ = [
    "BENCH_SCHEMA",
    "BenchPoint",
    "BenchSeries",
    "BenchArtifact",
    "median",
    "mad",
    "bench_filename",
]

#: Bump on any incompatible change to the artifact shape.
BENCH_SCHEMA = "scr-repro/bench-artifact/v1"

#: Directions a series can be compared in.
_DIRECTIONS = ("higher_better", "lower_better")


def median(values: Sequence[float]) -> float:
    """Median without numpy (artifacts must load dependency-free)."""
    if not values:
        raise ValueError("median of empty sequence")
    ordered = sorted(values)
    n = len(ordered)
    mid = n // 2
    if n % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def mad(values: Sequence[float]) -> float:
    """Median absolute deviation — the artifact's per-point noise scale."""
    m = median(values)
    return median([abs(v - m) for v in values])


@dataclass
class BenchPoint:
    """One measured point: the median/MAD over the repetition values."""

    x: Union[int, str]
    median: float
    mad: float
    reps: List[float] = field(default_factory=list)

    @classmethod
    def from_reps(cls, x: Union[int, str], reps: Sequence[float]) -> "BenchPoint":
        return cls(x=x, median=median(reps), mad=mad(reps), reps=list(reps))

    def to_dict(self) -> dict:
        return {"x": self.x, "median": self.median, "mad": self.mad,
                "reps": self.reps}

    @classmethod
    def from_dict(cls, data: dict, where: str = "point") -> "BenchPoint":
        json_typed(data, (dict,), where)
        return cls(
            x=json_typed(data.get("x"), (int, str), f"{where}.x"),
            median=json_typed(data.get("median"), JSON_NUMBER, f"{where}.median"),
            mad=json_typed(data.get("mad"), JSON_NUMBER, f"{where}.mad"),
            reps=[json_typed(v, JSON_NUMBER, f"{where}.reps[{i}]") for i, v in
                  enumerate(json_field(data, "reps", [], (list,), where))],
        )


@dataclass
class BenchSeries:
    """A named series of points sharing a unit and compare direction.

    ``noise_floor`` is an absolute tolerance in the series' unit below
    which differences are never significant (for MLFFR series this is the
    ±0.4 Mpps binary-search window).
    """

    name: str
    unit: str
    direction: str = "higher_better"
    noise_floor: float = 0.0
    points: List[BenchPoint] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.direction not in _DIRECTIONS:
            raise ValueError(f"direction must be one of {_DIRECTIONS}")

    def point(self, x: Union[int, str]) -> Optional[BenchPoint]:
        for p in self.points:
            if p.x == x:
                return p
        return None

    def to_dict(self) -> dict:
        return {
            "unit": self.unit,
            "direction": self.direction,
            "noise_floor": self.noise_floor,
            "points": [p.to_dict() for p in self.points],
        }

    @classmethod
    def from_dict(cls, name: str, data: dict) -> "BenchSeries":
        where = f"series.{name}"
        json_typed(data, (dict,), where)
        points = json_typed(data.get("points", []), (list,), f"{where}.points")
        return cls(
            name=name,
            unit=json_field(data, "unit", "", (str,), where),
            direction=json_field(data, "direction", "higher_better", (str,), where),
            noise_floor=json_field(data, "noise_floor", 0.0, JSON_NUMBER, where),
            points=[BenchPoint.from_dict(p, f"{where}.points[{i}]")
                    for i, p in enumerate(points)],
        )


def _table4_dict(programs: Optional[Sequence[str]] = None) -> dict:
    """The cost rows in effect, JSON-safe (all programs unless narrowed)."""
    names = programs if programs is not None else sorted(TABLE4_PARAMS)
    return {
        name: dataclasses.asdict(TABLE4_PARAMS[name])
        for name in names
        if name in TABLE4_PARAMS
    }


def _cost_rows(table4: dict) -> dict:
    """``table4_params`` with each program's row checked: every
    :class:`CostParams` field present and a number."""
    for name, row in table4.items():
        where = f"table4_params.{name}"
        json_typed(row, (dict,), where)
        for cost in dataclasses.fields(CostParams):
            json_typed(row.get(cost.name), JSON_NUMBER, f"{where}.{cost.name}")
    return table4


def bench_filename(name: str) -> str:
    return f"BENCH_{name}.json"


@dataclass
class BenchArtifact:
    """One suite run: provenance + series + optional analysis sections."""

    name: str
    config: dict = field(default_factory=dict)
    seed_policy: dict = field(default_factory=dict)
    series: Dict[str, BenchSeries] = field(default_factory=dict)
    #: Appendix A model fit: predicted Mpps and relative residuals per x.
    model_fit: Optional[dict] = None
    #: per-core d/c1/c2/contention split (``RunAttribution.to_dict()``).
    profile: Optional[dict] = None
    git_sha: str = "unknown"
    created_utc: str = ""
    python: str = ""
    platform: str = ""
    table4_params: dict = field(default_factory=dict)
    schema: str = BENCH_SCHEMA

    @classmethod
    def create(
        cls,
        name: str,
        config: dict,
        seed_policy: dict,
        programs: Optional[Sequence[str]] = None,
    ) -> "BenchArtifact":
        """A new artifact stamped with the current environment."""
        return cls(
            name=name,
            config=config,
            seed_policy=seed_policy,
            git_sha=current_git_sha(),
            created_utc=datetime.datetime.now(
                datetime.timezone.utc
            ).isoformat(),
            python=sys.version.split()[0],
            platform=platform.platform(),
            table4_params=_table4_dict(programs),
        )

    def add_series(self, series: BenchSeries) -> BenchSeries:
        self.series[series.name] = series
        return series

    def to_dict(self) -> dict:
        return {
            "schema": self.schema,
            "name": self.name,
            "config": self.config,
            "seed_policy": self.seed_policy,
            "git_sha": self.git_sha,
            "created_utc": self.created_utc,
            "python": self.python,
            "platform": self.platform,
            "table4_params": self.table4_params,
            "series": {n: s.to_dict() for n, s in sorted(self.series.items())},
            "model_fit": self.model_fit,
            "profile": self.profile,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "BenchArtifact":
        """Rebuild an artifact; raises ValueError naming the first field
        whose JSON type does not fit the bench-artifact/v1 shape."""
        json_typed(data, (dict,))
        series = json_field(data, "series", {}, (dict,))
        optional = (dict, type(None))
        art = cls(
            name=json_field(data, "name", "", (str,)),
            config=json_field(data, "config", {}, (dict,)),
            seed_policy=json_field(data, "seed_policy", {}, (dict,)),
            git_sha=json_field(data, "git_sha", "unknown", (str,)),
            created_utc=json_field(data, "created_utc", "", (str,)),
            python=json_field(data, "python", "", (str,)),
            platform=json_field(data, "platform", "", (str,)),
            table4_params=_cost_rows(json_field(data, "table4_params", {}, (dict,))),
            model_fit=json_field(data, "model_fit", None, optional),
            profile=json_field(data, "profile", None, optional),
            schema=json_field(data, "schema", "", (str,)),
        )
        for name, sdata in series.items():
            art.series[name] = BenchSeries.from_dict(name, sdata)
        return art

    def save(self, directory: Union[str, Path]) -> Path:
        """Write ``BENCH_<name>.json`` under ``directory``; returns the path."""
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        path = directory / bench_filename(self.name)
        with path.open("w") as fh:
            json.dump(self.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")
        return path

    @classmethod
    def load(cls, path: Union[str, Path]) -> "BenchArtifact":
        """Read ``path``; malformed JSON or shape raises ValueError naming
        the file (and the field)."""
        return load_json(Path(path), cls.from_dict)
