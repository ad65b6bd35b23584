"""Schema-versioned host-profile artifact (``scr-repro/hostprof/v1``).

A :class:`HostProfile` freezes one profiled run: the PhaseClock aggregate
(per-phase calls / cumulative / self wall ns), the optional deep-capture
section, and the same provenance stamp BENCH artifacts carry (git SHA,
python, platform, creation time) so a profile is triageable standalone.
``save`` writes three files side by side:

* ``hostprof.json`` — the artifact itself (sorted keys, trailing newline);
* ``profile.folded`` — folded-stack text for flamegraph.pl-style tools;
* ``profile.speedscope.json`` — importable at https://www.speedscope.app.
"""

from __future__ import annotations

import dataclasses
import datetime
import json
import platform as platform_mod
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from ..telemetry.artifact import JSON_NUMBER, current_git_sha, json_field, json_typed, load_json
from .clock import PhaseClock
from .export import to_folded, to_speedscope

HOSTPROF_SCHEMA = "scr-repro/hostprof/v1"
HOSTPROF_JSON = "hostprof.json"
FOLDED_NAME = "profile.folded"
SPEEDSCOPE_NAME = "profile.speedscope.json"

#: What every phase entry holds (``PhaseClock.snapshot``).
_PHASE_FIELDS = ("calls", "total_ns", "self_ns")


@dataclass
class HostProfile:
    """One profiled run's host wall-clock breakdown."""

    command: str = ""
    config: Dict[str, Any] = field(default_factory=dict)
    phases: Dict[str, Dict[str, int]] = field(default_factory=dict)
    deep: Optional[Dict[str, Any]] = None
    git_sha: str = "unknown"
    created_utc: str = ""
    python: str = ""
    platform: str = ""
    schema: str = HOSTPROF_SCHEMA

    @classmethod
    def create(
        cls,
        command: str,
        config: Dict[str, Any],
        clock: PhaseClock,
        deep: Optional[Dict[str, Any]] = None,
    ) -> "HostProfile":
        """Freeze ``clock`` with the standard provenance stamp.

        Wall-clock provenance stamping is sanctioned here exactly as in
        ``BenchArtifact.create`` — it never feeds simulated time.
        """
        created = datetime.datetime.now(  # scrlint: disable=SCR004,SCR006
            datetime.timezone.utc
        ).isoformat()
        return cls(
            command=command,
            config=dict(config),
            phases=clock.snapshot(),
            deep=deep,
            git_sha=current_git_sha(),
            created_utc=created,
            python=sys.version.split()[0],
            platform=platform_mod.platform(),
        )

    # -- derived views ------------------------------------------------------

    def total_wall_ns(self) -> int:
        """Total accounted wall ns (sum of self over every phase; equals the
        sum of root-phase cumulative time for a fully nested tree)."""
        return sum(int(e["self_ns"]) for e in self.phases.values())

    def pareto(self) -> List[Dict[str, Any]]:
        """Phases sorted by self wall ns, descending, with share of total."""
        total = self.total_wall_ns() or 1
        rows = sorted(
            self.phases.items(), key=lambda kv: (-int(kv[1]["self_ns"]), kv[0])
        )
        return [
            {
                "path": path,
                "calls": int(e["calls"]),
                "total_ns": int(e["total_ns"]),
                "self_ns": int(e["self_ns"]),
                "self_share": int(e["self_ns"]) / total,
            }
            for path, e in rows
        ]

    def pareto_lines(self, top: int = 12) -> List[str]:
        """Human-readable Pareto, widest offenders first (CLI output)."""
        rows = self.pareto()[:top]
        if not rows:
            return ["(no phases recorded)"]
        width = max(len(r["path"]) for r in rows)
        lines = [
            f"{'phase':<{width}}  {'calls':>9}  {'total':>10}  {'self':>10}  self%"
        ]
        for r in rows:
            lines.append(
                f"{r['path']:<{width}}  {r['calls']:>9}  "
                f"{_fmt_ns(r['total_ns']):>10}  {_fmt_ns(r['self_ns']):>10}  "
                f"{r['self_share'] * 100:5.1f}"
            )
        return lines

    # -- (de)serialization --------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        data = dataclasses.asdict(self)
        # schema first for greppability; json.dump(sort_keys=True) re-sorts.
        return {"schema": data.pop("schema"), **data}

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "HostProfile":
        """Rebuild a profile; raises ValueError naming the first field
        whose JSON type does not fit the hostprof/v1 shape."""
        json_typed(data, (dict,))
        schema = data.get("schema", "")
        if not str(schema).startswith("scr-repro/hostprof/"):
            raise ValueError(f"not a hostprof artifact (schema={schema!r})")
        phases: Dict[str, Dict[str, int]] = {}
        for path, entry in json_field(data, "phases", {}, (dict,)).items():
            where = f"phases.{path}"
            json_typed(entry, (dict,), where)
            phases[str(path)] = {
                key: int(json_field(entry, key, None, JSON_NUMBER, where))
                for key in _PHASE_FIELDS}
        return cls(
            command=str(data.get("command", "")),
            config=json_field(data, "config", {}, (dict,)),
            phases=phases,
            deep=_checked_deep(json_field(data, "deep", None, (dict, type(None)))),
            git_sha=str(data.get("git_sha", "unknown")),
            created_utc=str(data.get("created_utc", "")),
            python=str(data.get("python", "")),
            platform=str(data.get("platform", "")),
            schema=str(schema),
        )

    def save(self, directory: Union[str, Path]) -> Path:
        """Write hostprof.json + folded + speedscope exports; returns the
        hostprof.json path."""
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        path = directory / HOSTPROF_JSON
        with path.open("w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")
        (directory / FOLDED_NAME).write_text(
            to_folded(self.phases), encoding="utf-8"
        )
        with (directory / SPEEDSCOPE_NAME).open("w", encoding="utf-8") as fh:
            json.dump(
                to_speedscope(self.phases, name=f"scr-repro {self.command}"),
                fh,
                indent=2,
                sort_keys=True,
            )
            fh.write("\n")
        return path

    @classmethod
    def load(cls, path: Union[str, Path]) -> "HostProfile":
        """Load from a hostprof.json file or a directory containing one;
        malformed JSON or shape raises ValueError naming the file."""
        path = Path(path)
        if path.is_dir():
            path = path / HOSTPROF_JSON
        return load_json(path, cls.from_dict)


def _checked_deep(deep: Optional[Dict[str, Any]]) -> Optional[Dict[str, Any]]:
    """``deep`` once its rows have the shape :mod:`repro.hostprof.deep`
    writes; raises ValueError naming the first field that does not."""
    if deep is None:
        return None
    for i, row in enumerate(json_field(deep, "functions", [], (list,), "deep")):
        where = f"deep.functions[{i}]"
        json_typed(row, (dict,), where)
        json_field(row, "function", None, (str,), where)
        json_field(row, "ncalls", None, (int,), where)
        for key in ("tottime_ns", "cumtime_ns"):
            json_field(row, key, None, JSON_NUMBER, where)
    peaks = json_field(deep, "memory_peak_bytes", {}, (dict,), "deep")
    for phase, peak in peaks.items():
        json_typed(peak, (int,), f"deep.memory_peak_bytes.{phase}")
    return deep


def _fmt_ns(ns: int) -> str:
    if ns >= 1_000_000_000:
        return f"{ns / 1e9:.2f}s"
    if ns >= 1_000_000:
        return f"{ns / 1e6:.1f}ms"
    if ns >= 1_000:
        return f"{ns / 1e3:.1f}us"
    return f"{ns}ns"
