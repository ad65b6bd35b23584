"""Noise-aware artifact comparison — the CI perf-regression gate.

Given an OLD (baseline) and NEW artifact, every matched point gets a
verdict.  The significance threshold per point is::

    tol = max(DEFAULT_REL_TOL * |old.median|,
              DEFAULT_NOISE_MULT * (old.mad + new.mad),
              series.noise_floor)

so a difference must beat all three of: a relative band, the measured
workload-sampling noise, and the series' absolute measurement floor (the
MLFFR search window for throughput, one histogram bucket for latency).
``regression``/``improvement`` follow the series' direction; everything
else is ``neutral``.  A repeat run of the same code with the same seeds
is bit-identical, so it compares clean by construction.

Structural problems — schema-version mismatch, different suite names,
series or points missing from NEW — raise :class:`CompareError` rather
than producing a verdict: a gate that silently skips data is worse than
one that fails loudly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from .artifact import BENCH_SCHEMA, BenchArtifact

__all__ = [
    "CompareError",
    "PointVerdict",
    "CompareResult",
    "compare_artifacts",
    "compare_paths",
    "markdown_report",
    "REGRESSION",
    "IMPROVEMENT",
    "NEUTRAL",
]

REGRESSION = "regression"
IMPROVEMENT = "improvement"
NEUTRAL = "neutral"

#: Default relative significance band.
DEFAULT_REL_TOL = 0.05
#: Default multiplier on the summed MADs (the measured noise scale).
DEFAULT_NOISE_MULT = 3.0


class CompareError(Exception):
    """A structural problem that prevents a trustworthy comparison."""


@dataclass
class PointVerdict:
    """One matched point's outcome."""

    series: str
    x: Union[int, str]
    old: float
    new: float
    tol: float
    verdict: str
    unit: str = ""

    @property
    def delta(self) -> float:
        return self.new - self.old

    @property
    def delta_pct(self) -> float:
        if self.old == 0:
            return 0.0
        return 100.0 * self.delta / abs(self.old)


@dataclass
class CompareResult:
    """All point verdicts for one artifact pair."""

    name: str
    old_sha: str = ""
    new_sha: str = ""
    points: List[PointVerdict] = field(default_factory=list)
    #: series present in NEW but not OLD (reported, never a failure).
    new_series: List[str] = field(default_factory=list)
    #: run metadata for triage (git SHA, python, platform, created_utc) —
    #: the report shows both sides so a regression can be attributed
    #: without reopening either artifact.
    old_meta: Dict[str, str] = field(default_factory=dict)
    new_meta: Dict[str, str] = field(default_factory=dict)

    @property
    def regressions(self) -> List[PointVerdict]:
        return [p for p in self.points if p.verdict == REGRESSION]

    @property
    def improvements(self) -> List[PointVerdict]:
        return [p for p in self.points if p.verdict == IMPROVEMENT]

    @property
    def verdict(self) -> str:
        if self.regressions:
            return REGRESSION
        if self.improvements:
            return IMPROVEMENT
        return NEUTRAL


def _check_schema(art: BenchArtifact, label: str) -> None:
    if art.schema != BENCH_SCHEMA:
        raise CompareError(
            f"{label} artifact {art.name!r} has schema {art.schema!r}, "
            f"this tool understands {BENCH_SCHEMA!r}; refusing to compare "
            "across schema versions (refresh the baseline instead)"
        )


def compare_artifacts(old: BenchArtifact, new: BenchArtifact) -> CompareResult:
    """Compare two artifacts of the same suite; raises CompareError on
    schema mismatch or data missing from NEW."""
    _check_schema(old, "OLD")
    _check_schema(new, "NEW")
    if old.name != new.name:
        raise CompareError(
            f"artifact names differ: OLD is {old.name!r}, NEW is {new.name!r}"
        )
    result = CompareResult(name=old.name, old_sha=old.git_sha,
                           new_sha=new.git_sha,
                           old_meta=_run_meta(old), new_meta=_run_meta(new))
    for sname, oseries in sorted(old.series.items()):
        nseries = new.series.get(sname)
        if nseries is None:
            raise CompareError(
                f"series {sname!r} is in the OLD {old.name!r} artifact but "
                "missing from NEW — a silently dropped measurement cannot "
                "pass the gate"
            )
        floor = max(oseries.noise_floor, nseries.noise_floor)
        for opoint in oseries.points:
            npoint = nseries.point(opoint.x)
            if npoint is None:
                raise CompareError(
                    f"point x={opoint.x!r} of series {sname!r} is missing "
                    f"from NEW {new.name!r}"
                )
            tol = max(DEFAULT_REL_TOL * abs(opoint.median),
                      DEFAULT_NOISE_MULT * (opoint.mad + npoint.mad),
                      floor)
            delta = npoint.median - opoint.median
            if oseries.direction == "lower_better":
                delta = -delta
            if delta < -tol:
                verdict = REGRESSION
            elif delta > tol:
                verdict = IMPROVEMENT
            else:
                verdict = NEUTRAL
            result.points.append(PointVerdict(
                series=sname, x=opoint.x, old=opoint.median,
                new=npoint.median, tol=tol, verdict=verdict,
                unit=oseries.unit,
            ))
    result.new_series = sorted(set(new.series) - set(old.series))
    return result


def _run_meta(art: BenchArtifact) -> Dict[str, str]:
    """The provenance stamp a triager needs next to each verdict."""
    return {
        "git_sha": art.git_sha,
        "python": art.python,
        "platform": art.platform,
        "created_utc": art.created_utc,
    }


def _meta_line(label: str, sha: str, meta: Dict[str, str]) -> str:
    sha = (meta.get("git_sha") or sha or "unknown")[:12]
    parts = [f"**{label}**: `{sha}`"]
    if meta.get("python"):
        parts.append(f"python {meta['python']}")
    if meta.get("platform"):
        parts.append(meta["platform"])
    if meta.get("created_utc"):
        parts.append(meta["created_utc"])
    return " · ".join(parts)


def _artifact_files(path: Path) -> List[Path]:
    return sorted(path.glob("BENCH_*.json"))


def compare_paths(
    old_path: Union[str, Path],
    new_path: Union[str, Path],
) -> Tuple[List[CompareResult], List[str]]:
    """Compare two ``BENCH_*.json`` files, or two directories of them.

    For directories, every artifact in OLD must have a same-named file in
    NEW; artifacts only in NEW are returned as the second element (new
    coverage is fine, lost coverage is a :class:`CompareError`).
    """
    old_path, new_path = Path(old_path), Path(new_path)
    for label, path in (("OLD", old_path), ("NEW", new_path)):
        if not path.exists():
            raise CompareError(f"{label} path {str(path)!r} does not exist")
    if old_path.is_dir() != new_path.is_dir():
        raise CompareError(
            "OLD and NEW must both be files or both be directories"
        )
    if not old_path.is_dir():
        return [compare_artifacts(BenchArtifact.load(old_path),
                                  BenchArtifact.load(new_path))], []
    old_files = _artifact_files(old_path)
    if not old_files:
        raise CompareError(
            f"no BENCH_*.json artifacts under OLD directory {str(old_path)!r}"
        )
    results = []
    for ofile in old_files:
        nfile = new_path / ofile.name
        if not nfile.exists():
            raise CompareError(
                f"baseline artifact {ofile.name} has no counterpart under "
                f"NEW directory {str(new_path)!r}"
            )
        results.append(compare_artifacts(BenchArtifact.load(ofile),
                                         BenchArtifact.load(nfile)))
    extra = sorted(f.name for f in _artifact_files(new_path)
                   if not (old_path / f.name).exists())
    return results, extra


_MARK = {REGRESSION: "✗", IMPROVEMENT: "✓", NEUTRAL: "·"}


def _fmt(value: float) -> str:
    return f"{value:.4g}"


def markdown_report(
    results: List[CompareResult],
    extra_artifacts: Optional[List[str]] = None,
) -> str:
    """A markdown compare report (what the CI job posts / archives)."""
    lines: List[str] = ["# Bench compare"]
    worst = NEUTRAL
    for res in results:
        if res.verdict == REGRESSION:
            worst = REGRESSION
        elif res.verdict == IMPROVEMENT and worst == NEUTRAL:
            worst = IMPROVEMENT
    total_reg = sum(len(r.regressions) for r in results)
    total_imp = sum(len(r.improvements) for r in results)
    total = sum(len(r.points) for r in results)
    lines.append("")
    lines.append(
        f"**Overall: {worst.upper()}** — {total} points compared, "
        f"{total_reg} regressed, {total_imp} improved."
    )
    for res in results:
        lines.append("")
        lines.append(f"## {res.name} — {res.verdict}")
        lines.append("")
        lines.append(_meta_line("OLD", res.old_sha, res.old_meta))
        lines.append(_meta_line("NEW", res.new_sha, res.new_meta))
        lines.append("")
        lines.append("| series | x | old | new | Δ% | tol | verdict |")
        lines.append("|---|---|---|---|---|---|---|")
        for p in res.points:
            lines.append(
                f"| {p.series} | {p.x} | {_fmt(p.old)} | {_fmt(p.new)} "
                f"| {p.delta_pct:+.1f}% | ±{_fmt(p.tol)} "
                f"| {_MARK[p.verdict]} {p.verdict} |"
            )
        if res.new_series:
            lines.append("")
            lines.append(
                "new series (no baseline): " + ", ".join(res.new_series)
            )
    if extra_artifacts:
        lines.append("")
        lines.append(
            "new artifacts (no baseline): " + ", ".join(extra_artifacts)
        )
    lines.append("")
    return "\n".join(lines)
