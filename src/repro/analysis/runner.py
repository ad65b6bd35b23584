"""Run the scrlint rules over files and render reports.

The pytest-importable API is :func:`lint_paths` (and :func:`lint_source`
for in-memory fixtures); the CLI's ``scr-repro lint`` is a thin wrapper.
Suppressed findings are counted, never silently dropped from the totals.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, List, Optional, Sequence, Tuple

from .findings import Finding, findings_to_json, render_finding
from .model import ModuleModel
from .rules import Rule, all_rules
from .suppressions import SuppressionIndex

__all__ = [
    "DEFAULT_LINT_PATHS",
    "LintReport",
    "lint_paths",
    "lint_source",
    "format_text",
    "format_json",
]

#: What CI lints when no paths are given: the program zoo (SCR001/2/3/5),
#: the scaling engines (SCR004), the scenario layer (SCR004 — the
#: multiprocess executor's serial-equivalence guarantee depends on the
#: same no-clocks/no-process-RNG/no-module-state hygiene), the
#: fault/recovery subsystem and the SCR-aware runtime that repairs
#: replicas for it (SCR006), and the span/SLO observability
#: layer (SCR004 + SCR006 — span sampling must stay pure-hash and the
#: SLO reducer side-effect free).
DEFAULT_LINT_PATHS: Tuple[str, ...] = (
    "src/repro/programs",
    "src/repro/parallel",
    "src/repro/scenario",
    "src/repro/faults",
    "src/repro/core/scr_aware.py",
    "src/repro/obs",
    "src/repro/hostprof",
    # The advisor stack lints itself: the dataflow classifier, the cost-
    # model advisor, the SARIF emitter, and the perf-layer glue are listed
    # as files (not the whole packages) because the rule registry and the
    # perf executors legitimately keep module state the engine-hygiene
    # rules would flag.
    "src/repro/analysis/dataflow.py",
    "src/repro/analysis/advisor.py",
    "src/repro/analysis/sarif.py",
    "src/repro/perf/advise.py",
    # The columnar hot path must satisfy the same replay-hygiene rules as
    # the engines it batches for (SCR004: no clocks, no process RNG).
    "src/repro/cpu/columnar.py",
    # Placement decisions feed the hybrid engine's routing, so the
    # classifier is held to the same determinism bar (SCR004).
    "src/repro/placement",
)


@dataclass
class LintReport:
    """Outcome of one lint run."""

    findings: List[Finding] = field(default_factory=list)
    suppressed: int = 0
    files_checked: int = 0

    @property
    def ok(self) -> bool:
        return not self.findings

    def merge(self, other: "LintReport") -> None:
        self.findings.extend(other.findings)
        self.suppressed += other.suppressed
        self.files_checked += other.files_checked


def lint_source(
    source: str,
    path: str = "<string>",
    rules: Optional[Sequence[Rule]] = None,
) -> LintReport:
    """Lint one source string (the unit the fixture tests drive)."""
    report = LintReport(files_checked=1)
    try:
        module = ModuleModel.from_source(path, source)
    except SyntaxError as exc:
        report.findings.append(Finding(
            path=path,
            line=exc.lineno or 1,
            col=(exc.offset or 1) - 1,
            rule="SCR000",
            symbol="",
            message=f"cannot parse: {exc.msg}",
        ))
        return report
    suppressions = SuppressionIndex(source)
    raw: List[Finding] = []
    for rule in rules if rules is not None else all_rules():
        raw.extend(rule.check(module))
    for finding in sorted(set(raw)):
        if suppressions.is_suppressed(finding):
            report.suppressed += 1
        else:
            report.findings.append(finding)
    return report


def iter_python_files(paths: Iterable[str]) -> List[Path]:
    """Expand files/directories into a sorted list of ``.py`` files."""
    out: List[Path] = []
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            out.extend(sorted(p for p in path.rglob("*.py")
                              if "__pycache__" not in p.parts))
        elif path.suffix == ".py" and path.exists():
            out.append(path)
        else:
            raise FileNotFoundError(f"no such file or directory: {raw!r}")
    # Stable order, duplicates removed.
    return sorted(dict.fromkeys(out))


def lint_paths(
    paths: Optional[Sequence[str]] = None,
    rules: Optional[Sequence[Rule]] = None,
) -> LintReport:
    """Lint files/directories (default: the shipped zoo + engines)."""
    files = iter_python_files(paths or DEFAULT_LINT_PATHS)
    report = LintReport()
    for file_path in files:
        source = file_path.read_text()
        report.merge(lint_source(source, path=str(file_path), rules=rules))
    report.findings.sort()
    return report


def format_text(report: LintReport) -> str:
    """Compiler-style lines plus a one-line summary."""
    lines = [render_finding(f) for f in report.findings]
    by_rule: dict = {}
    for f in report.findings:
        by_rule[f.rule] = by_rule.get(f.rule, 0) + 1
    if report.findings:
        breakdown = ", ".join(f"{r}: {n}" for r, n in sorted(by_rule.items()))
        summary = (f"{len(report.findings)} finding(s) [{breakdown}] in "
                   f"{report.files_checked} file(s)")
    else:
        summary = f"clean: {report.files_checked} file(s), 0 findings"
    if report.suppressed:
        summary += f" ({report.suppressed} suppressed)"
    lines.append(summary)
    return "\n".join(lines)


def format_json(report: LintReport) -> str:
    return findings_to_json(
        report.findings,
        files_checked=report.files_checked,
        suppressed=report.suppressed,
    )
