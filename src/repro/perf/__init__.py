"""Performance-regression observability: bench artifacts, compare gate,
the curated benchmark suite.

The measure-then-validate loop (Appendix A / Figure 11) as infrastructure:
``repro.perf.suite`` runs the curated benchmark suite and writes
schema-versioned ``BENCH_<name>.json`` artifacts (median + MAD over
seeded repetitions, full provenance); ``repro.perf.compare`` diffs two
artifacts with noise-aware thresholds so CI can gate on regressions.
Each point's per-core split comes from
:func:`repro.telemetry.attribution_from_snapshot` and its residual
against the analytic model from :func:`repro.bench.model.model_residuals`.
See ``docs/BENCHMARKS.md``.
"""

from .artifact import (
    BENCH_SCHEMA,
    BenchArtifact,
    BenchPoint,
    BenchSeries,
    bench_filename,
    mad,
    median,
)
from .compare import (
    IMPROVEMENT,
    NEUTRAL,
    REGRESSION,
    CompareError,
    CompareResult,
    PointVerdict,
    compare_artifacts,
    compare_paths,
    markdown_report,
)
from .suite import (
    BASE_SEED,
    SUITES,
    SuiteParams,
    run_all_suites,
    run_suite,
    suite_names,
)

__all__ = [
    "BENCH_SCHEMA",
    "BenchArtifact",
    "BenchPoint",
    "BenchSeries",
    "bench_filename",
    "median",
    "mad",
    "CompareError",
    "CompareResult",
    "PointVerdict",
    "compare_artifacts",
    "compare_paths",
    "markdown_report",
    "REGRESSION",
    "IMPROVEMENT",
    "NEUTRAL",
    "BASE_SEED",
    "SUITES",
    "SuiteParams",
    "run_suite",
    "run_all_suites",
    "suite_names",
]
