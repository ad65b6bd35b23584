"""The curated chaos matrix behind ``scr-repro chaos``.

One call runs two complementary sweeps and folds them into a single
``BENCH_chaos_recovery.json`` artifact:

* **functional rows** — :func:`repro.faults.harness.run_chaos` over a
  fixed set of fault classes × programs, asserting the properties the
  subsystem exists for: every injected history gap detected, state
  digests equal to the fault-free golden run after recovery, and the
  known-unrecoverable configurations reported as such (never silently
  wrong);
* **perf rows** — SCR MLFFR under rising injected drop rates through the
  ordinary Scenario/executor machinery, quantifying throughput
  degradation and the recovery work absorbed at the reported rate.

Determinism: the artifact is a pure function of (seed, quick) — the
provenance stamps that normally record wall-clock and platform are left
empty so ``--jobs 2`` and ``--jobs 1`` write byte-identical files (the
CI chaos-smoke job ``cmp``'s them).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..bench.figures import SCR_IN_FRAME
from ..cpu.costmodel import CPU_FREQ_GHZ, TABLE4_PARAMS
from ..perf.artifact import BenchArtifact, BenchPoint, BenchSeries
from ..perf.suite import _MPPS_NOISE_FLOOR
from ..scenario.executor import ScenarioExecutor
from ..scenario.spec import Scenario
from ..telemetry.artifact import current_git_sha
from .harness import ChaosOutcome, run_chaos
from .spec import FaultSpec

__all__ = ["ChaosMatrixParams", "ChaosRow", "ChaosReport", "fault_classes",
           "run_chaos_matrix"]

#: Drop rates for the MLFFR-degradation sweep (0 = the fault-free anchor).
DROP_RATE_SWEEP = (0.0, 0.005, 0.01, 0.02)


@dataclass(frozen=True)
class ChaosMatrixParams:
    """Everything that determines one matrix run (and its artifact)."""

    seed: int = 7
    jobs: int = 1
    quick: bool = True
    cache_dir: Optional[str] = None

    def __post_init__(self) -> None:
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {self.jobs}")

    @property
    def max_packets(self) -> int:
        return 800 if self.quick else 2000

    @property
    def perf_max_packets(self) -> int:
        return 1500 if self.quick else 3000


@dataclass(frozen=True)
class ChaosRow:
    """One functional matrix entry: a fault class applied to a program."""

    name: str
    program: str
    spec: FaultSpec
    #: run_chaos overrides (num_slots, recovery, ...).
    run_kwargs: Tuple[Tuple[str, object], ...] = ()
    #: what this row demonstrates (lands in the artifact config).
    expects: str = "recovered"


def fault_classes(seed: int) -> List[ChaosRow]:
    """The curated fault classes, each exercising one failure mode.

    Programs are spread across the rows so the quarantine→resync
    round-trip is demonstrated for at least three distinct programs.
    """
    return [
        ChaosRow(
            name="rx_drop", program="ddos",
            spec=FaultSpec.create(seed=seed, drop_rate=0.02),
            expects="recovered",
        ),
        ChaosRow(
            name="pop_drop", program="token_bucket",
            spec=FaultSpec.create(seed=seed, pop_drop_rate=0.02),
            expects="recovered",
        ),
        ChaosRow(
            # Depth 2 is the smallest harmful truncation: with n = k the
            # oldest row is outside every replica's needed window, so a
            # depth-1 readout failure is provably harmless.
            name="history_truncate", program="conntrack",
            spec=FaultSpec.create(seed=seed, truncate_rate=0.03,
                                  truncate_depth=2),
            expects="recovered",
        ),
        ChaosRow(
            name="dup_reorder", program="token_bucket",
            spec=FaultSpec.create(seed=seed, duplicate_rate=0.02,
                                  reorder_rate=0.02, reorder_window=3),
            expects="recovered",
        ),
        ChaosRow(
            # A widened history window (§3.1's n > k) heals the same drop
            # rate without a single resync.
            name="wide_history", program="heavy_hitter",
            spec=FaultSpec.create(seed=seed, drop_rate=0.02),
            run_kwargs=(("num_slots", 12),),
            expects="covered",
        ),
        ChaosRow(
            # A bounded sequencer log must *report* gaps it can no longer
            # replay, not hide them.
            name="bounded_log", program="ddos",
            spec=FaultSpec.create(seed=seed, drop_rate=0.02, epoch_len=64,
                                  history_log_capacity=8),
            expects="unrecoverable",
        ),
        ChaosRow(
            # The no-protocol baseline: gaps are still detected, replicas
            # fork — quantifying what recovery buys.
            name="no_recovery", program="ddos",
            spec=FaultSpec.create(seed=seed, drop_rate=0.02),
            run_kwargs=(("recovery", False),),
            expects="forked",
        ),
    ]


@dataclass
class ChaosReport:
    """The matrix verdict plus the artifact it was distilled into."""

    params: ChaosMatrixParams
    outcomes: Dict[str, ChaosOutcome] = field(default_factory=dict)
    artifact: Optional[BenchArtifact] = None
    mlffr_by_rate: Dict[str, float] = field(default_factory=dict)

    @property
    def gaps_injected(self) -> int:
        return sum(o.gap_events for o in self.outcomes.values())

    @property
    def gaps_detected(self) -> int:
        return sum(o.gap_events_detected for o in self.outcomes.values())

    @property
    def undetected_divergences(self) -> int:
        return sum(o.undetected_divergences for o in self.outcomes.values())

    @property
    def resynced_classes(self) -> List[str]:
        """Classes that resynchronized *and* ended digest-equal to golden."""
        return sorted(
            name for name, o in self.outcomes.items()
            if o.resyncs > 0 and o.digest_equal
        )

    @property
    def ok(self) -> bool:
        """The chaos gate: no missed gap, no silent fork, and at least
        one fault class demonstrating full state resynchronization."""
        return (
            self.gaps_detected == self.gaps_injected
            and self.undetected_divergences == 0
            and len(self.resynced_classes) >= 1
        )

    def summary_lines(self) -> List[str]:
        lines = [
            f"chaos matrix: {len(self.outcomes)} fault classes, "
            f"{self.gaps_injected} history gaps injected, "
            f"{self.gaps_detected} detected, "
            f"{self.undetected_divergences} undetected divergences",
        ]
        for name in sorted(self.outcomes):
            o = self.outcomes[name]
            state = ("digest-equal" if o.digest_equal
                     else f"forked ({len(o.suspect_cores)} suspect cores)")
            extras = []
            if o.resyncs:
                extras.append(f"{o.resyncs} resyncs")
            if o.gaps_covered:
                extras.append(f"{o.gaps_covered} window-covered")
            if o.unrecoverable_cores:
                extras.append(
                    f"{len(o.unrecoverable_cores)} unrecoverable cores"
                )
            suffix = f" ({', '.join(extras)})" if extras else ""
            lines.append(
                f"  {name:17s} [{o.program}] "
                f"gaps {o.gap_events_detected}/{o.gap_events} detected, "
                f"{state}{suffix}"
            )
        if self.mlffr_by_rate:
            base = self.mlffr_by_rate.get("0", 0.0)
            for rate, mpps in sorted(self.mlffr_by_rate.items(),
                                     key=lambda kv: float(kv[0])):
                change = (100.0 * (mpps - base) / base) if base else 0.0
                lines.append(
                    f"  mlffr @ drop={rate}: {mpps:.2f} Mpps"
                    f" ({change:+.1f}% vs fault-free)" if rate != "0"
                    else f"  mlffr @ drop=0: {mpps:.2f} Mpps (baseline)"
                )
        lines.append("chaos gate: " + ("PASS" if self.ok else "FAIL"))
        return lines


def _recovery_cycles(outcome: ChaosOutcome, program: str) -> float:
    """Mean resync latency in CPU cycles: replayed transitions × c2."""
    if not outcome.resync_replays:
        return 0.0
    c2 = TABLE4_PARAMS[program].c2
    return outcome.mean_resync_replay * c2 * CPU_FREQ_GHZ


def run_chaos_matrix(params: Optional[ChaosMatrixParams] = None) -> ChaosReport:
    """Run the curated matrix; see :class:`ChaosReport` for the verdict."""
    params = params or ChaosMatrixParams()
    report = ChaosReport(params=params)

    rows = fault_classes(params.seed)
    for row in rows:
        kwargs = dict(row.run_kwargs)
        report.outcomes[row.name] = run_chaos(
            row.program,
            row.spec,
            num_cores=4,
            max_packets=params.max_packets,
            trace_seed=params.seed,
            **kwargs,  # type: ignore[arg-type]
        )

    # -- perf sweep: MLFFR degradation vs drop rate ---------------------------
    program, trace, cores = "ddos", "univ_dc", 4
    grid = [
        Scenario.create(
            program, trace, "scr", cores,
            num_flows=30, max_packets=params.perf_max_packets,
            seed=params.seed, engine_kwargs=dict(SCR_IN_FRAME),
            faults=(None if rate == 0.0
                    else FaultSpec.create(seed=params.seed, drop_rate=rate)),
        )
        for rate in DROP_RATE_SWEEP
    ]
    executor = ScenarioExecutor(jobs=params.jobs, cache_dir=params.cache_dir)
    perf_results = executor.run(grid)

    # -- distill into the artifact --------------------------------------------
    # Constructed directly, NOT via BenchArtifact.create(): the wall-clock
    # and platform stamps are intentionally empty so repeated runs (and
    # serial-vs-parallel runs) write byte-identical files.
    art = BenchArtifact(
        name="chaos_recovery",
        config={
            "seed": params.seed,
            "quick": params.quick,
            "max_packets": params.max_packets,
            "perf_max_packets": params.perf_max_packets,
            "drop_rate_sweep": list(DROP_RATE_SWEEP),
            "classes": {
                row.name: {
                    "program": row.program,
                    "expects": row.expects,
                    "spec": row.spec.canonical_dict(),
                    "run_kwargs": {k: v for k, v in row.run_kwargs},
                    "outcome": report.outcomes[row.name].to_dict(),
                }
                for row in rows
            },
        },
        seed_policy={"base_seed": params.seed,
                     "policy": "single seeded run; fully deterministic"},
        git_sha=current_git_sha(),
        table4_params={},
    )
    detection = art.add_series(BenchSeries(
        name="gap_detection", unit="fraction", direction="higher_better"))
    equality = art.add_series(BenchSeries(
        name="digest_equality", unit="bool", direction="higher_better"))
    latency = art.add_series(BenchSeries(
        name="recovery_latency_cycles", unit="cycles",
        direction="lower_better"))
    for row in rows:
        o = report.outcomes[row.name]
        frac = (o.gap_events_detected / o.gap_events) if o.gap_events else 1.0
        detection.points.append(BenchPoint.from_reps(row.name, [frac]))
        equality.points.append(
            BenchPoint.from_reps(row.name, [1.0 if o.digest_equal else 0.0]))
        latency.points.append(
            BenchPoint.from_reps(row.name,
                                 [_recovery_cycles(o, row.program)]))

    mpps = art.add_series(BenchSeries(
        name="mlffr_vs_drop_rate", unit="mpps", direction="higher_better",
        noise_floor=_MPPS_NOISE_FLOOR))
    degradation = art.add_series(BenchSeries(
        name="mlffr_degradation_pct", unit="percent",
        direction="lower_better", noise_floor=2.0))
    base_mpps = perf_results[0].mlffr_mpps
    for rate, res in zip(DROP_RATE_SWEEP, perf_results):
        key = f"{rate:g}"
        mpps.points.append(BenchPoint.from_reps(key, [res.mlffr_mpps]))
        deg = (100.0 * (base_mpps - res.mlffr_mpps) / base_mpps
               if base_mpps else 0.0)
        degradation.points.append(BenchPoint.from_reps(key, [deg]))
        report.mlffr_by_rate[key] = res.mlffr_mpps

    report.artifact = art
    return report
