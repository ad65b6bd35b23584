"""The curated perf suite: the runs whose numbers must not silently move.

Ten suites, each writing one ``BENCH_<name>.json`` artifact:

* ``fig6_scaling``   — the Figure 6 main-result panel (ddos @ caida, all
  four techniques vs cores), plus the SCR series' Appendix A residuals
  and a per-core cycle-attribution profile at the top SCR point;
* ``engine_mlffr``   — per-technique MLFFR across three programs at a
  fixed core count (the per-engine throughput floor);
* ``tail_latency``   — per-packet sojourn percentiles at MLFFR for SCR
  vs shared state;
* ``fig11_model_fit``— measured SCR throughput vs the analytic model,
  with the absolute residual as a gateable series;
* ``faults_recovery``— MLFFR under the chaos fault regime (injected
  drops + recovery) vs the drop-rate sweep;
* ``obs_overhead``   — span tracing's throughput cost: a zero-tolerance
  gate that the traced MLFFR equals the untraced MLFFR exactly, the
  deterministic kept-span volume and artifact size, and a host CPU-time
  traced ÷ untraced ratio with a hard ceiling;
* ``hostwall``       — packets per host wall-second per stack stage
  (synthesis, lowering, simulation, the full MLFFR search) via
  ``repro.hostprof``.  A suite measuring *host* time: values are
  machine-dependent, so its baseline lives apart and is gated with the
  loose wall-noise policy in docs/PROFILING.md;
* ``hotpath``        — the columnar hot path vs the scalar oracle on the
  same run: per-stage host wall throughput for both modes plus the
  ``speedup`` ratio (docs/HOTPATH.md).  Host time like ``hostwall``, so
  its baseline also lives in ``benchmarks/baselines-hostwall/`` under
  the loose wall-noise gate;
* ``advisor_validation`` — the scradvisor loop closed: for every
  registered program, measure each eligible technique's MLFFR and gate
  that the advisor's statically predicted winner (``scr-repro advise``)
  is measurement-optimal (docs/ADVISOR.md);
* ``multitenant``    — the hybrid placement engine vs both purebreds
  (pure SCR, pure RSS) across a 10^3→10^6 Zipf-skewed flow-count sweep
  at a fixed core count: aggregate MLFFR and p99 sojourn per technique,
  the deterministic promotion count, and a ``hybrid_wins`` gate that
  hybrid stays measurement-optimal at every flow count
  (docs/MULTITENANT.md).

Every point is the **median of k repetitions**; repetition ``i``
re-synthesizes the workload with ``seed = base_seed + i`` (engine seeds
stay fixed), so the recorded MAD measures workload-sampling noise — the
scale the compare gate's thresholds are calibrated against.  With the
same seeds and code, a repeat run reproduces every value exactly: the
simulator is deterministic.

Each suite expands its grid into frozen :class:`~repro.scenario.Scenario`
specs and runs them through one :class:`~repro.scenario.ScenarioExecutor`,
so ``jobs > 1`` fans the repetitions out over worker processes — with
artifacts bit-identical to the serial run (the executor's determinism
guarantee), which the perf-regression compare gate relies on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from ..bench.figures import SCR_IN_FRAME
from ..bench.mlffr import SEARCH_TOLERANCE_PPS
from ..hostprof.clock import NULL_HOSTPROF, PhaseClock
from ..scenario.build import ScenarioResult
from ..scenario.executor import ScenarioExecutor
from ..scenario.spec import Scenario
from .artifact import BenchArtifact, BenchPoint, BenchSeries
from .profiler import model_residuals

__all__ = [
    "BASE_SEED",
    "SuiteParams",
    "SUITES",
    "suite_names",
    "run_suite",
    "run_all_suites",
    "SuiteGateError",
    "TRACED_CPU_CEILING",
]

#: The pinned trace-synthesis base seed — must match
#: ``benchmarks/conftest.BENCH_BASE_SEED`` (asserted by the test suite).
BASE_SEED = 7

#: ±0.4 Mpps: the MLFFR binary search stops inside this window (§4.1), so
#: throughput differences below it are quantization, not signal.
_MPPS_NOISE_FLOOR = SEARCH_TOLERANCE_PPS / 1e6

ALL_TECHNIQUES = ("scr", "shared", "rss", "rss++")


@dataclass(frozen=True)
class SuiteParams:
    """Knobs shared by every suite run.

    ``jobs``/``cache_dir`` control *how* a suite runs (worker processes,
    on-disk workload cache) — never *what* it measures; artifacts are
    identical for any setting.
    """

    reps: int = 3
    base_seed: int = BASE_SEED
    quick: bool = True
    jobs: int = 1
    cache_dir: Optional[str] = None
    #: host wall-clock sink threaded through the executor (disabled
    #: singleton by default; never affects measured values).
    hostprof: PhaseClock = NULL_HOSTPROF

    @property
    def max_packets(self) -> int:
        return 1500 if self.quick else 3000

    @property
    def num_flows(self) -> int:
        return 40 if self.quick else 50

    @property
    def cores(self) -> Tuple[int, ...]:
        return (1, 2, 4) if self.quick else (1, 2, 4, 7)

    @property
    def rep_seeds(self) -> List[int]:
        return [self.base_seed + i for i in range(self.reps)]

    def seed_policy(self) -> dict:
        return {
            "base_seed": self.base_seed,
            "rep_seeds": self.rep_seeds,
            "policy": (
                "repetition i re-synthesizes the workload with "
                "seed = base_seed + i; engine RNG seeds stay fixed, so a "
                "repeat run with the same code reproduces every value"
            ),
        }

    def scenario(
        self,
        program: str,
        trace: str,
        technique: str,
        cores: int,
        *,
        seed: int,
        engine_kwargs: Optional[dict] = None,
        collect_latency: bool = False,
        profile: bool = False,
        faults: Optional[object] = None,
    ) -> Scenario:
        """One suite measurement as a frozen spec."""
        return Scenario.create(
            program,
            trace,
            technique,
            cores,
            num_flows=self.num_flows,
            max_packets=self.max_packets,
            seed=seed,
            engine_kwargs=engine_kwargs,
            collect_latency=collect_latency,
            profile=profile,
            faults=faults,  # type: ignore[arg-type]
        )

    def executor(self) -> ScenarioExecutor:
        return ScenarioExecutor(jobs=self.jobs, cache_dir=self.cache_dir,
                                hostprof=self.hostprof)

    def config(self, **extra) -> dict:
        cfg = {
            "reps": self.reps,
            "quick": self.quick,
            "max_packets": self.max_packets,
            "num_flows": self.num_flows,
        }
        cfg.update(extra)
        return cfg


def _mpps_series(name: str) -> BenchSeries:
    return BenchSeries(name=name, unit="mpps", direction="higher_better",
                       noise_floor=_MPPS_NOISE_FLOOR)


def _engine_kwargs(technique: str) -> Optional[dict]:
    if technique in ("scr", "relaxed_scr"):
        return dict(SCR_IN_FRAME)
    return None


# -- suites ---------------------------------------------------------------------


def run_fig6_scaling(params: SuiteParams) -> BenchArtifact:
    """Figure 6 panel: ddos @ caida, four techniques vs cores."""
    program, trace = "ddos", "caida"
    art = BenchArtifact.create(
        "fig6_scaling",
        config=params.config(program=program, trace=trace,
                             cores=list(params.cores),
                             techniques=list(ALL_TECHNIQUES)),
        seed_policy=params.seed_policy(),
        programs=[program],
    )
    top_cores = max(params.cores)
    grid = [
        params.scenario(
            program, trace, technique, cores, seed=seed,
            engine_kwargs=_engine_kwargs(technique),
            # Cycle attribution at the top SCR point, first repetition.
            profile=(technique == "scr" and cores == top_cores
                     and seed == params.base_seed),
        )
        for technique in ALL_TECHNIQUES
        for cores in params.cores
        for seed in params.rep_seeds
    ]
    results: Iterator[ScenarioResult] = iter(params.executor().run(grid))
    for technique in ALL_TECHNIQUES:
        series = art.add_series(_mpps_series(technique))
        for cores in params.cores:
            reps = []
            for _seed in params.rep_seeds:
                res = next(results)
                reps.append(res.mlffr_mpps)
                if res.profile is not None:
                    art.profile = res.profile
            series.points.append(BenchPoint.from_reps(cores, reps))
    scr = art.series["scr"]
    art.model_fit = {
        "program": program,
        "series": "scr",
        "residuals": model_residuals(
            program, [(p.x, p.median) for p in scr.points]
        ),
    }
    return art


def run_engine_mlffr(params: SuiteParams) -> BenchArtifact:
    """Per-technique MLFFR across programs at a fixed core count."""
    trace, cores = "univ_dc", 4
    programs = ("ddos", "token_bucket", "conntrack")
    art = BenchArtifact.create(
        "engine_mlffr",
        config=params.config(programs=list(programs), trace=trace,
                             cores=cores, techniques=list(ALL_TECHNIQUES)),
        seed_policy=params.seed_policy(),
        programs=programs,
    )
    grid = [
        params.scenario(program, trace, technique, cores, seed=seed,
                        engine_kwargs=_engine_kwargs(technique))
        for technique in ALL_TECHNIQUES
        for program in programs
        for seed in params.rep_seeds
    ]
    results = iter(params.executor().run(grid))
    for technique in ALL_TECHNIQUES:
        series = art.add_series(_mpps_series(technique))
        for program in programs:
            reps = [next(results).mlffr_mpps for _ in params.rep_seeds]
            series.points.append(BenchPoint.from_reps(program, reps))
    return art


#: ~9 % per-bucket width of the log-bucketed latency histogram — the
#: resolution floor of any percentile it reports.
_LATENCY_REL_FLOOR = 0.09


def run_tail_latency(params: SuiteParams) -> BenchArtifact:
    """Sojourn-time percentiles at MLFFR: SCR vs shared state."""
    program, trace, cores = "ddos", "caida", 4
    percentiles = ("p50", "p90", "p99", "p99_9")
    techniques = ("scr", "shared")
    art = BenchArtifact.create(
        "tail_latency",
        config=params.config(program=program, trace=trace, cores=cores,
                             techniques=list(techniques)),
        seed_policy=params.seed_policy(),
        programs=[program],
    )
    grid = [
        params.scenario(program, trace, technique, cores, seed=seed,
                        engine_kwargs=_engine_kwargs(technique),
                        collect_latency=True)
        for technique in techniques
        for seed in params.rep_seeds
    ]
    results = iter(params.executor().run(grid))
    for technique in techniques:
        rep_pcts = [next(results).latency_ns or {} for _ in params.rep_seeds]
        # p99 latency is noisy by nature; floor at one histogram bucket of
        # the largest observed median so bucket-edge flips stay neutral.
        top = max((pct.get("p99_9", 0.0) for pct in rep_pcts), default=0.0)
        series = art.add_series(BenchSeries(
            name=f"{technique}_latency", unit="ns", direction="lower_better",
            noise_floor=top * _LATENCY_REL_FLOOR,
        ))
        for key in percentiles:
            reps = [pct.get(key, 0.0) for pct in rep_pcts]
            series.points.append(BenchPoint.from_reps(key, reps))
    return art


def run_fig11_model_fit(params: SuiteParams) -> BenchArtifact:
    """Measured SCR throughput vs the Appendix A analytic prediction."""
    program, trace = "token_bucket", "caida"
    art = BenchArtifact.create(
        "fig11_model_fit",
        config=params.config(program=program, trace=trace,
                             cores=list(params.cores)),
        seed_policy=params.seed_policy(),
        programs=[program],
    )
    grid = [
        params.scenario(program, trace, "scr", cores, seed=seed,
                        engine_kwargs=dict(SCR_IN_FRAME))
        for cores in params.cores
        for seed in params.rep_seeds
    ]
    results = iter(params.executor().run(grid))
    measured = art.add_series(_mpps_series("scr"))
    for cores in params.cores:
        reps = [next(results).mlffr_mpps for _ in params.rep_seeds]
        measured.points.append(BenchPoint.from_reps(cores, reps))
    residuals = model_residuals(
        program, [(p.x, p.median) for p in measured.points]
    )
    art.model_fit = {"program": program, "series": "scr",
                     "residuals": residuals}
    # Gateable view of model drift: |residual| per core count.  Within the
    # MLFFR search window the measurement sits up to ~5 % above analytic
    # capacity, so drift below that is methodology, not regression.
    drift = art.add_series(BenchSeries(
        name="abs_model_residual", unit="fraction",
        direction="lower_better", noise_floor=0.05,
    ))
    for cores_str, row in residuals.items():
        drift.points.append(BenchPoint.from_reps(
            int(cores_str), [abs(row["residual"])]
        ))
    return art


#: Injected wire→ring drop rates for the fault-tolerance suite.  The top
#: rate matches Figure 10b's harshest injected-loss point.
_FAULT_DROP_RATES = (0.0, 0.005, 0.01, 0.02)


def run_faults_recovery(params: SuiteParams) -> BenchArtifact:
    """SCR MLFFR and recovery cost as the injected drop rate rises.

    One program (ddos @ univ_dc, 4 cores) swept over drop rates; the
    ``mpps`` series gates throughput under faults, ``resyncs_at_mlffr``
    gates how much recovery work the reported rate absorbed (a change
    means the gap-recovery cost model moved).
    """
    from ..faults.spec import FaultSpec

    program, trace, cores = "ddos", "univ_dc", 4
    art = BenchArtifact.create(
        "faults_recovery",
        config=params.config(program=program, trace=trace, cores=cores,
                             drop_rates=list(_FAULT_DROP_RATES)),
        seed_policy=params.seed_policy(),
        programs=[program],
    )
    grid = [
        params.scenario(
            program, trace, "scr", cores, seed=seed,
            engine_kwargs=_engine_kwargs("scr"),
            faults=(None if rate == 0.0
                    else FaultSpec.create(seed=params.base_seed, drop_rate=rate)),
        )
        for rate in _FAULT_DROP_RATES
        for seed in params.rep_seeds
    ]
    results = iter(params.executor().run(grid))
    mpps = art.add_series(_mpps_series("mpps"))
    resyncs = art.add_series(BenchSeries(
        name="resyncs_at_mlffr", unit="count", direction="lower_better",
    ))
    for rate in _FAULT_DROP_RATES:
        rate_key = f"{rate:g}"
        mpps_reps, resync_reps = [], []
        for _seed in params.rep_seeds:
            res = next(results)
            mpps_reps.append(res.mlffr_mpps)
            stats = res.fault_stats or {}
            resync_reps.append(float(stats.get("resyncs", 0)))
        mpps.points.append(BenchPoint.from_reps(rate_key, mpps_reps))
        resyncs.points.append(BenchPoint.from_reps(rate_key, resync_reps))
    return art


#: Sampling rate the traced obs_overhead twin runs at (~1 in 20 packets).
_TRACE_SAMPLE_RATE = 0.05

#: Ceiling on ``traced_cpu_ratio``: a traced search (telemetry, spans,
#: artifact write) may cost at most this many untraced searches.
TRACED_CPU_CEILING = 8.0

#: Timed (untraced, traced) pairs per point for ``traced_cpu_ratio``.
_CPU_PAIRS = 7


class SuiteGateError(RuntimeError):
    """A suite's own hard gate failed (its artifact is still written)."""

    def __init__(self, message: str, artifact: BenchArtifact) -> None:
        super().__init__(message)
        self.artifact = artifact


def run_obs_overhead(params: SuiteParams) -> BenchArtifact:
    """Span tracing must be observational: the traced MLFFR equals the
    untraced MLFFR *exactly* (the simulator's clock never moves for a
    span), so ``traced_delta_mpps`` gates at zero tolerance — any nonzero
    delta means instrumentation leaked into the cost model.  The
    ``untraced_mpps`` series doubles as a plain perf gate on the same
    grid; ``span_events`` pins the deterministic volume of spans the
    artifact keeps (passing probes only) and ``artifact_mb`` its size.

    Watching must also be cheap: ``traced_cpu_ratio`` is the process CPU
    time of a traced search plus its artifact write over an untraced
    search of the same scenario, the median over :data:`_CPU_PAIRS`
    back-to-back pairs (in-process).  CPU time, not wall time, so other
    load on a shared host does not count against either side, and a
    ratio per pair, so a host that changes speed between pairs moves
    both of its sides.  Host time is still noisy, so compare never flags
    it (its noise floor is the ceiling); instead the suite raises
    :class:`SuiteGateError` when any point exceeds
    :data:`TRACED_CPU_CEILING`.
    """
    import tempfile
    import time
    from pathlib import Path

    from ..obs import SpanEmitter, SpanSampler
    from ..obs.spans import SPAN_PREFIX
    from ..scenario.build import StackBuilder, run_scenario
    from ..telemetry.artifact import Telemetry

    program, trace, technique = "ddos", "univ_dc", "scr"
    art = BenchArtifact.create(
        "obs_overhead",
        config=params.config(program=program, trace=trace,
                             technique=technique, cores=list(params.cores),
                             trace_sample=_TRACE_SAMPLE_RATE),
        seed_policy=params.seed_policy(),
        programs=[program],
    )
    grid = [
        params.scenario(program, trace, technique, cores, seed=seed,
                        engine_kwargs=_engine_kwargs(technique))
        for cores in params.cores
        for seed in params.rep_seeds
    ]
    results = iter(params.executor().run(grid))
    untraced = art.add_series(_mpps_series("untraced_mpps"))
    base_mpps: Dict[int, float] = {}
    for cores in params.cores:
        reps = []
        for seed in params.rep_seeds:
            res = next(results)
            reps.append(res.mlffr_mpps)
            if seed == params.base_seed:
                base_mpps[cores] = res.mlffr_mpps
        untraced.points.append(BenchPoint.from_reps(cores, reps))

    # Traced twins: the identical base-seed scenarios, spans enabled,
    # run in-process (span rings never cross workers by design).
    delta = art.add_series(BenchSeries(
        name="traced_delta_mpps", unit="mpps", direction="lower_better",
        noise_floor=0.0,
    ))
    span_counts = art.add_series(BenchSeries(
        name="span_events", unit="count", direction="higher_better",
        noise_floor=0.0,
    ))
    sizes = art.add_series(BenchSeries(
        name="artifact_mb", unit="MB", direction="lower_better",
        noise_floor=0.01,
    ))
    ratios = art.add_series(BenchSeries(
        name="traced_cpu_ratio", unit="x", direction="lower_better",
        noise_floor=TRACED_CPU_CEILING,
    ))
    builder = StackBuilder()

    def plain_search(scenario: Scenario) -> float:
        t0 = time.process_time()
        run_scenario(scenario, builder=builder)
        return time.process_time() - t0

    def traced_search(scenario: Scenario, out: Path
                      ) -> Tuple[float, ScenarioResult, Telemetry]:
        tele = Telemetry()
        tele.spans = SpanEmitter(
            tele.tracer, SpanSampler(params.base_seed, _TRACE_SAMPLE_RATE))
        t0 = time.process_time()
        res = run_scenario(scenario, builder=builder, telemetry=tele)
        tele.write_artifact(out, command="bench obs_overhead",
                            num_cores=scenario.cores)
        return time.process_time() - t0, res, tele

    with tempfile.TemporaryDirectory() as tmp:
        for cores in params.cores:
            scenario = params.scenario(program, trace, technique, cores,
                                       seed=params.base_seed,
                                       engine_kwargs=_engine_kwargs(technique))
            out = Path(tmp) / f"cores{cores}"
            plain_search(scenario)  # warm the builder's trace cache
            pair_ratios = []
            for _ in range(_CPU_PAIRS):
                plain_s = plain_search(scenario)
                traced_s, res, tele = traced_search(scenario, out)
                pair_ratios.append(traced_s / plain_s)
            delta.points.append(BenchPoint.from_reps(
                cores, [res.mlffr_mpps - base_mpps[cores]]
            ))
            kept = sum(1 for e in tele.tracer.events()
                       if e.kind.startswith(SPAN_PREFIX))
            span_counts.points.append(BenchPoint.from_reps(cores, [float(kept)]))
            size = sum(f.stat().st_size for f in out.iterdir())
            sizes.points.append(BenchPoint.from_reps(cores, [size / 1e6]))
            ratios.points.append(BenchPoint.from_reps(cores, pair_ratios))
    worst = max(ratios.points, key=lambda p: p.median)
    if worst.median > TRACED_CPU_CEILING:
        raise SuiteGateError(
            f"obs_overhead: a traced search took {worst.median:.1f}x the "
            f"untraced one's CPU time at {worst.x} cores (ceiling "
            f"{TRACED_CPU_CEILING:g}x)", art)
    return art


def run_hostwall(params: SuiteParams) -> BenchArtifact:
    """Packets per host wall-second for each stack stage (repro.hostprof).

    Each repetition runs one full MLFFR point with an enabled PhaseClock
    and derives stage walls from the phase tree: ``synthesize`` and
    ``lower`` process the trace once, ``simulate``/``mlffr`` process
    ``iterations x max_packets`` offered packets across the search's
    probes.  ``wall_kpps`` is absolute host throughput (machine-
    dependent: gate only with the loose policy in docs/PROFILING.md);
    ``wall_share`` is each stage's fraction of the scenario's total wall
    — roughly machine-portable, with a wide 0.15 noise floor.

    Simulated results are untouched by profiling (the determinism tests
    pin this), so this suite never perturbs the other six.
    """
    from ..hostprof.clock import PATH_SEP
    from ..scenario.build import StackBuilder, run_scenario

    program, trace, technique, cores = "ddos", "univ_dc", "scr", 4
    stage_paths = {
        "synthesize": PATH_SEP.join(("scenario.run", "trace.synthesize")),
        "lower": PATH_SEP.join(("scenario.run", "perf.lower")),
        "simulate": PATH_SEP.join(("scenario.run", "mlffr.search", "sim.run")),
        "mlffr": PATH_SEP.join(("scenario.run", "mlffr.search")),
    }
    stages = list(stage_paths)
    art = BenchArtifact.create(
        "hostwall",
        config=params.config(program=program, trace=trace,
                             technique=technique, cores=cores,
                             stages=stages,
                             note="host wall time; values are "
                                  "machine-dependent by design"),
        seed_policy=params.seed_policy(),
        programs=[program],
    )
    kpps_reps: Dict[str, List[float]] = {s: [] for s in stages}
    share_reps: Dict[str, List[float]] = {s: [] for s in stages}
    for seed in params.rep_seeds:
        clock = PhaseClock(enabled=True)
        # No disk cache: every repetition measures real synthesis/lowering.
        builder = StackBuilder(hostprof=clock)
        scenario = params.scenario(program, trace, technique, cores,
                                   seed=seed,
                                   engine_kwargs=_engine_kwargs(technique))
        res = run_scenario(scenario, builder=builder)
        snap = clock.snapshot()
        total_ns = max(snap["scenario.run"]["total_ns"], 1)
        probe_packets = res.iterations * params.max_packets
        for stage, path in stage_paths.items():
            wall_ns = max(snap.get(path, {}).get("total_ns", 0), 1)
            packets = (probe_packets if stage in ("simulate", "mlffr")
                       else params.max_packets)
            kpps_reps[stage].append(packets / (wall_ns / 1e9) / 1e3)
            share_reps[stage].append(wall_ns / total_ns)
    kpps = art.add_series(BenchSeries(
        name="wall_kpps", unit="kpps", direction="higher_better"))
    share = art.add_series(BenchSeries(
        name="wall_share", unit="fraction", direction="lower_better",
        noise_floor=0.15))
    for stage in stages:
        kpps.points.append(BenchPoint.from_reps(stage, kpps_reps[stage]))
        share.points.append(BenchPoint.from_reps(stage, share_reps[stage]))
    return art


#: Inner simulate() repetitions per timed hotpath measurement — smooths
#: scheduler jitter on the sub-10 ms columnar runs.
_HOTPATH_SIM_INNER = 3

#: Fixed trace length for the hotpath suite (independent of ``quick``):
#: long enough that per-call fixed overhead amortizes and the measured
#: ratio reflects the per-packet asymptote the acceptance floor gates.
_HOTPATH_PACKETS = 6000


def run_hotpath(params: SuiteParams) -> BenchArtifact:
    """Columnar hot path vs the scalar oracle: host wall throughput.

    One underload SCR run (ddos @ univ_dc, 4 cores — rings never back
    up, so the columnar driver commits rather than falling back), timed
    per stage and per mode on the *same* synthesized workload:

    * ``scalar_kpps`` / ``columnar_kpps`` — packets per host wall-second
      through packet lowering (``PerfTrace.from_trace``) and the
      fixed-rate ``simulate`` call.  Host time: machine-dependent, gated
      only with the loose wall-noise policy (docs/PROFILING.md);
    * ``speedup`` — scalar wall / columnar wall per stage.  A ratio of
      walls on one machine, so roughly machine-portable; the acceptance
      floor for the columnar path (docs/HOTPATH.md) gates here.

    Parity is not measured here — the hotpath test suite pins it
    bit-for-bit; this suite only watches the speed stay won.
    """
    import time

    from ..cpu.simulator import PerfTrace, simulate
    from ..parallel.registry import make_engine
    from ..programs.registry import make_program
    from ..scenario.build import build_trace
    from ..scenario.spec import TraceSpec, packet_size_for

    program, trace, technique, cores = "ddos", "univ_dc", "scr", 4
    rate_pps = 2e6
    stages = ("lower", "simulate")
    art = BenchArtifact.create(
        "hotpath",
        config=params.config(program=program, trace=trace,
                             technique=technique, cores=cores,
                             rate_pps=rate_pps, stages=list(stages),
                             sim_inner=_HOTPATH_SIM_INNER,
                             hotpath_packets=_HOTPATH_PACKETS,
                             note="host wall time; values are "
                                  "machine-dependent by design"),
        seed_policy=params.seed_policy(),
        programs=[program],
    )
    prog = make_program(program)
    engine = make_engine(technique, prog, cores, **SCR_IN_FRAME)
    walls: Dict[Tuple[str, str], List[float]] = {
        (mode, stage): [] for mode in ("scalar", "columnar") for stage in stages
    }
    packets = 0
    for rep, seed in enumerate(params.rep_seeds):
        spec = TraceSpec(trace, num_flows=params.num_flows,
                         max_packets=_HOTPATH_PACKETS, seed=seed,
                         packet_size=packet_size_for(program))
        raw = build_trace(spec)
        for mode in ("scalar", "columnar"):
            if rep == 0:
                # Warm code paths and the cached Toeplitz tables so the
                # first repetition doesn't pay one-time setup.
                simulate(PerfTrace.from_trace(raw, prog, hotpath=mode),
                         rate_pps, engine, hotpath=mode)
            t0 = time.perf_counter()
            pt = PerfTrace.from_trace(raw, prog, hotpath=mode)
            walls[(mode, "lower")].append(time.perf_counter() - t0)
            t0 = time.perf_counter()
            for _ in range(_HOTPATH_SIM_INNER):
                simulate(pt, rate_pps, engine, hotpath=mode)
            walls[(mode, "simulate")].append(
                (time.perf_counter() - t0) / _HOTPATH_SIM_INNER)
            packets = len(pt)
    for mode in ("scalar", "columnar"):
        series = art.add_series(BenchSeries(
            name=f"{mode}_kpps", unit="kpps", direction="higher_better"))
        for stage in stages:
            series.points.append(BenchPoint.from_reps(
                stage, [packets / w / 1e3 for w in walls[(mode, stage)]]))
    speedup = art.add_series(BenchSeries(
        name="speedup", unit="x", direction="higher_better"))
    for stage in stages:
        speedup.points.append(BenchPoint.from_reps(stage, [
            s / c for s, c in zip(walls[("scalar", stage)],
                                  walls[("columnar", stage)])
        ]))
    return art


#: Measured-vs-predicted winners may differ by quantization and model
#: slack; within 5 % of the best technique the advisor is "right enough"
#: (the MLFFR search itself stops within ~5 % of analytic capacity).
_AGREEMENT_REL_TOL = 0.05


def run_advisor_validation(params: SuiteParams) -> BenchArtifact:
    """The advisor's predicted winner vs the measured one, every program.

    For each registered program, measure the MLFFR of every technique the
    advisor considers eligible (relaxed SCR only where its merged-delta
    history is sound — elsewhere it degenerates to strict SCR and would
    measure the same number twice) at the top core count, then gate that
    the technique the advisor recommends is measurement-optimal within
    :data:`_AGREEMENT_REL_TOL`.  The ``agreement`` series is the gate: a
    point dropping from 1 to 0 means a code change broke either the
    static classification, the analytic cost model, or an engine.
    """
    from ..programs.registry import program_names
    from .advise import advise_programs, measured_techniques

    trace = "univ_dc"
    programs = tuple(program_names())
    cores = max(params.cores)
    advices = {
        a.program: a
        for a in advise_programs(
            programs,
            workload=trace,
            num_flows=params.num_flows,
            max_packets=params.max_packets,
            seed=params.base_seed,
            cores=params.cores,
        )
    }
    techniques = {p: measured_techniques(advices[p].facts) for p in programs}
    art = BenchArtifact.create(
        "advisor_validation",
        config=params.config(
            trace=trace,
            cores=cores,
            agreement_rel_tol=_AGREEMENT_REL_TOL,
            predicted={p: advices[p].recommended for p in programs},
            measured_techniques={p: list(techniques[p]) for p in programs},
        ),
        seed_policy=params.seed_policy(),
        programs=programs,
    )
    grid = [
        params.scenario(program, trace, technique, cores, seed=seed,
                        engine_kwargs=_engine_kwargs(technique))
        for program in programs
        for technique in techniques[program]
        for seed in params.rep_seeds
    ]
    results = iter(params.executor().run(grid))
    # Per-technique Mpps series (points keyed by program), in a stable
    # presentation order; filled in grid order below.
    order = ("scr", "relaxed_scr", "rss", "shared")
    mpps = {t: _mpps_series(t) for t in order}
    measured: Dict[str, Dict[str, float]] = {}
    for program in programs:
        measured[program] = {}
        for technique in techniques[program]:
            reps = [next(results).mlffr_mpps for _ in params.rep_seeds]
            point = BenchPoint.from_reps(program, reps)
            mpps[technique].points.append(point)
            measured[program][technique] = point.median
    for t in order:
        if mpps[t].points:
            art.add_series(mpps[t])
    agreement = art.add_series(BenchSeries(
        name="agreement", unit="bool", direction="higher_better",
        noise_floor=0.0,
    ))
    for program in programs:
        meds = measured[program]
        best = max(meds.values())
        recommended = advices[program].recommended
        agrees = meds[recommended] >= (
            best * (1 - _AGREEMENT_REL_TOL) - _MPPS_NOISE_FLOOR
        )
        agreement.points.append(BenchPoint.from_reps(program, [float(agrees)]))
    return art


#: Multitenant suite operating point.  The grid is pinned (independent
#: of ``quick``, like the hotpath trace length): the hybrid-vs-purebred
#: claim is about flow-count *scaling*, so the full 10^3→10^6 span is
#: the measurement — trimming it in quick mode would gut the committed
#: baseline's acceptance point (>= 10^5 flows).
_MULTITENANT_FLOWS = (1_000, 10_000, 100_000, 1_000_000)

#: Eight cores: the operating point where per-flow placement pays.  At
#: small k the (k-1)·c2 fast-forward that pure SCR wastes on mice is of
#: the same order as the hybrid's classifier probe, so the comparison
#: would gate on a quantization-level margin; at k=8 the saved history
#: replay dominates and the hybrid's win clears the MLFFR noise floor
#: at every flow count.
_MULTITENANT_CORES = 8

#: Trace window per measurement (matches the quick suites' 1500: the
#: classifier thresholds below are calibrated against this window).
_MULTITENANT_PACKETS = 1500

_MULTITENANT_TECHNIQUES = ("hybrid", "scr", "rss")


def run_multitenant(params: SuiteParams) -> BenchArtifact:
    """Hybrid elephant/mice placement vs both purebreds, Zipf flows.

    One program (ddos) on the ``zipf`` workload (heavy-tailed flow
    sizes, per-flow packet budget so the elephant share survives any
    flow count) swept over nominal flow counts 10^3→10^6 at eight
    cores.  Three techniques on identical traces:

    * ``hybrid`` — the placement engine: SCR for classifier-promoted
      elephants, seeded-FNV RSS sharding for mice, migration costs
      charged to the packets that trigger them;
    * ``scr``    — pure replication (every packet pays the history
      fast-forward whether its flow is hot or not);
    * ``rss``    — pure sharding (elephants pin cores; the Toeplitz
      hash's low-entropy behavior on the synthetic address space is
      part of what the hybrid's mice hash fixes).

    Gates: per-technique ``mpps`` and ``*_p99_ns`` series, the
    deterministic ``hybrid_promotions`` count (same seed ⇒ same
    placement decisions, zero tolerance), and ``hybrid_wins`` — 1.0
    wherever the hybrid's median MLFFR strictly beats both purebreds'.
    """
    from ..placement import PlacementSpec

    program, trace = "ddos", "zipf"
    # Calibrated to the 1500-packet window of the zipf workload: the
    # in-window elephants hold >= 5 % shares at every flow count, so a
    # 24-packet estimate separates them from the mice tail, and twelve
    # sequencer slots cover the deepest observed elephant set (a full
    # elephant table strands a hot flow on one RSS core, which is the
    # pure-sharding pathology this engine exists to avoid).
    placement = PlacementSpec(
        max_elephants=12, promote_threshold=24, demote_threshold=8
    )
    art = BenchArtifact.create(
        "multitenant",
        config=params.config(
            program=program, trace=trace, cores=_MULTITENANT_CORES,
            num_flows=list(_MULTITENANT_FLOWS),
            max_packets=_MULTITENANT_PACKETS,
            techniques=list(_MULTITENANT_TECHNIQUES),
            placement=placement.canonical_dict(),
        ),
        seed_policy=params.seed_policy(),
        programs=[program],
    )
    grid = [
        Scenario.create(
            program, trace, technique, _MULTITENANT_CORES,
            num_flows=flows, max_packets=_MULTITENANT_PACKETS, seed=seed,
            engine_kwargs=_engine_kwargs(technique),
            collect_latency=True,
            placement=placement if technique == "hybrid" else None,
        )
        for technique in _MULTITENANT_TECHNIQUES
        for flows in _MULTITENANT_FLOWS
        for seed in params.rep_seeds
    ]
    results = iter(params.executor().run(grid))
    medians: Dict[str, Dict[int, float]] = {}
    for technique in _MULTITENANT_TECHNIQUES:
        medians[technique] = {}
        mpps = art.add_series(_mpps_series(technique))
        p99_rows: List[Tuple[int, List[float]]] = []
        promo_rows: List[Tuple[int, List[float]]] = []
        for flows in _MULTITENANT_FLOWS:
            mpps_reps: List[float] = []
            p99_reps: List[float] = []
            promo_reps: List[float] = []
            for _seed in params.rep_seeds:
                res = next(results)
                mpps_reps.append(res.mlffr_mpps)
                p99_reps.append((res.latency_ns or {}).get("p99", 0.0))
                if technique == "hybrid":
                    stats = res.placement_stats or {}
                    promo_reps.append(float(stats.get("promotions", 0)))  # type: ignore[call-overload]
            point = BenchPoint.from_reps(flows, mpps_reps)
            mpps.points.append(point)
            medians[technique][flows] = point.median
            p99_rows.append((flows, p99_reps))
            if technique == "hybrid":
                promo_rows.append((flows, promo_reps))
        # Same floor policy as tail_latency: one histogram bucket of the
        # largest observed p99, so bucket-edge flips stay neutral.
        top = max((max(reps) for _, reps in p99_rows if reps), default=0.0)
        p99 = art.add_series(BenchSeries(
            name=f"{technique}_p99_ns", unit="ns", direction="lower_better",
            noise_floor=top * _LATENCY_REL_FLOOR,
        ))
        for flows, reps in p99_rows:
            p99.points.append(BenchPoint.from_reps(flows, reps))
        if technique == "hybrid":
            # Classifier determinism gate: promotions at the reported
            # rate are a pure function of (seed, packet order), so any
            # drift here means the placement pipeline changed.
            promos = art.add_series(BenchSeries(
                name="hybrid_promotions", unit="count",
                direction="higher_better", noise_floor=0.0,
            ))
            for flows, reps in promo_rows:
                promos.points.append(BenchPoint.from_reps(flows, reps))
    wins = art.add_series(BenchSeries(
        name="hybrid_wins", unit="bool", direction="higher_better",
        noise_floor=0.0,
    ))
    for flows in _MULTITENANT_FLOWS:
        h = medians["hybrid"][flows]
        wins.points.append(BenchPoint.from_reps(flows, [float(
            h > medians["scr"][flows] and h > medians["rss"][flows]
        )]))
    return art


SUITES: Dict[str, Callable[[SuiteParams], BenchArtifact]] = {
    "fig6_scaling": run_fig6_scaling,
    "engine_mlffr": run_engine_mlffr,
    "tail_latency": run_tail_latency,
    "fig11_model_fit": run_fig11_model_fit,
    "faults_recovery": run_faults_recovery,
    "obs_overhead": run_obs_overhead,
    "hostwall": run_hostwall,
    "hotpath": run_hotpath,
    "advisor_validation": run_advisor_validation,
    "multitenant": run_multitenant,
}


def suite_names() -> List[str]:
    return sorted(SUITES)


def run_suite(name: str, params: Optional[SuiteParams] = None) -> BenchArtifact:
    try:
        fn = SUITES[name]
    except KeyError:
        raise KeyError(
            f"unknown bench suite {name!r}; available: {', '.join(suite_names())}"
        ) from None
    return fn(params or SuiteParams())


def run_all_suites(
    params: Optional[SuiteParams] = None,
    names: Optional[Sequence[str]] = None,
) -> List[BenchArtifact]:
    return [run_suite(n, params) for n in (names or suite_names())]
