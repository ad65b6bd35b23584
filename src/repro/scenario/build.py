"""The composition root: one place that turns a Scenario into a stack.

``trace synthesis → perf-trace lowering → engine → MLFFR`` is wired
here and nowhere else: figures, benches, the perf suite and the CLI all
pass a :class:`~repro.scenario.spec.Scenario` through :func:`run_scenario`
(or a :class:`~repro.scenario.executor.ScenarioExecutor` over a grid),
and :class:`StackBuilder` applies the conventions.

Determinism contract: a scenario fully determines its workload (seeded
synthesis), its engine (explicit kwargs, seeded RNGs only), and the
MLFFR search (pure binary search), so two processes running the same
scenario produce bit-identical results — the property the multiprocess
executor's serial-equivalence guarantee rests on.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Tuple

from ..bench.mlffr import MlffrResult, find_mlffr
from ..cpu.simulator import PerfTrace, SimResult
from ..hostprof.clock import NULL_HOSTPROF, PhaseClock
from ..obs.spans import NULL_SPANS, SpanEmitter
from ..parallel.base import BaseEngine
from ..parallel.registry import make_engine
from ..programs.base import PacketProgram
from ..programs.registry import make_program
from ..telemetry.artifact import NULL_TELEMETRY, Telemetry
from ..telemetry.attribution import attribution_from_snapshot
from ..telemetry.events import NULL_TRACER, EventTracer
from ..traffic.distributions import TRACE_DISTRIBUTIONS
from ..traffic.synthesis import single_flow_trace, synthesize_trace
from ..traffic.trace import Trace
from .cache import TraceCache
from .spec import SINGLE_FLOW_WORKLOAD, Scenario, TraceSpec

__all__ = [
    "Stack",
    "StackBuilder",
    "ScenarioResult",
    "build_trace",
    "build_perf_trace",
    "build_stack",
    "run_scenario",
]

#: §4.1 synthesis conventions: a short flow interarrival keeps many flows
#: concurrently active inside the packet cap, as in the real captures
#: ("states created and destroyed throughout").
_FLOW_INTERARRIVAL_NS = 3_000
_FLOW_DURATION_NS = 200_000


@dataclass
class Stack:
    """A scenario turned into runnable objects."""

    scenario: Scenario
    program: PacketProgram
    perf_trace: PerfTrace
    engine: BaseEngine


@dataclass
class ScenarioResult:
    """One measured scenario, JSON-safe except for the optional ``mlffr``.

    ``mlffr`` (the full :class:`~repro.bench.mlffr.MlffrResult`, with the
    simulation at the reported rate) is only present for in-process runs;
    results crossing a process boundary are :meth:`compact`-ed to the
    derived fields, which serial and parallel execution populate
    identically.
    """

    scenario: Scenario
    mlffr_mpps: float
    iterations: int
    probes: List[Tuple[float, float]]
    counters: Optional[dict] = None
    latency_ns: Optional[Dict[str, float]] = None
    profile: Optional[dict] = None
    #: worker registry snapshot, merged by the executor (parallel runs).
    metrics: Optional[Dict[str, dict]] = None
    #: injector + recovery counters at the reported rate (faulted runs).
    fault_stats: Optional[Dict[str, object]] = None
    #: placement/quota counters at the reported rate (hybrid runs).
    placement_stats: Optional[Dict[str, object]] = None
    #: worker PhaseClock snapshot, folded by the executor (profiled runs).
    host_phases: Optional[Dict[str, Dict[str, int]]] = None
    mlffr: Optional[MlffrResult] = None

    def compact(self) -> "ScenarioResult":
        """Drop the in-process-only simulation payload (for pickling)."""
        return replace(self, mlffr=None)


class StackBuilder:
    """Memoizing factory for traces, lowered perf-traces, and engines.

    In-memory memos make repeated points of one sweep free; an optional
    :class:`TraceCache` extends the reuse across processes and runs.
    Engines are never cached — each scenario gets a fresh one.
    """

    def __init__(
        self,
        cache: Optional[TraceCache] = None,
        hostprof: PhaseClock = NULL_HOSTPROF,
    ) -> None:
        self.cache = cache
        self.hostprof = hostprof
        self._traces: Dict[TraceSpec, Trace] = {}
        self._perf: Dict[Tuple[str, TraceSpec], PerfTrace] = {}

    def trace(self, spec: TraceSpec) -> Trace:
        """The synthesized workload for ``spec``, built at its packet size."""
        memo = self._traces.get(spec)
        if memo is not None:
            return memo
        hp = self.hostprof
        trace: Optional[Trace] = None
        if self.cache is not None:
            with hp.phase("trace.cache_load"):
                trace = self.cache.load_trace(spec)
        if trace is None:
            with hp.phase("trace.synthesize"):
                trace = _synthesize(spec)
            if self.cache is not None:
                with hp.phase("trace.cache_store"):
                    self.cache.store_trace(spec, trace)
        self._traces[spec] = trace
        return trace

    def perf_trace(self, program_name: str, spec: TraceSpec) -> PerfTrace:
        """``spec``'s trace lowered once for ``program_name``."""
        key = (program_name, spec)
        memo = self._perf.get(key)
        if memo is not None:
            return memo
        hp = self.hostprof
        pt: Optional[PerfTrace] = None
        if self.cache is not None:
            with hp.phase("perf.cache_load"):
                pt = self.cache.load_perf_trace(program_name, spec)
        if pt is None:
            trace = self.trace(spec)
            with hp.phase("perf.lower"):
                pt = PerfTrace.from_trace(trace, make_program(program_name))
            if self.cache is not None:
                with hp.phase("perf.cache_store"):
                    self.cache.store_perf_trace(program_name, spec, pt)
        self._perf[key] = pt
        return pt

    def engine(
        self,
        scenario: Scenario,
        tracer: EventTracer = NULL_TRACER,
        spans: SpanEmitter = NULL_SPANS,
    ) -> BaseEngine:
        kwargs = scenario.engine_kwargs_dict()
        if tracer.enabled:
            kwargs.setdefault("tracer", tracer)
        if spans.enabled:
            kwargs.setdefault("spans", spans)
        if self.hostprof.enabled:
            kwargs.setdefault("hostprof", self.hostprof)
        if scenario.faults is not None and scenario.technique == "scr":
            # The recovery cost model reads the fault regime's epoch.
            kwargs.setdefault("fault_epoch_len", scenario.faults.epoch_len)
        if scenario.placement is not None and scenario.technique == "hybrid":
            # The spec object itself is builder-wired (engine kwargs hold
            # JSON scalars only); its knobs are hashed via the scenario.
            kwargs.setdefault("placement", scenario.placement)
        with self.hostprof.phase("engine.build"):
            return make_engine(
                scenario.technique,
                make_program(scenario.program),
                scenario.cores,
                **kwargs,
            )

    def stack(
        self,
        scenario: Scenario,
        tracer: EventTracer = NULL_TRACER,
        spans: SpanEmitter = NULL_SPANS,
    ) -> Stack:
        return Stack(
            scenario=scenario,
            program=make_program(scenario.program),
            perf_trace=self.perf_trace(scenario.program, scenario.trace),
            engine=self.engine(scenario, tracer=tracer, spans=spans),
        )


def _synthesize(spec: TraceSpec) -> Trace:
    """``spec``'s workload.  A sized spec's packets are built at
    ``packet_size`` directly, the bytes ``Trace.truncated`` would give."""
    if spec.workload == SINGLE_FLOW_WORKLOAD:
        return single_flow_trace(
            spec.max_packets // 2, bidirectional=spec.bidirectional,
            packet_size=spec.packet_size,
        )
    return synthesize_trace(
        TRACE_DISTRIBUTIONS[spec.workload](),
        spec.num_flows,
        seed=spec.seed,
        bidirectional=spec.bidirectional,
        mean_flow_interarrival_ns=_FLOW_INTERARRIVAL_NS,
        flow_duration_ns=_FLOW_DURATION_NS,
        max_packets=spec.max_packets,
        packet_size=spec.packet_size,
    )


def build_trace(spec: TraceSpec, cache: Optional[TraceCache] = None) -> Trace:
    """One-shot convenience around :meth:`StackBuilder.trace`."""
    return StackBuilder(cache).trace(spec)


def build_perf_trace(
    scenario: Scenario, cache: Optional[TraceCache] = None
) -> PerfTrace:
    return StackBuilder(cache).perf_trace(scenario.program, scenario.trace)


def build_stack(
    scenario: Scenario,
    cache: Optional[TraceCache] = None,
    tracer: EventTracer = NULL_TRACER,
) -> Stack:
    """One-shot composition root (callers doing sweeps should hold a
    :class:`StackBuilder` so workload construction is shared)."""
    return StackBuilder(cache).stack(scenario, tracer=tracer)


def run_scenario(
    scenario: Scenario,
    builder: Optional[StackBuilder] = None,
    telemetry: Optional[Telemetry] = None,
) -> ScenarioResult:
    """Measure one scenario's MLFFR.

    With an enabled ``telemetry``, the run is instrumented: probe events,
    the labelled per-point gauge, the iterations counter, and the
    counters/latency snapshot frozen at the reported rate.
    """
    builder = builder if builder is not None else StackBuilder()
    tele = telemetry if telemetry is not None else NULL_TELEMETRY
    instrumented = tele.enabled
    spans = getattr(tele, "spans", None) or NULL_SPANS
    hp = builder.hostprof
    hp.push("scenario.run")
    try:
        stack = builder.stack(
            scenario,
            tracer=tele.tracer if instrumented else NULL_TRACER,
            spans=spans if instrumented else NULL_SPANS,
        )
        plan = None
        if scenario.faults is not None and scenario.faults.any_faults:
            # Lazy: repro.faults.harness imports this module.
            from ..faults.plan import FaultPlan

            plan = FaultPlan(scenario.faults)
        hp.push("mlffr.search")
        try:
            res = find_mlffr(
                stack.perf_trace,
                stack.engine,
                line_rate_gbps=scenario.line_rate_gbps,
                burst_size=scenario.burst_size,
                tracer=tele.tracer if instrumented else NULL_TRACER,
                collect_latency=scenario.collect_latency or instrumented,
                faults=plan,
                spans=spans if instrumented else NULL_SPANS,
                hostprof=hp,
            )
        finally:
            hp.pop()
    finally:
        hp.pop()
    result = ScenarioResult(
        scenario=scenario,
        mlffr_mpps=res.mlffr_mpps,
        iterations=res.iterations,
        probes=list(res.probes),
        mlffr=res,
    )
    best = res.result_at_mlffr
    if best is not None:
        result.fault_stats = best.fault_stats
        result.placement_stats = best.placement_stats
        if instrumented or scenario.collect_latency:
            result.counters = best.counters.snapshot()
            hist = best.latency_histogram
            if hist is not None and hist.count:
                result.latency_ns = hist.percentiles()
        if scenario.profile:
            result.profile = attribution_from_snapshot(
                best.counters.snapshot(), duration_ns=best.duration_ns
            ).to_dict()
    if instrumented:
        _record_point(tele, scenario, result, best)
    return result


def _record_point(
    tele: Telemetry,
    scenario: Scenario,
    result: ScenarioResult,
    best: Optional[SimResult],
) -> None:
    """Fold one MLFFR point into the telemetry registry."""
    reg = tele.registry
    labels = (
        f'program="{scenario.program}",workload="{scenario.workload}",'
        f'technique="{scenario.technique}",cores="{scenario.cores}"'
    )
    reg.gauge(
        "mlffr_mpps{%s}" % labels,
        help="maximum loss-free forwarding rate in Mpps (RFC 2544, <4% loss)",
    ).set(result.mlffr_mpps)
    reg.counter("mlffr_search_iterations").inc(result.iterations)
    if best is None:
        return
    hist = best.latency_histogram
    if hist is not None and hist.count:
        reg.histogram("latency_ns", help="per-packet latency at MLFFR").merge(hist)
    placement = result.placement_stats
    if placement is not None:
        for metric in (
            "promotions",
            "demotions",
            "migrations",
            "tenant_quota_drops_total",
            "statemap_grow_events",
        ):
            value = placement.get(metric)
            if isinstance(value, (int, float)) and value:
                reg.counter(
                    "placement_%s{%s}" % (metric, labels),
                    help="elephant/mice placement counter at MLFFR "
                    "(repro.placement)",
                ).inc(value)
