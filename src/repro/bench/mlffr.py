"""Maximum loss-free forwarding rate (MLFFR) measurement — §4.1.

The paper benchmarks throughput per RFC 2544's MLFFR methodology [5], with
two practical adjustments it spells out: "loss-free" means **< 4 % loss**
(high-speed software always drops a little burstily), and the binary search
stops when the bounds are **within 0.4 Mpps**.  Both defaults are mirrored
here.  An exponential probe first brackets the rate, then bisection narrows
it; the reported figure is the highest rate observed to be loss-free.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, List, Optional, Tuple

from ..cpu.counters import SystemCounters
from ..cpu.simulator import PerfEngine, PerfTrace, SimResult, simulate, staging_sinks
from ..hostprof.clock import NULL_HOSTPROF, PhaseClock
from ..obs.spans import NULL_SPANS, SpanEmitter
from ..telemetry.events import EV_MLFFR_PROBE, NULL_TRACER, EventTracer

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..faults.plan import FaultPlan

__all__ = ["MlffrResult", "find_mlffr", "LOSS_THRESHOLD", "SEARCH_TOLERANCE_PPS"]

#: < 4 % loss counts as loss-free (§4.1).
LOSS_THRESHOLD = 0.04
#: stop when search bounds are within 0.4 Mpps (§4.1).
SEARCH_TOLERANCE_PPS = 0.4e6


@dataclass
class MlffrResult:
    """Outcome of one MLFFR search."""

    mlffr_pps: float
    iterations: int
    #: the simulation at the reported rate (for counters inspection).
    result_at_mlffr: Optional[SimResult] = None
    probes: List[Tuple[float, float]] = field(default_factory=list)  # (rate, loss)

    @property
    def mlffr_mpps(self) -> float:
        return self.mlffr_pps / 1e6

    def to_dict(self) -> dict:
        """JSON-safe summary (for bench artifacts; probes aid debugging)."""
        return {
            "mlffr_mpps": self.mlffr_mpps,
            "iterations": self.iterations,
            "probes": [
                {"rate_mpps": rate / 1e6, "loss": loss}
                for rate, loss in self.probes
            ],
        }


def find_mlffr(
    perf_trace: PerfTrace,
    engine: PerfEngine,
    start_pps: float = 1e6,
    max_pps: float = 400e6,
    loss_threshold: float = LOSS_THRESHOLD,
    tolerance_pps: float = SEARCH_TOLERANCE_PPS,
    line_rate_gbps: float = 100.0,
    burst_size: int = 1,
    tracer: EventTracer = NULL_TRACER,
    collect_latency: bool = False,
    faults: Optional["FaultPlan"] = None,
    spans: SpanEmitter = NULL_SPANS,
    hostprof: PhaseClock = NULL_HOSTPROF,
) -> MlffrResult:
    """Binary-search the highest offered rate with loss below threshold.

    ``tracer`` receives one ``mlffr.probe`` event per search step (rate,
    loss, verdict) and is forwarded to every probe's simulation.  The
    search is a retention scope (:meth:`EventTracer.hold`): only the
    reported probe — the one whose result is ``result_at_mlffr`` — keeps
    its sampled per-packet and ``span.*`` records, appended once when the
    search ends, so the artifact holds one timeline.  Every other probe's
    are counted, not kept: it leaves its ``mlffr.probe`` event, its
    ``sim.run`` summary (drops by cause) and any fault/recovery events.
    ``collect_latency`` makes each probe gather latency samples, so
    ``result_at_mlffr`` carries the percentile histogram.

    ``faults`` applies the same index-keyed fault schedule to every
    probe (a FaultPlan is rate-independent by construction), so the
    search measures MLFFR *under* that fault regime — injected drops
    count toward the loss threshold exactly like congestion drops.

    ``spans`` forwards to every probe's simulation; which packets are
    sampled is index-keyed, so all probes trace the same packets.

    ``hostprof`` wraps every probe in a ``sim.run`` wall-clock phase and
    forwards into the simulator's inner loop; wall readings never feed
    simulated time, so results are bit-identical either way.
    """
    if start_pps <= 0:
        raise ValueError("start rate must be positive")

    probes: List[Tuple[float, float]] = []
    best_result: Optional[SimResult] = None
    iterations = 0
    sinks = staging_sinks(tracer, spans)

    def lossfree(rate: float) -> bool:
        nonlocal best_result, iterations
        iterations += 1
        with hostprof.phase("sim.run"):
            res = simulate(
                perf_trace,
                rate,
                engine,
                line_rate_gbps=line_rate_gbps,
                burst_size=burst_size,
                tracer=tracer,
                collect_latency=collect_latency,
                faults=faults,
                spans=spans,
                hostprof=hostprof,
            )
        probes.append((rate, res.loss_fraction))
        ok = res.loss_fraction <= loss_threshold
        best = ok and (best_result is None or rate > best_result.rate_pps)
        for sink in sinks:
            sink.settle(best)
        if tracer.enabled:
            tracer.emit(EV_MLFFR_PROBE, rate_pps=rate,
                        loss=res.loss_fraction, iteration=iterations,
                        lossfree=ok)
        if best:
            best_result = res
            # The engine mutates one counters object in place across
            # probes; freeze this probe's attribution so the reported
            # point's counters survive later (lossy) probes.  Each
            # ``CoreCounters`` is a flat record of numbers.
            best_result.counters = SystemCounters(
                cores=[copy.copy(core) for core in res.counters.cores])
        return ok

    for sink in sinks:
        sink.hold()
    try:
        # Exponential bracket: find lo feasible, hi infeasible.
        lo = start_pps
        if not lossfree(lo):
            # Even the start rate loses packets; search downward instead.
            hi = lo
            lo = lo / 2
            while lo > tolerance_pps and not lossfree(lo):
                hi = lo
                lo /= 2
            if lo <= tolerance_pps and not probes[-1][1] <= loss_threshold:
                return MlffrResult(0.0, iterations, None, probes)
        else:
            hi = lo * 2
            while hi < max_pps and lossfree(hi):
                lo = hi
                hi *= 2
            if hi >= max_pps:
                hi = max_pps
                if lossfree(hi):
                    return MlffrResult(hi, iterations, best_result, probes)

        # Bisect [lo feasible, hi infeasible] down to the tolerance window.
        while hi - lo > tolerance_pps:
            mid = (lo + hi) / 2
            if lossfree(mid):
                lo = mid
            else:
                hi = mid
        return MlffrResult(lo, iterations, best_result, probes)
    finally:
        for sink in sinks:
            sink.end_hold()
