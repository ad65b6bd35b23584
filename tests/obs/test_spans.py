"""SpanEmitter: the parent-linked span triple, id determinism, the
disabled singleton, and the faulted-vs-clean twin property end-to-end."""

import pytest

from repro.bench.mlffr import find_mlffr
from repro.cpu.simulator import PerfTrace, simulate
from repro.faults.plan import FaultPlan
from repro.faults.spec import FaultSpec
from repro.obs.sampling import SpanSampler
from repro.obs.spans import (
    NULL_SPANS,
    SPAN_PARENT,
    SPAN_STAGES,
    SpanEmitter,
    span_id,
    span_kind,
)
from repro.parallel.registry import make_engine
from repro.programs.registry import make_program
from repro.telemetry.events import STAGED_RANK, EventTracer
from repro.traffic.distributions import TRACE_DISTRIBUTIONS
from repro.traffic.synthesis import synthesize_trace


def _emitter(rate=1.0, seed=7):
    tracer = EventTracer()
    return SpanEmitter(tracer, SpanSampler(seed, rate)), tracer


class TestStageGraph:
    def test_every_stage_has_a_parent_entry(self):
        assert set(SPAN_PARENT) == set(SPAN_STAGES)

    def test_parents_are_stages_and_acyclic(self):
        for stage, parent in SPAN_PARENT.items():
            if parent is not None:
                assert parent in SPAN_STAGES
            # Walking up always terminates at the root.
            seen = set()
            node = stage
            while node is not None:
                assert node not in seen
                seen.add(node)
                node = SPAN_PARENT[node]

    def test_root_is_nic_arrival(self):
        assert SPAN_PARENT["nic_arrival"] is None

    def test_span_ids_distinct_per_stage(self):
        ids = {span_id(12345, s) for s in SPAN_STAGES}
        assert len(ids) == len(SPAN_STAGES)


class TestSpanEmitter:
    def test_event_carries_the_trace_triple(self):
        spans, tracer = _emitter()
        spans.emit("nic_arrival", 5, ts_ns=10.0)
        spans.emit("ring_enqueue", 5, ts_ns=12.0, core=2, depth=1)
        ev_a, ev_b = tracer.events()
        trace = spans.sampler.trace_id(5)
        assert ev_a.kind == span_kind("nic_arrival")
        assert ev_a.fields["trace"] == trace
        assert ev_a.fields["span"] == span_id(trace, "nic_arrival")
        assert ev_a.fields["parent"] is None
        assert ev_b.fields["parent"] == span_id(trace, "nic_arrival")
        assert ev_b.fields["span"] == span_id(trace, "ring_enqueue")
        assert ev_b.core == 2

    def test_unknown_stage_raises(self):
        spans, _ = _emitter()
        with pytest.raises(ValueError):
            spans.emit("warp_drive", 0)

    def test_null_spans_disabled_and_silent(self):
        assert not NULL_SPANS.enabled
        assert not NULL_SPANS.sampled(0)
        NULL_SPANS.emit("nic_arrival", 0)  # no-op, must not raise

    def test_zero_rate_disables(self):
        spans, _ = _emitter(rate=0.0)
        assert not spans.enabled

    def test_disabled_tracer_disables(self):
        from repro.telemetry.events import NULL_TRACER

        spans = SpanEmitter(NULL_TRACER, SpanSampler(7, 1.0))
        assert not spans.enabled

    def test_ids_do_not_depend_on_emission_order(self):
        a, tr_a = _emitter()
        b, tr_b = _emitter()
        a.emit("nic_arrival", 1)
        a.emit("nic_arrival", 2)
        b.emit("nic_arrival", 2)
        b.emit("nic_arrival", 1)
        ids_a = {e.fields["index"]: e.fields["span"] for e in tr_a.events()}
        ids_b = {e.fields["index"]: e.fields["span"] for e in tr_b.events()}
        assert ids_a == ids_b


def _perf_trace(program="ddos", packets=600, seed=7):
    trace = synthesize_trace(
        TRACE_DISTRIBUTIONS["univ_dc"](), 20, seed=seed, max_packets=packets
    )
    return PerfTrace.from_trace(trace, make_program(program))


def _run(pt, faults=None, rate_pps=5e6):
    tracer = EventTracer()
    spans = SpanEmitter(tracer, SpanSampler(7, 0.1))
    engine = make_engine("scr", make_program("ddos"), 4)
    simulate(pt, rate_pps, engine, tracer=tracer, faults=faults, spans=spans)
    return tracer


class TestEndToEnd:
    def test_sampled_set_identical_faulted_vs_clean(self):
        # The twin property: the faulted run traces exactly the packets
        # the clean run traces (sampling never reads fault state).
        pt = _perf_trace()
        clean = _run(pt)
        faulted = _run(pt, faults=FaultPlan(FaultSpec(seed=7, drop_rate=0.05)))

        def arrivals(tracer):
            return {e.fields["index"] for e in tracer.events()
                    if e.kind == span_kind("nic_arrival")}

        assert arrivals(clean) == arrivals(faulted)

    def test_sampled_set_identical_across_offered_rates(self):
        pt = _perf_trace()
        slow = _run(pt, rate_pps=2e6)
        fast = _run(pt, rate_pps=20e6)
        kinds = lambda t: {e.fields["index"] for e in t.events()
                           if e.kind == span_kind("nic_arrival")}
        assert kinds(slow) == kinds(fast)

    def test_parent_links_resolve_within_each_trace(self):
        pt = _perf_trace()
        tracer = _run(pt)
        by_trace = {}
        for e in tracer.events():
            if e.kind.startswith("span."):
                by_trace.setdefault(e.fields["trace"], set()).add(
                    e.fields["span"]
                )
        checked = 0
        for e in tracer.events():
            if e.kind.startswith("span.") and e.fields["parent"] is not None:
                assert e.fields["parent"] in by_trace[e.fields["trace"]]
                checked += 1
        assert checked > 0

    def test_spans_do_not_change_the_mlffr(self):
        # The observational guarantee the BENCH_obs_overhead gate pins:
        # tracing at any rate reproduces the untraced MLFFR exactly.
        pt = _perf_trace(packets=400)
        plain = find_mlffr(pt, make_engine("scr", make_program("ddos"), 2))
        tracer = EventTracer()
        spans = SpanEmitter(tracer, SpanSampler(7, 0.5))
        traced = find_mlffr(
            pt, make_engine("scr", make_program("ddos"), 2),
            tracer=tracer, spans=spans,
        )
        assert traced.mlffr_mpps == plain.mlffr_mpps
        assert any(e.kind.startswith("span.") for e in tracer.events())


def test_every_span_stage_is_staged():
    """A traced run stages and canonically orders every span kind (the
    tracer cannot import the stage list, so it keeps its own)."""
    assert {span_kind(stage) for stage in SPAN_STAGES} <= set(STAGED_RANK)
