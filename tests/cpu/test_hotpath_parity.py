"""Columnar hot path vs the scalar event loop: bit-identical or nothing.

The scalar loop in ``repro.cpu.simulator`` is the reference oracle; the
columnar driver in ``repro.cpu.columnar`` must reproduce every observable
of every run it claims — SimResult fields, counters, per-core packet
counts, latency samples and histogram state, and under telemetry the
retained event stream and artifact bytes — *exactly*, across the whole
program zoo, every eligible technique, underload and overload (wire, PCIe
and ring drops), clean and faulted, serial and multi-process.  Only a
fault plan with a fault kind other than drops, or the hybrid under fault
drops or with ``count_wire_overhead``, falls back to the event loop
(drop-only plans: test_fault_parity.py; coupled cores:
test_coupled_parity.py).
"""

import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.bench.figures import SCR_IN_FRAME
from repro.cpu import PerfTrace, simulate
from repro.cpu.columnar import resolve_hotpath, use_hotpath
from repro.faults import FaultPlan, FaultSpec
from repro.hostprof import PhaseClock
from repro.hostprof.clock import PATH_SEP
from repro.obs import NULL_SPANS, SpanEmitter, SpanSampler
from repro.parallel import COLUMNAR_TECHNIQUES, make_engine
from repro.placement import PlacementSpec
from repro.programs import make_program, program_names
from repro.scenario import Scenario, ScenarioExecutor, build_perf_trace, scenario_grid
from repro.telemetry import EventTracer, Telemetry
from repro.telemetry.events import NULL_TRACER, STAGED_RANK
from tests.telemetry.derived import chrome_doc

_TRACE_KW = dict(num_flows=12, max_packets=500)

#: Under 4-core SCR capacity for every program / comfortably above it.
_UNDERLOAD_PPS = 2e6
_OVERLOAD_PPS = 4e7


def _perf_trace(program):
    return build_perf_trace(
        Scenario.create(program, "univ_dc", "scr", 1, **_TRACE_KW))


@pytest.fixture(scope="module")
def traces():
    return {name: _perf_trace(name) for name in program_names()}


def _state_of(obj):
    d = getattr(obj, "__dict__", None)
    if d is not None:
        return d
    return {s: getattr(obj, s) for s in type(obj).__slots__}


def _assert_deep_equal(a, b, path=""):
    """Field-wise bitwise equality for SimResult and everything hanging
    off it (counters, histograms, numpy arrays, floats compared by ==)."""
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        assert np.array_equal(np.asarray(a), np.asarray(b)), path
        return
    if isinstance(a, dict):
        assert isinstance(b, dict) and a.keys() == b.keys(), path
        for k in a:
            _assert_deep_equal(a[k], b[k], f"{path}.{k}")
        return
    if isinstance(a, (list, tuple)):
        assert type(a) is type(b) and len(a) == len(b), path
        for i, (x, y) in enumerate(zip(a, b)):
            _assert_deep_equal(x, y, f"{path}[{i}]")
        return
    if isinstance(a, (int, float, str, bool, bytes, type(None))):
        assert a == b, f"{path}: {a!r} != {b!r}"
        return
    assert type(a) is type(b), path
    _assert_deep_equal(_state_of(a), _state_of(b), path)


def _run_pair(trace, technique, cores=4, rate=_UNDERLOAD_PPS, engine_kw=None,
              **sim_kw):
    program = make_program(trace.program_name)
    out = []
    for mode in ("scalar", "columnar"):
        engine = make_engine(technique, program, cores, **(engine_kw or {}))
        with use_hotpath(mode):
            out.append(simulate(trace, rate, engine, **sim_kw))
    return out


class TestResolveHotpath:
    def test_default_is_columnar(self, monkeypatch):
        monkeypatch.delenv("REPRO_HOTPATH", raising=False)
        assert resolve_hotpath() == "columnar"

    def test_explicit_beats_env(self):
        with use_hotpath("columnar"):
            assert resolve_hotpath("scalar") == "scalar"

    def test_env_var(self):
        with use_hotpath("scalar"):
            assert resolve_hotpath() == "scalar"

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            resolve_hotpath("vectorized")
        with pytest.raises(ValueError):
            use_hotpath("vectorized").__enter__()


class TestProgramZooParity:
    """All 12 programs x every columnar-eligible technique x both load
    regimes: SimResult (with counters, latency, histogram) bit-identical."""

    @pytest.mark.parametrize("program", program_names())
    @pytest.mark.parametrize("technique", COLUMNAR_TECHNIQUES)
    @pytest.mark.parametrize("rate", [_UNDERLOAD_PPS, _OVERLOAD_PPS])
    def test_parity(self, traces, program, technique, rate):
        scalar, columnar = _run_pair(
            traces[program], technique, rate=rate,
            grace_fraction=0.1, collect_latency=True)
        _assert_deep_equal(scalar, columnar, f"{program}/{technique}")

    @pytest.mark.parametrize("technique", ["shared", "rss++"])
    def test_coupled_techniques_commit(self, traces, monkeypatch, technique):
        """shared / rss++ couple their cores: the merged walk commits the
        run and equals the loop (more in test_coupled_parity.py)."""
        commits = _count_commits(monkeypatch)
        scalar, columnar = _run_pair(
            traces["ddos"], technique, collect_latency=True)
        assert commits == [True]
        _assert_deep_equal(scalar, columnar, technique)


class TestVariantParity:
    def test_bursts_and_grace(self, traces):
        scalar, columnar = _run_pair(
            traces["heavy_hitter"], "scr", burst_size=4,
            grace_fraction=0.2, grace_min_ns=5_000.0, collect_latency=True)
        _assert_deep_equal(scalar, columnar)

    def test_scr_with_recovery_logging(self, traces):
        scalar, columnar = _run_pair(
            traces["token_bucket"], "scr",
            engine_kw=dict(with_recovery=True), collect_latency=True)
        _assert_deep_equal(scalar, columnar)

    def test_scr_in_frame_history(self, traces):
        scalar, columnar = _run_pair(
            traces["ddos"], "scr",
            engine_kw=dict(count_wire_overhead=False), collect_latency=True)
        _assert_deep_equal(scalar, columnar)

    def test_relaxed_scr_keeps_pruned_history(self, traces):
        scalar, columnar = _run_pair(
            traces["ddos"], "relaxed_scr", cores=7, collect_latency=True)
        _assert_deep_equal(scalar, columnar)

    def test_single_core(self, traces):
        scalar, columnar = _run_pair(
            traces["conntrack"], "scr", cores=1, collect_latency=True)
        _assert_deep_equal(scalar, columnar)

    @pytest.mark.parametrize("technique", ["scr", "relaxed_scr"])
    @pytest.mark.parametrize("engine_kw, rate, sim_kw, l2_entries", [
        pytest.param({}, _UNDERLOAD_PPS, {}, None, id="underload"),
        pytest.param({}, 4e7, dict(ring_capacity=8), 4, id="ring-walk-l2"),
        pytest.param(dict(with_recovery=True), 4e7, dict(ring_capacity=8),
                     None, id="with-recovery"),
        pytest.param(dict(num_slots=9), 4e7, dict(ring_capacity=8), 4,
                     id="wide-window"),
    ])
    @pytest.mark.parametrize("observed", [False, True],
                             ids=["plain", "observed"])
    def test_extra_compute(self, traces, monkeypatch, technique, engine_kw,
                           rate, sim_kw, l2_entries, observed):
        """Fig. 9's ``extra_compute_ns`` inflates ``c1`` and every history
        item's ``c2``: the invalid service, the fast-forward step and the
        span durations all read it.  Every packet is span-sampled when
        observed, so the stream carries each service time."""
        commits = _count_commits(monkeypatch)
        runs = []
        for mode in ("scalar", "columnar"):
            tracer = EventTracer(capacity=1 << 20)
            spans = SpanEmitter(tracer, SpanSampler(_SPAN_SEED, 1.0))
            watch = dict(tracer=tracer, spans=spans) if observed else {}
            engine = make_engine(technique, make_program("ddos"), 3,
                                 extra_compute_ns=12.7, **engine_kw, **watch)
            if l2_entries is not None:
                engine.l2.capacity_entries = l2_entries
            res = simulate(traces["ddos"], rate, engine, hotpath=mode,
                           collect_latency=True, **sim_kw, **watch)
            runs.append((res, [e.to_dict() for e in tracer.events()],
                         dict(tracer.type_counts)))
        assert commits == [True]
        (scalar, *scalar_events), (columnar, *columnar_events) = runs
        if sim_kw:
            assert columnar.ring_dropped > 0
        _assert_deep_equal(scalar, columnar)
        assert scalar_events == columnar_events


class TestFallbackPaths:
    def test_faults_commit_and_match(self, traces, monkeypatch):
        """A drop-only fault plan commits columnar (tests/cpu/
        test_fault_parity.py covers it in depth) and reports the same
        fault stats as the event loop."""
        commits = _count_commits(monkeypatch)
        plan_kw = dict(faults=FaultPlan(FaultSpec.create(seed=3, drop_rate=0.05)))
        scalar, columnar = _run_pair(traces["ddos"], "scr",
                                     collect_latency=True, **plan_kw)
        assert commits == [True]
        assert columnar.fault_stats is not None
        assert columnar.fault_stats["fault_dropped"] > 0
        _assert_deep_equal(scalar, columnar)

    @pytest.mark.parametrize("technique, spec_kw", [
        ("scr", dict(pop_drop_rate=0.05)),
        ("scr", dict(drop_rate=0.05, duplicate_rate=0.05)),
        ("scr", dict(reorder_rate=0.1, reorder_window=3)),
        ("scr", dict(truncate_rate=0.1)),
        ("scr", dict(core_stalls=[(1, 20, 5_000.0)])),
        ("scr", dict(core_kills=[(2, 40)])),
        ("rss", dict(pop_drop_rate=0.05, core_kills=[(0, 30)])),
        ("hybrid", dict(drop_rate=0.05)),
    ], ids=["pop-drop", "duplicate", "reorder", "truncate", "stall", "kill",
            "rss-pop-drop-kill", "hybrid-drop"])
    def test_other_faults_fall_back_and_match(self, traces, monkeypatch,
                                              technique, spec_kw):
        """Every other fault kind, and the hybrid under drops, keeps the
        scalar loop: the driver declines, and both modes agree."""
        commits = _count_commits(monkeypatch)
        plan = FaultPlan(FaultSpec.create(seed=3, **spec_kw))
        scalar, columnar = _run_pair(traces["ddos"], technique, rate=2e7,
                                     collect_latency=True, faults=plan)
        assert commits == [False]
        assert columnar.fault_stats is not None
        _assert_deep_equal(scalar, columnar)

    def test_tracer_falls_back_with_identical_events(self, traces,
                                                     monkeypatch):
        """Telemetry is not a fallback trigger: the traced columnar run
        commits, and its event stream equals the scalar loop's."""
        commits = _count_commits(monkeypatch)
        streams = []
        program = make_program("ddos")
        for mode in ("scalar", "columnar"):
            tracer = EventTracer()
            engine = make_engine("scr", program, 4, tracer=tracer)
            with use_hotpath(mode):
                simulate(traces["ddos"], _UNDERLOAD_PPS, engine, tracer=tracer)
            streams.append([e.to_dict() for e in tracer.events()])
        assert streams[0] == streams[1]
        assert len(streams[0]) > 0
        assert commits == [True]

    def test_overload_drops_commit_and_match(self, traces, monkeypatch):
        """Above MLFFR packets drop: the columnar run still commits (drops
        are replayed, not a fallback trigger) and matches the event loop."""
        commits = _count_commits(monkeypatch)
        scalar, columnar = _run_pair(
            traces["ddos"], "scr", rate=2e8, collect_latency=True)
        assert scalar.wire_dropped + scalar.ring_dropped > 0
        assert commits == [True]
        _assert_deep_equal(scalar, columnar)

    def test_lossy_recovery_commits_and_match(self, traces, monkeypatch):
        """Fig. 10b's configuration: Algorithm 1 logging plus FaultSpec
        drops.  The run commits columnar, and the peer-log catch-up it
        charges must not depend on the mode."""
        commits = _count_commits(monkeypatch)
        plan = FaultPlan(FaultSpec.create(seed=3, drop_rate=0.01))
        scalar, columnar = _run_pair(
            traces["ddos"], "scr", engine_kw=dict(with_recovery=True),
            collect_latency=True, faults=plan)
        assert commits == [True]
        assert columnar.fault_stats["fault_dropped"] > 0
        assert columnar.fault_stats["fault_gaps"] > 0
        _assert_deep_equal(scalar, columnar)


class TestLossyParity:
    """Runs that drop packets commit on the columnar hot path and match
    the event loop: the admission walk (wire, then PCIe), the per-core
    walk from a ring's first overflow, and their engine variants."""

    @pytest.mark.parametrize(
        "program, technique, cores, rate, engine_kw, sim_kw, counters", [
            pytest.param("ddos", "scr", 8, 2e8, {}, {}, ("wire_dropped",),
                         id="wire-only"),
            pytest.param("ddos", "scr", 8, 4e7,
                         dict(count_wire_overhead=False, dummy_eth=False),
                         dict(pcie_rate_gbps=20.0), ("pcie_dropped",),
                         id="pcie-only"),
            pytest.param("ddos", "rss", 4, 4e7, {}, dict(ring_capacity=16),
                         ("ring_dropped",), id="ring-only"),
            pytest.param("ddos", "rss", 4, 1.5e8, {},
                         dict(pcie_rate_gbps=60.0, ring_capacity=16),
                         ("wire_dropped", "pcie_dropped", "ring_dropped"),
                         id="wire-pcie-ring"),
            pytest.param("heavy_hitter", "scr", 4, 2e8, {},
                         dict(burst_size=8, grace_fraction=0.2,
                              grace_min_ns=5_000.0, ring_capacity=16),
                         ("wire_dropped", "ring_dropped"), id="bursts-grace"),
            pytest.param("ddos", "scr", 4, 8e7, SCR_IN_FRAME,
                         dict(ring_capacity=16), ("ring_dropped",),
                         id="scr-in-frame"),
            pytest.param("ddos", "relaxed_scr", 7, 2e8, {},
                         dict(ring_capacity=16), ("wire_dropped",),
                         id="relaxed-scr"),
            pytest.param("token_bucket", "scr", 4, 8e7,
                         dict(with_recovery=True), dict(ring_capacity=16),
                         ("ring_dropped",), id="with-recovery"),
            pytest.param("conntrack", "scr", 1, 2e7, {},
                         dict(ring_capacity=16), ("ring_dropped",),
                         id="single-core"),
        ])
    def test_drop_regime_commits_and_matches(
            self, traces, monkeypatch, program, technique, cores, rate,
            engine_kw, sim_kw, counters):
        commits = _count_commits(monkeypatch)
        scalar, columnar = _run_pair(
            traces[program], technique, cores=cores, rate=rate,
            engine_kw=engine_kw, collect_latency=True, **sim_kw)
        assert commits == [True]
        for counter in counters:
            assert getattr(columnar, counter) > 0, counter
        _assert_deep_equal(scalar, columnar)

    @pytest.mark.parametrize("technique", COLUMNAR_TECHNIQUES)
    def test_l2_spill_counts_enqueued_packets_only(
            self, telemetry_trace, monkeypatch, technique):
        """An L2 smaller than the flow set spills on most services after a
        ring overflows: the per-core walk's resident set holds only the
        keys of packets that reached the ring."""
        commits = _count_commits(monkeypatch)
        runs = []
        for mode in ("scalar", "columnar"):
            engine = make_engine(technique, make_program("ddos"), 3)
            engine.l2.capacity_entries = 8
            runs.append(simulate(telemetry_trace, 6e7, engine, hotpath=mode,
                                 ring_capacity=16, collect_latency=True))
        assert commits == [True]
        assert runs[1].ring_dropped > 0
        _assert_deep_equal(*runs)

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(technique=st.sampled_from(COLUMNAR_TECHNIQUES),
           cores=st.integers(1, 8),
           rate=st.floats(6.0, 8.5).map(lambda e: 10.0 ** e),
           ring_capacity=st.integers(4, 256),
           burst_size=st.integers(1, 16),
           observed=st.booleans())
    def test_any_load_commits_and_matches(self, traces, technique, cores,
                                          rate, ring_capacity, burst_size,
                                          observed):
        """Any load, ring size and burst: the columnar run commits and
        equals the event loop, and an observed run's retained stream,
        ``type_counts`` and ``emitted`` equal the loop's too."""
        program = make_program("ddos")
        runs = []
        for mode in ("scalar", "columnar"):
            tele = Telemetry()
            tele.spans = SpanEmitter(tele.tracer,
                                     SpanSampler(_SPAN_SEED, _SPAN_RATE))
            watch = (dict(tracer=tele.tracer, spans=tele.spans) if observed
                     else {})
            engine = make_engine(technique, program, cores, **watch)
            clock = PhaseClock(enabled=True)
            res = simulate(traces["ddos"], rate, engine, hotpath=mode,
                           ring_capacity=ring_capacity, burst_size=burst_size,
                           collect_latency=True, hostprof=clock, **watch)
            phases = {name for path in clock.snapshot()
                      for name in path.split(PATH_SEP)}
            runs.append((res, [e.to_dict() for e in tele.tracer.events()],
                         dict(tele.tracer.type_counts), tele.tracer.emitted,
                         phases))
        (scalar, *scalar_tele, _), (columnar, *columnar_tele, phases) = runs
        assert "sim.columnar" in phases and "sim.drain" not in phases
        _assert_deep_equal(scalar, columnar)
        assert scalar_tele == columnar_tele


#: ddos @ zipf: heavy-tailed flow sizes, so the hybrid promotes a few
#: elephants and steers many mice.
_ZIPF_SCENARIO = Scenario.create("ddos", "zipf", "hybrid", 1, num_flows=300,
                                 max_packets=1200, seed=7)
#: The multitenant suite's placement, plus placement churn (a decay
#: interval short enough to demote) and tight tenant quotas (quota-
#: refused mice run stateless and never touch L2).
_PLACEMENT_KW = dict(max_elephants=12, promote_threshold=24, demote_threshold=8)
_CHURN_KW = dict(promote_threshold=8, demote_threshold=4, decay_interval=64)
_QUOTA_KW = dict(num_tenants=4, tenant_quota=5)


@pytest.fixture(scope="module")
def zipf_trace():
    return build_perf_trace(_ZIPF_SCENARIO)


def _hybrid(cores, l2_entries=None, tracer=NULL_TRACER, spans=NULL_SPANS,
            **placement_kw):
    engine = make_engine("hybrid", make_program("ddos"), cores,
                         placement=PlacementSpec(**placement_kw),
                         tracer=tracer, spans=spans)
    if l2_entries is not None:
        engine.l2.capacity_entries = l2_entries
    return engine


def _count_walks(monkeypatch):
    """Record each hybrid ``steer_batch`` as (whole trace admitted,
    walked afresh)."""
    from repro.parallel.hybrid import HybridEngine

    calls = []
    steer, walk = HybridEngine.steer_batch, HybridEngine._walk_rows

    def steering(self, trace, rows):
        calls.append([len(rows) == len(trace), False])
        return steer(self, trace, rows)

    def walking(self, trace, rows):
        calls[-1][1] = True
        return walk(self, trace, rows)

    monkeypatch.setattr(HybridEngine, "steer_batch", steering)
    monkeypatch.setattr(HybridEngine, "_walk_rows", walking)
    return calls


class TestHybridParity:
    """Elephant/mice placement on the columnar hot path: one steering
    walk over the admitted rows, then row math, equal to the event loop
    field for field (placement counters included)."""

    @pytest.mark.parametrize(
        "cores, rate, placement_kw, l2_entries, sim_kw, observed", [
            pytest.param(4, 2e6, _CHURN_KW, None, {}, ("demotions",),
                         id="decay-demotions"),
            pytest.param(4, 2e6, {**_PLACEMENT_KW, **_QUOTA_KW}, 8, {},
                         ("stateless_packets", "tenant_quota_drops_total"),
                         id="quota-stateless"),
            pytest.param(8, 1.5e8, _PLACEMENT_KW, None, {},
                         ("wire_dropped",), id="wire-drops"),
            pytest.param(4, 4e7, _PLACEMENT_KW, None, dict(ring_capacity=16),
                         ("ring_dropped",), id="ring-drops"),
            pytest.param(4, 4e7, {**_CHURN_KW, **_QUOTA_KW}, 8,
                         dict(ring_capacity=16, burst_size=4),
                         ("ring_dropped", "demotions", "stateless_packets"),
                         id="churn-quota-ring-l2"),
        ])
    def test_commits_and_matches(self, zipf_trace, monkeypatch, cores, rate,
                                 placement_kw, l2_entries, sim_kw, observed):
        """Every packet is span-sampled, so the retained stream carries
        each service time, spray and history depth, not only totals."""
        commits = _count_commits(monkeypatch)
        runs = []
        for mode in ("scalar", "columnar"):
            tracer = EventTracer(capacity=1 << 20)
            spans = SpanEmitter(tracer, SpanSampler(_SPAN_SEED, 1.0))
            engine = _hybrid(cores, l2_entries, tracer, spans, **placement_kw)
            res = simulate(zipf_trace, rate, engine, hotpath=mode,
                           collect_latency=True, tracer=tracer, spans=spans,
                           **sim_kw)
            runs.append((res, [e.to_dict() for e in tracer.events()],
                         dict(tracer.type_counts)))
        assert commits == [True]
        (scalar, *scalar_events), (columnar, *columnar_events) = runs
        for name in observed:
            value = (columnar.placement_stats[name]
                     if name in columnar.placement_stats
                     else getattr(columnar, name))
            assert value > 0, name
        _assert_deep_equal(scalar, columnar)
        assert scalar_events == columnar_events

    @pytest.mark.parametrize("cores", range(1, 9))
    def test_any_core_count(self, zipf_trace, monkeypatch, cores):
        commits = _count_commits(monkeypatch)
        runs = [simulate(zipf_trace, 2e7, _hybrid(cores, **_CHURN_KW,
                                                  **_QUOTA_KW),
                         hotpath=mode, ring_capacity=32, collect_latency=True)
                for mode in ("scalar", "columnar")]
        assert commits == [True]
        _assert_deep_equal(*runs)

    def test_memo_hit_equals_a_fresh_engine(self, zipf_trace, monkeypatch):
        """A second whole-trace run reuses the first one's walk; a run with
        admission drops walks afresh without evicting it, and a scalar run
        in between cannot corrupt it."""
        calls = _count_walks(monkeypatch)
        engine = _hybrid(8, **_CHURN_KW)
        first = simulate(zipf_trace, 2e6, engine, collect_latency=True)
        dropped = simulate(zipf_trace, 1.5e8, engine)
        scalar = simulate(zipf_trace, 2e6, engine, hotpath="scalar",
                          collect_latency=True)
        again = simulate(zipf_trace, 2e6, engine, collect_latency=True)
        fresh = simulate(zipf_trace, 2e6, _hybrid(8, **_CHURN_KW),
                         collect_latency=True)
        assert dropped.wire_dropped > 0
        assert calls == [[True, True], [False, True], [True, False],
                         [True, True]]
        for run in (first, scalar, again):
            _assert_deep_equal(run, fresh)

    def test_search_walks_once_around_its_drop_probe(self, zipf_trace,
                                                     monkeypatch):
        """hybrid/8's search overshoots into a wire-dropping probe and
        comes back to whole-trace probes, which reuse the first walk."""
        from repro.bench.mlffr import find_mlffr

        calls = _count_walks(monkeypatch)
        results = []
        for mode in ("scalar", "columnar"):
            with use_hotpath(mode):
                results.append(find_mlffr(zipf_trace,
                                          _hybrid(8, **_PLACEMENT_KW)))
        assert results[0].probes == results[1].probes
        assert results[0].mlffr_pps == results[1].mlffr_pps
        _assert_deep_equal(results[0].result_at_mlffr,
                           results[1].result_at_mlffr)
        assert len(calls) == results[1].iterations
        full = [whole for whole, _ in calls]
        drop = full.index(False)
        assert True in full[drop + 1:]
        assert [walked for _, walked in calls] == [not whole or i == 0
                                                   for i, whole in
                                                   enumerate(full)]


def _count_commits(monkeypatch):
    """Record each columnar attempt's outcome (True: committed)."""
    import repro.cpu.columnar as columnar

    outcomes = []
    attempt = columnar.simulate_columnar

    def recording(*args, **kwargs):
        run = attempt(*args, **kwargs)
        outcomes.append(run is not None)
        return run

    monkeypatch.setattr(columnar, "simulate_columnar", recording)
    return outcomes


#: The pinned telemetry scenario: ddos @ caida on 2 cores, big enough for
#: ring drops and a mix of passing and failing probes.
_TELEMETRY_SCENARIO = Scenario.create("ddos", "caida", "scr", 1, num_flows=400,
                                      max_packets=1500, seed=7)
_SPAN_SEED, _SPAN_RATE = 7, 0.1

#: Event counts of traced searches over the pinned scenario, recorded at
#: the parent commit of the retention contract (which keeps every count).
_PINNED_COUNTS = Path(__file__).with_name("telemetry_counts_pinned.json")


@pytest.fixture(scope="module")
def telemetry_trace():
    return build_perf_trace(_TELEMETRY_SCENARIO)


def _traced_search(trace, technique, mode, spans_rate, start_pps=1e6,
                   faults=None):
    """One traced MLFFR search on the ``mode`` hot path."""
    from repro.bench.mlffr import find_mlffr

    tele = Telemetry()
    if spans_rate:
        tele.spans = SpanEmitter(tele.tracer,
                                 SpanSampler(_SPAN_SEED, spans_rate))
    spans = tele.spans or NULL_SPANS
    engine = make_engine(technique, make_program("ddos"), 2,
                         tracer=tele.tracer, spans=spans)
    with use_hotpath(mode):
        res = find_mlffr(trace, engine, start_pps=start_pps,
                         tracer=tele.tracer, spans=spans, faults=faults)
    return res, tele


class _PeakTracer(EventTracer):
    """An event tracer that records its staged buffer's largest size, in
    records: event rows (the scalar loop) and column batches (a committed
    columnar run)."""

    def __init__(self, capacity):
        super().__init__(capacity)
        self.peak = 0

    def _note_peak(self):
        if self._staged is not None:
            self.peak = max(self.peak, len(self._staged))

    def emit(self, *args, **kwargs):
        super().emit(*args, **kwargs)
        self._note_peak()

    def stage_columns(self, batch):
        super().stage_columns(batch)
        self._note_peak()


class TestTelemetryParity:
    """The retention contract on both hot paths: identical retained
    streams and artifacts, and whole-run counts equal to the parent's."""

    @pytest.mark.parametrize("technique", COLUMNAR_TECHNIQUES)
    @pytest.mark.parametrize("start_pps", [_UNDERLOAD_PPS, _OVERLOAD_PPS],
                             ids=["underload", "overload"])
    @pytest.mark.parametrize("spans_rate", [0.0, _SPAN_RATE],
                             ids=["tracer", "spans"])
    def test_find_mlffr_streams_and_artifacts_identical(
            self, telemetry_trace, monkeypatch, tmp_path, technique,
            start_pps, spans_rate):
        commits = _count_commits(monkeypatch)
        runs = {}
        for mode in ("scalar", "columnar"):
            res, tele = _traced_search(telemetry_trace, technique, mode,
                                       spans_rate, start_pps)
            tele.write_artifact(tmp_path / mode, command="parity",
                                num_cores=2)
            runs[mode] = (res.probes, [e.to_dict() for e in tele.tracer.events()],
                          tele.tracer.type_counts, tele.tracer.emitted)
        assert runs["scalar"] == runs["columnar"]
        assert any(commits), "columnar never committed under telemetry"
        assert ((tmp_path / "scalar" / "events.jsonl").read_bytes()
                == (tmp_path / "columnar" / "events.jsonl").read_bytes())
        assert (chrome_doc(tmp_path / "scalar")
                == chrome_doc(tmp_path / "columnar"))

    def test_failing_probes_keep_only_summaries(self, telemetry_trace):
        """Every per-packet and span record belongs to the reported probe:
        they are exactly what that probe alone retains, appended once
        after the search's last probe."""
        res, tele = _traced_search(telemetry_trace, "scr", "columnar",
                                   _SPAN_RATE)
        events = [e.to_dict() for e in tele.tracer.events()]
        summaries = [e for e in events if e["kind"] == "sim.run"]
        assert len(summaries) == res.iterations
        passing = {rate for rate, loss in res.probes if loss <= 0.04}
        assert 1 < len(passing) < res.iterations
        staged = [e for e in events if e["kind"] in STAGED_RANK]
        assert staged and staged == events[-len(staged):]
        lone = Telemetry()
        lone.spans = SpanEmitter(lone.tracer,
                                 SpanSampler(_SPAN_SEED, _SPAN_RATE))
        engine = make_engine("scr", make_program("ddos"), 2,
                             tracer=lone.tracer, spans=lone.spans)
        simulate(telemetry_trace, res.result_at_mlffr.rate_pps, engine,
                 tracer=lone.tracer, spans=lone.spans)
        assert staged == [e.to_dict() for e in lone.tracer.events()
                          if e.kind in STAGED_RANK]
        failing = [s for s in summaries if s["rate_pps"] not in passing]
        assert any(s["ring_dropped"] for s in failing)

    @pytest.mark.parametrize("mode", ["scalar", "columnar"])
    def test_artifact_span_ids_are_unique(self, telemetry_trace, tmp_path,
                                          mode):
        """An observed search's artifact holds one timeline: each span id
        once, and at most one record per sampled packet and stage."""
        _, tele = _traced_search(telemetry_trace, "scr", mode, _SPAN_RATE)
        tele.write_artifact(tmp_path, command="spans", num_cores=2)
        events = [json.loads(line) for line in
                  (tmp_path / "events.jsonl").read_text().splitlines()]
        span_ids = [e["span"] for e in events if e["kind"].startswith("span.")]
        assert span_ids and len(span_ids) == len(set(span_ids))
        records = [(e["index"], e["kind"]) for e in events
                   if e["kind"] in STAGED_RANK]
        assert len(records) == len(set(records))

    def test_per_packet_kinds_retained_only_when_sampled(self,
                                                         telemetry_trace):
        _, tele = _traced_search(telemetry_trace, "scr", "columnar", 0.0)
        kinds = {e.kind for e in tele.tracer.events()}
        assert kinds == {"sim.run", "mlffr.probe"}
        assert tele.tracer.type_counts["core.service"] > 0

    @pytest.mark.parametrize("mode", ["scalar", "columnar"])
    def test_full_sampling_keeps_the_stage_buffer_bounded(
            self, telemetry_trace, mode):
        """At sampling rate 1.0 a small ring bounds the staged records
        and the span-id memo too; the retained tail and the counts equal
        a large ring's."""
        from repro.bench.mlffr import find_mlffr

        runs = {}
        for capacity in (64, 1_000_000):
            tracer = _PeakTracer(capacity)
            spans = SpanEmitter(tracer, SpanSampler(_SPAN_SEED, 1.0))
            engine = make_engine("scr", make_program("ddos"), 2,
                                 tracer=tracer, spans=spans)
            with use_hotpath(mode):
                res = find_mlffr(telemetry_trace, engine, tracer=tracer,
                                 spans=spans)
            runs[capacity] = (res.probes, tracer.type_counts, tracer.emitted,
                              [e.to_dict() for e in tracer.events()],
                              tracer.peak, len(spans._ids))
        small, big = runs[64], runs[1_000_000]
        assert small[:3] == big[:3]
        assert small[3] == big[3][-64:]
        assert small[4] <= 1024 < big[4]
        # The span-id memo is bounded too; a committed columnar run
        # computes span ids as arrays and never fills it.
        if mode == "scalar":
            assert small[5] <= 64 < big[5]
        else:
            assert small[5] == big[5] == 0

    @pytest.mark.parametrize("case", sorted(json.loads(
        _PINNED_COUNTS.read_text())))
    def test_counts_equal_the_parent(self, telemetry_trace, case):
        """``event_type_counts`` and ``events_emitted`` are exact: equal
        to the parent commit's for the same searches."""
        pinned = json.loads(_PINNED_COUNTS.read_text())[case]
        technique, spans, *rest = case.split("/")
        rate = float(spans[len("spans"):])
        if rest and rest[0].startswith("simulate"):
            tele = Telemetry()
            tele.spans = SpanEmitter(tele.tracer, SpanSampler(_SPAN_SEED, rate))
            engine = make_engine(technique, make_program("ddos"), 2,
                                 tracer=tele.tracer, spans=tele.spans)
            simulate(telemetry_trace, float(rest[0][len("simulate"):]), engine,
                     tracer=tele.tracer, spans=tele.spans)
        else:
            faults = None
            if rest:
                faults = FaultPlan(FaultSpec.create(
                    seed=3, drop_rate=float(rest[0][len("drop"):])))
            res, tele = _traced_search(telemetry_trace, technique,
                                       "columnar", rate, faults=faults)
            assert res.mlffr_pps == pinned["mlffr_pps"]
            assert res.iterations == pinned["iterations"]
        assert dict(tele.tracer.type_counts) == pinned["event_type_counts"]
        assert tele.tracer.emitted == pinned["events_emitted"]


class TestMlffrParity:
    @pytest.mark.parametrize("technique", COLUMNAR_TECHNIQUES)
    def test_search_trajectory_identical(self, traces, technique):
        from repro.bench.mlffr import find_mlffr

        program = make_program("ddos")
        results = []
        for mode in ("scalar", "columnar"):
            engine = make_engine(technique, program, 4)
            with use_hotpath(mode):
                results.append(find_mlffr(traces["ddos"], engine))
        assert results[0].mlffr_pps == results[1].mlffr_pps
        assert results[0].probes == results[1].probes


class TestExecutorParity:
    def test_parallel_columnar_matches_serial_scalar(self):
        """jobs=2 columnar == jobs=1 scalar: worker processes inherit the
        mode via the environment and stay bit-identical."""
        grid = scenario_grid("ddos", "caida", ["scr", "rss"], [1, 2],
                             num_flows=10, max_packets=400)

        def series(results):
            return [(r.scenario.technique, r.scenario.cores,
                     r.mlffr_mpps, r.probes) for r in results]

        with use_hotpath("scalar"):
            serial = ScenarioExecutor(jobs=1).run(grid)
        with use_hotpath("columnar"):
            parallel = ScenarioExecutor(jobs=2).run(grid)
        assert series(serial) == series(parallel)


class TestColumnarTrace:
    """PerfTrace as a struct-of-arrays container."""

    def test_columns_match_records(self, traces):
        pt = traces["ddos"]
        records = pt.records
        assert len(pt) == len(records)
        assert pt.wire_lens.tolist() == [r.wire_len for r in records]
        assert pt.valid.tolist() == [r.valid for r in records]
        assert pt.hash_l4.tolist() == [r.hash_l4 for r in records]
        assert pt.hash_l3.tolist() == [r.hash_l3 for r in records]
        assert pt.hash_sym.tolist() == [r.hash_sym for r in records]
        assert [pt.key_table[i] for i in pt.key_ids.tolist()] == \
            [r.key for r in records]

    def test_columns_are_read_only(self, traces):
        with pytest.raises(ValueError):
            traces["ddos"].key_ids[0] = 7

    def test_unique_keys_lazy_and_cached(self):
        pt = _perf_trace("ddos")
        assert pt._unique_keys is None
        expected = len({r.key for r in pt.records if r.valid})
        assert pt.unique_keys == expected
        assert pt._unique_keys == expected  # memoized

    def test_scalar_and_columnar_lowering_agree(self):
        spec_trace = Scenario.create("conntrack", "caida", "scr", 1,
                                     num_flows=8, max_packets=300)
        from repro.scenario.build import StackBuilder

        builder = StackBuilder(None)
        raw = builder.trace(spec_trace.trace)
        program = make_program("conntrack")
        a = PerfTrace.from_trace(raw, program, hotpath="scalar")
        b = PerfTrace.from_trace(raw, program, hotpath="columnar")
        for col in ("key_ids", "hash_l3", "hash_l4", "hash_sym",
                    "wire_lens", "valid", "touches_global"):
            assert np.array_equal(getattr(a, col), getattr(b, col)), col
        assert a.key_table == b.key_table
