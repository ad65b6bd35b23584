"""Columnar hot path vs the scalar event loop: bit-identical or nothing.

The scalar loop in ``repro.cpu.simulator`` is the reference oracle; the
columnar driver in ``repro.cpu.columnar`` must reproduce every observable
of every run it claims — SimResult fields, counters, per-core packet
counts, latency samples and histogram state, and under telemetry the
retained event stream and artifact bytes — *exactly*, across the whole
program zoo, every eligible technique, underload and overload, clean and
faulted, serial and multi-process.  Anything less falls back.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.cpu import PerfTrace, simulate
from repro.cpu.columnar import resolve_hotpath, use_hotpath
from repro.faults import FaultPlan, FaultSpec
from repro.obs import NULL_SPANS, SpanEmitter, SpanSampler
from repro.parallel import COLUMNAR_TECHNIQUES, TECHNIQUES, make_engine
from repro.programs import make_program, program_names
from repro.scenario import Scenario, ScenarioExecutor, build_perf_trace, scenario_grid
from repro.telemetry import EventTracer, Telemetry

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

    @pytest.mark.parametrize("technique", [t for t in TECHNIQUES
                                           if t not in COLUMNAR_TECHNIQUES])
    def test_ineligible_techniques_unaffected(self, traces, technique):
        """shared / rss++ always run the scalar loop; the dispatch layer
        must be a no-op for them."""
        scalar, columnar = _run_pair(
            traces["ddos"], technique, collect_latency=True)
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


class TestFallbackPaths:
    def test_faults_fall_back_and_match(self, traces):
        """A fault plan forces the scalar loop; both modes must agree
        (they run the same code) and report fault stats."""
        plan_kw = dict(faults=FaultPlan(FaultSpec.create(seed=3, drop_rate=0.05)))
        scalar, columnar = _run_pair(traces["ddos"], "scr",
                                     collect_latency=True, **plan_kw)
        assert columnar.fault_stats is not None
        assert columnar.fault_stats["fault_dropped"] > 0
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

    def test_overload_drops_fall_back_and_match(self, traces):
        """Above MLFFR the rings back up and packets drop — speculation
        fails, the event loop answers, and results still match."""
        scalar, columnar = _run_pair(
            traces["ddos"], "scr", rate=2e8, collect_latency=True)
        assert scalar.wire_dropped + scalar.ring_dropped > 0
        _assert_deep_equal(scalar, columnar)

    def test_lossy_recovery_falls_back_and_match(self, traces):
        """Fig. 10b's configuration: Algorithm 1 logging plus FaultSpec
        drops.  The plan forces the scalar loop in both modes, and the
        peer-log catch-up it charges must not depend on the mode."""
        plan = FaultPlan(FaultSpec.create(seed=3, drop_rate=0.01))
        scalar, columnar = _run_pair(
            traces["ddos"], "scr", engine_kw=dict(with_recovery=True),
            collect_latency=True, faults=plan)
        assert columnar.fault_stats["fault_dropped"] > 0
        assert columnar.fault_stats["fault_gaps"] > 0
        _assert_deep_equal(scalar, columnar)


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
    """An event tracer that records its staged buffer's largest size."""

    def __init__(self, capacity):
        super().__init__(capacity)
        self.peak = 0

    def emit(self, *args, **kwargs):
        super().emit(*args, **kwargs)
        if self._staged is not None:
            self.peak = max(self.peak, len(self._staged))


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
        for name in ("events.jsonl", "trace.json"):
            assert ((tmp_path / "scalar" / name).read_bytes()
                    == (tmp_path / "columnar" / name).read_bytes()), name

    def test_failing_probes_keep_only_summaries(self, telemetry_trace):
        res, tele = _traced_search(telemetry_trace, "scr", "columnar",
                                   _SPAN_RATE)
        events = tele.tracer.events()
        summaries = [e for e in events if e.kind == "sim.run"]
        assert len(summaries) == res.iterations
        passing = {rate for rate, loss in res.probes if loss <= 0.04}
        assert passing and len(passing) < res.iterations
        # Per-packet and span records are retained only inside a passing
        # probe's window: between its predecessor's summary and its own.
        kept_windows = [s.fields["rate_pps"] in passing for s in summaries]
        window = 0
        for e in events:
            if e.kind == "sim.run":
                window += 1
            elif e.kind.startswith(("span.", "core.", "scr.", "nic.")):
                assert kept_windows[window], e
        failing = [s for s in summaries if s.fields["rate_pps"] not in passing]
        assert any(s.fields["ring_dropped"] for s in failing)

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
        assert small[5] <= 64 < big[5]  # the span-id memo is bounded too

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
