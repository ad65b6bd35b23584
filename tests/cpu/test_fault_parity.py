"""Drop-only fault plans on the columnar hot path: bit-identical or nothing.

A ``FaultSpec`` whose only fault kind is drops (``drop_rate`` /
``drop_indices``) commits columnar on ``scr``, ``relaxed_scr`` and
``rss``: a stolen packet is admitted and steered but never enqueued, and
SCR charges the gap it leaves to the core's next valid service (window
catch-up, Algorithm 1 peer-log catch-up, or a quarantine and epoch
resync).  Every run here must commit and equal the scalar event loop in
its whole ``SimResult`` — counters and ``fault_stats`` included — and,
when observed, in its retained event stream, ``type_counts`` and
``emitted``.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.cpu import PerfTrace, simulate
from repro.faults import FaultPlan, FaultSpec
from repro.obs import SpanEmitter, SpanSampler
from repro.parallel import make_engine
from repro.programs import make_program
from repro.telemetry import Telemetry
from tests.telemetry.derived import chrome_doc

from .test_hotpath_parity import (  # noqa: F401  (telemetry_trace: fixture)
    _SPAN_RATE,
    _assert_deep_equal,
    _count_commits,
    _traced_search,
    telemetry_trace,
)

_TECHNIQUES = ("scr", "relaxed_scr", "rss")


def _trace(n, flows, invalid=(), seed=0):
    """A synthetic ``n``-packet trace over ``flows`` keys; the rows in
    ``invalid`` never touch state."""
    rng = np.random.default_rng(seed)
    valid = np.ones(n, dtype=bool)
    valid[list(invalid)] = False
    hashes = [rng.integers(0, 2 ** 32, n, dtype=np.uint32) for _ in range(3)]
    return PerfTrace.from_columns(
        "ddos", "synthetic", list(range(flows)),
        rng.integers(0, flows, n, dtype=np.int64), *hashes,
        np.full(n, 64, dtype=np.int64), valid, np.zeros(n, dtype=bool))


def _run_pair(trace, technique, cores, spec, engine_kw=None, l2_entries=None,
              observed=False, rate=2e6, **sim_kw):
    """Both hot paths on one run: (SimResult, events, type_counts,
    emitted) per mode."""
    out = []
    for mode in ("scalar", "columnar"):
        tele = Telemetry()
        tele.spans = SpanEmitter(tele.tracer, SpanSampler(7, 0.3))
        watch = dict(tracer=tele.tracer, spans=tele.spans) if observed else {}
        engine = make_engine(technique, make_program("ddos"), cores,
                             **(engine_kw or {}), **watch)
        if l2_entries is not None:
            engine.l2.capacity_entries = l2_entries
        res = simulate(trace, rate, engine, hotpath=mode,
                       faults=FaultPlan(spec), collect_latency=True,
                       **sim_kw, **watch)
        out.append((res, [e.to_dict() for e in tele.tracer.events()],
                    dict(tele.tracer.type_counts), tele.tracer.emitted))
    return out


def _assert_parity(runs):
    (scalar, *scalar_tele), (columnar, *columnar_tele) = runs
    _assert_deep_equal(scalar, columnar)
    assert scalar_tele == columnar_tele
    return columnar


class TestDropMask:
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(-2 ** 70, 2 ** 70),
           rate=st.floats(0.0, 0.99),
           indices=st.lists(st.integers(-5, 600), max_size=8),
           count=st.integers(0, 600))
    def test_equals_the_scalar_decision_at_every_index(self, seed, rate,
                                                       indices, count):
        plan = FaultPlan(FaultSpec.create(seed=seed, drop_rate=rate,
                                          drop_indices=indices))
        mask = plan.drop_mask(count)
        assert mask.dtype == bool and len(mask) == count
        assert mask.tolist() == [plan.drops(i) for i in range(count)]
        assert plan.drop_mask(count) is mask

    def test_only_drop_plans_are_drop_only(self):
        assert FaultPlan(FaultSpec.create(drop_rate=0.1)).drops_only
        assert FaultPlan(FaultSpec.create(drop_indices=[0])).drops_only
        assert not FaultPlan(FaultSpec.create()).drops_only
        for extra in (dict(pop_drop_rate=0.1), dict(duplicate_rate=0.1),
                      dict(reorder_rate=0.1), dict(truncate_rate=0.1),
                      dict(core_stalls=[(0, 1, 5.0)]),
                      dict(core_kills=[(0, 1)])):
            spec = FaultSpec.create(drop_rate=0.1, **extra)
            assert not FaultPlan(spec).drops_only, extra


class TestPinnedDropCases:
    """Each case pins one shape of the gap charge; the counters named
    show it fired."""

    @pytest.mark.parametrize(
        "technique, cores, spec_kw, engine_kw, sim_kw, invalid, fired", [
            pytest.param("scr", 4, dict(drop_indices=[0]), {}, {}, (),
                         ("fault_gaps", "resyncs"), id="index-0"),
            pytest.param("scr", 3, dict(drop_indices=[5, 8, 11, 14]), {}, {},
                         (), ("resyncs",), id="back-to-back-one-core"),
            pytest.param("scr", 6, dict(drop_indices=[0, 1, 2, 3, 4]),
                         {}, {}, (), ("resyncs",), id="first-k-1-steered"),
            pytest.param("scr", 2, dict(drop_indices=[10, 30]), {}, {},
                         (12, 14, 16, 32), ("resyncs",),
                         id="drop-then-invalid"),
            pytest.param("scr", 4, dict(drop_rate=0.05, seed=3),
                         dict(num_slots=16), {}, (),
                         ("fault_gaps_covered",), id="covered-window"),
            pytest.param("scr", 4, dict(drop_rate=0.05, seed=3),
                         dict(with_recovery=True), {}, (), ("fault_gaps",),
                         id="algorithm-1"),
            pytest.param("relaxed_scr", 5, dict(drop_rate=0.05, seed=3), {},
                         {}, (), ("resyncs",), id="relaxed-scr"),
            pytest.param("scr", 4, dict(drop_rate=0.05, seed=3), {},
                         dict(burst_size=4), (), ("resyncs",), id="bursts"),
            pytest.param("scr", 3, dict(drop_rate=0.05, seed=3), {},
                         dict(rate=6e7, ring_capacity=8), (),
                         ("resyncs", "ring_dropped"), id="ring-overflow"),
            pytest.param("scr", 1, dict(drop_rate=0.05, seed=3), {}, {}, (),
                         ("resyncs",), id="single-core"),
            pytest.param("rss", 4, dict(drop_rate=0.05, seed=3), {},
                         dict(rate=6e7, ring_capacity=8), (),
                         ("fault_dropped", "ring_dropped"), id="rss"),
            pytest.param("scr", 4, dict(drop_rate=0.05, seed=3),
                         dict(extra_compute_ns=12.7), {}, (3, 9),
                         ("resyncs",), id="extra-compute"),
            pytest.param("scr", 4, dict(drop_rate=0.05, seed=3),
                         dict(extra_compute_ns=12.7, num_slots=16), {}, (),
                         ("fault_gaps_covered",),
                         id="extra-compute-covered-window"),
            pytest.param("scr", 4, dict(drop_rate=0.05, seed=3),
                         dict(extra_compute_ns=12.7, with_recovery=True), {},
                         (), ("fault_gaps",), id="extra-compute-algorithm-1"),
            pytest.param("relaxed_scr", 5, dict(drop_rate=0.05, seed=3),
                         dict(extra_compute_ns=12.7), {}, (), ("resyncs",),
                         id="extra-compute-relaxed-scr"),
            pytest.param("scr", 3, dict(drop_rate=0.05, seed=3),
                         dict(extra_compute_ns=12.7),
                         dict(rate=6e7, ring_capacity=8), (),
                         ("resyncs", "ring_dropped"),
                         id="extra-compute-ring-overflow"),
        ])
    @pytest.mark.parametrize("observed", [False, True],
                             ids=["plain", "observed"])
    def test_commits_and_matches(self, monkeypatch, technique, cores,
                                 spec_kw, engine_kw, sim_kw, invalid, fired,
                                 observed):
        commits = _count_commits(monkeypatch)
        trace = _trace(300, 40, invalid)
        columnar = _assert_parity(_run_pair(
            trace, technique, cores, FaultSpec.create(**spec_kw), engine_kw,
            observed=observed, grace_fraction=0.1, **sim_kw))
        assert commits == [True]
        stats = dict(columnar.fault_stats, ring_dropped=columnar.ring_dropped)
        for name in fired:
            assert stats[name] > 0, name

    def test_gap_lands_on_the_next_valid_packet(self):
        """Invalid packets never pay a gap: with every packet after the
        drop on its core invalid, no gap is charged at all."""
        invalid = range(2, 300, 2)  # core 0 of 2 serves invalid packets
        res = _assert_parity(_run_pair(
            _trace(300, 40, invalid), "scr", 2,
            FaultSpec.create(drop_indices=[0])))
        assert res.fault_stats["fault_dropped"] == 1
        assert res.fault_stats["fault_gaps"] == 0


class TestWalkFallback:
    def test_unsettled_cores_are_walked_exactly(self, monkeypatch):
        """With one settling round, every core whose gaps move is answered
        by the exact per-core walk from its first packet: still a commit,
        still equal to the event loop."""
        import repro.cpu.columnar as columnar

        walks = []
        walk = columnar._Drain._walk

        def counting(self, rows, p, *args):
            walks.append(p)
            return walk(self, rows, p, *args)

        monkeypatch.setattr(columnar._Drain, "max_rounds", 1)
        monkeypatch.setattr(columnar._Drain, "_walk", counting)
        commits = _count_commits(monkeypatch)
        for observed in (False, True):
            _assert_parity(_run_pair(
                _trace(300, 40, range(0, 300, 7)), "scr", 3,
                FaultSpec.create(seed=3, drop_rate=0.05),
                dict(with_recovery=True), l2_entries=8, observed=observed,
                grace_fraction=0.1))
        assert commits == [True, True]
        assert walks and set(walks) == {0}


class TestRandomDropPlans:
    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(technique=st.sampled_from(_TECHNIQUES),
           cores=st.integers(1, 8),
           extra_slots=st.integers(0, 8),
           with_recovery=st.booleans(),
           drop_rate=st.sampled_from([0.0, 0.01, 0.05, 0.2, 0.5]),
           drop_indices=st.lists(st.integers(0, 249), max_size=6),
           invalid=st.lists(st.integers(0, 249), max_size=60),
           rate=st.floats(6.0, 8.5).map(lambda e: 10.0 ** e),
           ring_capacity=st.integers(2, 64),
           burst_size=st.integers(1, 8),
           l2_entries=st.sampled_from([None, 4, 16]),
           seed=st.integers(0, 50),
           observed=st.booleans())
    @example(technique="scr", cores=4, extra_slots=0, with_recovery=False,
             drop_rate=0.0, drop_indices=[0, 4, 8, 1, 2], invalid=[12, 16],
             rate=1e8, ring_capacity=4, burst_size=1, l2_entries=4, seed=0,
             observed=True)
    def test_commits_and_matches(self, monkeypatch, technique, cores,
                                 extra_slots, with_recovery, drop_rate,
                                 drop_indices, invalid, rate, ring_capacity,
                                 burst_size, l2_entries, seed, observed):
        """From underload to ring overflow (the per-core walk), with the
        window covering gaps or not, Algorithm 1 on or off, bursts and a
        tiny L2: the run commits and equals the event loop."""
        spec = FaultSpec.create(seed=seed, drop_rate=drop_rate,
                                drop_indices=drop_indices or [0])
        engine_kw = {}
        if technique != "rss":
            engine_kw = dict(num_slots=cores + extra_slots,
                             with_recovery=with_recovery)
        with monkeypatch.context() as patch:
            commits = _count_commits(patch)
            _assert_parity(_run_pair(
                _trace(250, 30, invalid, seed), technique, cores, spec,
                engine_kw, l2_entries, observed, rate=rate,
                ring_capacity=ring_capacity, burst_size=burst_size,
                grace_fraction=0.1))
        assert commits == [True]


class TestTracedSearch:
    @pytest.mark.parametrize("technique", _TECHNIQUES)
    def test_find_mlffr_streams_and_artifacts_identical(
            self, telemetry_trace, monkeypatch, tmp_path, technique):
        """A traced, span-sampled search under 2 % drops: every probe
        commits, and the whole retained stream — ``fault.drop``, the
        quarantine and resync records and their spans in the loop's
        order — plus counts and artifact bytes equal the event loop's."""
        commits = _count_commits(monkeypatch)
        plan = FaultPlan(FaultSpec.create(seed=3, drop_rate=0.02))
        runs = {}
        for mode in ("scalar", "columnar"):
            res, tele = _traced_search(telemetry_trace, technique, mode,
                                       _SPAN_RATE, faults=plan)
            tele.write_artifact(tmp_path / mode, command="parity",
                                num_cores=2)
            runs[mode] = (res.probes, [e.to_dict() for e in tele.tracer.events()],
                          tele.tracer.type_counts, tele.tracer.emitted)
        assert runs["scalar"] == runs["columnar"]
        assert commits and all(commits)
        kinds = {e["kind"] for e in runs["columnar"][1]}
        assert {"fault.drop", "span.fault_drop"} <= kinds
        if technique != "rss":
            assert {"recovery.quarantine", "recovery.resync",
                    "span.quarantine", "span.resync"} <= kinds
        assert ((tmp_path / "scalar" / "events.jsonl").read_bytes()
                == (tmp_path / "columnar" / "events.jsonl").read_bytes())
        assert (chrome_doc(tmp_path / "scalar")
                == chrome_doc(tmp_path / "columnar"))
