"""Coupled cores on the columnar hot path: bit-identical or nothing.

``shared-atomic``, ``shared-lock`` and ``rss++`` couple their cores: a
key's serialization point and its bouncing line depend on which core
touched it last, and a migrated shard's surcharge on which service
touches its key first, all in the scalar loop's call order.  The
columnar driver serves them in one merged walk in that order.  Every run
here must commit and equal the event loop in its whole ``SimResult``,
in the engine's end state (shared line records, L2
residency, round robin, shard generations), and, when observed, in its
retained event stream, ``type_counts``, ``emitted`` and artifact bytes.
"""

import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cpu import PerfTrace, simulate
from repro.faults import FaultPlan, FaultSpec
from repro.hostprof import PhaseClock
from repro.hostprof.clock import PATH_SEP
from repro.obs import NULL_SPANS, SpanEmitter, SpanSampler
from repro.parallel import make_engine
from repro.programs import make_program
from repro.telemetry import Telemetry

from .test_hotpath_parity import (  # noqa: F401  (telemetry_trace: fixture)
    _SPAN_RATE,
    _assert_deep_equal,
    _count_commits,
    telemetry_trace,
)

#: (technique, program): atomics, spinlocks (nat also updates its global
#: port pool), and rss++ shard migration.
_ENGINES = (("shared", "ddos"), ("shared", "conntrack"), ("shared", "nat"),
            ("rss++", "ddos"))


def _trace(program, n, flows, hot, global_frac, invalid_frac, seed):
    """A synthetic ``n``-packet trace: a ``hot`` share of its packets on
    one key (contention), the rest over ``flows`` keys; some packets
    invalid and some updating the program's global entry."""
    rng = np.random.default_rng(seed)
    keys = np.where(rng.random(n) < hot, 0, rng.integers(0, flows, n))
    hashes = [rng.integers(0, 2 ** 32, n, dtype=np.uint32) for _ in range(3)]
    # A key keeps its RSS hash, as a flow does.
    hashes[0] = hashes[1] = hashes[2] = hashes[0][keys]
    return PerfTrace.from_columns(
        program, "synthetic", list(range(flows)), keys.astype(np.int64),
        *hashes, np.full(n, 64, dtype=np.int64),
        rng.random(n) >= invalid_frac, rng.random(n) < global_frac)


def _engine_state(engine):
    """What a run leaves in the engine besides its counters."""
    state = {"l2": engine.l2._resident}
    for name in ("_rr", "_shard_load", "_shard_gen", "_key_gen",
                 "_since_rebalance", "migrations"):
        if hasattr(engine, name):
            state[name] = getattr(engine, name)
    if hasattr(engine, "lines"):
        state["lines"] = dict(vars(engine.lines))
    if hasattr(engine, "indirection"):
        state["table"] = engine.indirection.table
    return state


def _run_pair(trace, technique, cores, rate, faults=None, l2_entries=None,
              observed=False, engine_kw=None, **sim_kw):
    """Both hot paths on one run: per mode, (SimResult, engine state,
    events, type_counts, emitted, artifact bytes, host phases)."""
    program = make_program(trace.program_name)
    out = []
    for mode in ("scalar", "columnar"):
        tele = Telemetry()
        tele.spans = SpanEmitter(tele.tracer, SpanSampler(7, _SPAN_RATE))
        watch = dict(tracer=tele.tracer, spans=tele.spans) if observed else {}
        engine = make_engine(technique, program, cores, **(engine_kw or {}),
                             **watch)
        if l2_entries is not None:
            engine.l2.capacity_entries = l2_entries
        clock = PhaseClock(enabled=True)
        res = simulate(trace, rate, engine, hotpath=mode, faults=faults,
                       collect_latency=True, hostprof=clock, **sim_kw,
                       **watch)
        artifact = {}
        if observed:
            with tempfile.TemporaryDirectory() as tmp:
                tele.write_artifact(Path(tmp), command="parity",
                                    num_cores=cores)
                artifact = {name: (Path(tmp) / name).read_bytes()
                            for name in ("events.jsonl", "trace.json")}
        phases = {name for path in clock.snapshot()
                  for name in path.split(PATH_SEP)}
        out.append((res, _engine_state(engine),
                    [e.to_dict() for e in tele.tracer.events()],
                    dict(tele.tracer.type_counts), tele.tracer.emitted,
                    artifact, phases))
    return out


def _assert_parity(runs):
    (scalar, scalar_state, *scalar_tele, _), (
        columnar, columnar_state, *columnar_tele, phases) = runs
    assert "sim.columnar" in phases and "sim.drain" not in phases
    _assert_deep_equal(scalar, columnar)
    assert scalar_state == columnar_state
    assert scalar_tele == columnar_tele
    return columnar


class TestCoupledParity:
    @settings(max_examples=120, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(engine=st.sampled_from(_ENGINES),
           cores=st.integers(1, 8),
           rate=st.floats(5.5, 8.5).map(lambda e: 10.0 ** e),
           ring_capacity=st.integers(1, 64),
           l2_entries=st.sampled_from([None, 2, 8]),
           burst_size=st.integers(1, 16),
           hot=st.floats(0.0, 0.95),
           global_frac=st.sampled_from([0.0, 0.3]),
           drop_rate=st.sampled_from([0.0, 0.05]),
           rebalance_every=st.integers(1, 64),
           observed=st.booleans(),
           seed=st.integers(0, 2 ** 16))
    def test_any_run_commits_and_matches(self, engine, cores, rate,
                                         ring_capacity, l2_entries,
                                         burst_size, hot, global_frac,
                                         drop_rate, rebalance_every,
                                         observed, seed):
        """Underload to ring overflow and unfinished rows, any ring, L2
        and burst, global updates, drop-only faults and rebalances."""
        technique, program = engine
        trace = _trace(program, 300, 40, hot, global_frac, 0.05, seed)
        faults = (FaultPlan(FaultSpec.create(seed=seed, drop_rate=drop_rate))
                  if drop_rate else None)
        engine_kw = ({"rebalance_every": rebalance_every}
                     if technique == "rss++" else None)
        _assert_parity(_run_pair(
            trace, technique, cores, rate, faults=faults,
            l2_entries=l2_entries, observed=observed, engine_kw=engine_kw,
            ring_capacity=ring_capacity, burst_size=burst_size,
            grace_fraction=0.01))

    @pytest.mark.parametrize("technique, program", _ENGINES)
    @pytest.mark.parametrize("rate", [2e6, 3e7], ids=["underload",
                                                      "overload"])
    def test_contended_runs_match(self, technique, program, rate):
        """A hot key on 4 cores, observed at span rate 0.1: bounces and
        (rss++) migrations at any load, waits and ring drops under
        overload."""
        trace = _trace(program, 1200, 60, 0.8, 0.2, 0.02, 3)
        columnar = _assert_parity(_run_pair(
            trace, technique, 4, rate, observed=True, ring_capacity=32,
            engine_kw=({"rebalance_every": 64} if technique == "rss++"
                       else None)))
        cores = columnar.counters.cores
        assert columnar.processed > 0
        assert sum(c.transfer_ns for c in cores) > 0
        if rate > 1e7:
            assert columnar.ring_dropped > 0
            if technique == "shared":
                assert sum(c.wait_ns for c in cores) > 0

    def test_unfinished_rows_stay_queued(self):
        """An overloaded single core at a short horizon: the final drain
        stops at the horizon, and the rest is unfinished on both paths."""
        trace = _trace("conntrack", 600, 20, 0.9, 0.0, 0.0, 5)
        columnar = _assert_parity(_run_pair(
            trace, "shared", 1, 1e8, ring_capacity=1024, grace_min_ns=0.0))
        assert columnar.unfinished > 0


def _traced_search(trace, technique, program, mode, spans_rate):
    """One traced MLFFR search over ``program`` on the ``mode`` hot path."""
    from repro.bench.mlffr import find_mlffr
    from repro.cpu.columnar import use_hotpath

    tele = Telemetry()
    if spans_rate:
        tele.spans = SpanEmitter(tele.tracer, SpanSampler(7, spans_rate))
    spans = tele.spans or NULL_SPANS
    engine = make_engine(technique, make_program(program), 2,
                         tracer=tele.tracer, spans=spans)
    with use_hotpath(mode):
        res = find_mlffr(trace, engine, start_pps=2e6, tracer=tele.tracer,
                         spans=spans)
    return res, tele


class TestTracedSearches:
    @pytest.mark.parametrize("technique, program", _ENGINES)
    @pytest.mark.parametrize("spans_rate", [0.0, _SPAN_RATE],
                             ids=["tracer", "spans"])
    def test_streams_and_artifacts_identical(self, telemetry_trace,
                                             monkeypatch, tmp_path,
                                             technique, program, spans_rate):
        """Every probe of a traced search commits, and the retained
        stream, counts and artifact bytes equal the loop's."""
        trace = telemetry_trace
        if program != "ddos":
            trace = _trace(program, 1500, 400, 0.85, 0.2, 0.01, 11)
        commits = _count_commits(monkeypatch)
        runs = {}
        for mode in ("scalar", "columnar"):
            res, tele = _traced_search(trace, technique, program, mode,
                                       spans_rate)
            tele.write_artifact(tmp_path / mode, command="parity",
                                num_cores=2)
            runs[mode] = (res.probes, res.mlffr_pps,
                          [e.to_dict() for e in tele.tracer.events()],
                          tele.tracer.type_counts, tele.tracer.emitted)
        assert runs["scalar"] == runs["columnar"]
        assert commits and all(commits)
        for name in ("events.jsonl", "trace.json"):
            assert ((tmp_path / "scalar" / name).read_bytes()
                    == (tmp_path / "columnar" / name).read_bytes()), name
