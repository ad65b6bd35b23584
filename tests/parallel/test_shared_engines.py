"""Shared-state engines: atomics vs locks, serialization, bouncing."""

import pytest

from repro.cpu import PerfTrace, simulate
from repro.packet import make_udp_packet
from repro.parallel import SharedAtomicEngine, SharedLockEngine, make_shared_engine
from repro.programs import make_program, program_names
from repro.traffic import Trace


def hot_key_trace(n=2000, sources=1):
    """All packets hit `sources` state keys — maximal contention at 1."""
    pkts = [make_udp_packet(1 + (i % sources), 2, 3, 4) for i in range(n)]
    return PerfTrace.from_trace(Trace(pkts).truncated(192), make_program("ddos"))


def spread_trace(n=2000, sources=500):
    return hot_key_trace(n, sources)


def test_factory_picks_atomics_for_counters():
    assert isinstance(make_shared_engine(make_program("ddos"), 2), SharedAtomicEngine)
    assert isinstance(
        make_shared_engine(make_program("heavy_hitter"), 2), SharedAtomicEngine
    )


def test_factory_picks_locks_for_complex_updates():
    for name in ("conntrack", "token_bucket", "port_knocking"):
        assert isinstance(
            make_shared_engine(make_program(name), 2), SharedLockEngine
        )


def test_atomic_engine_rejects_lock_programs():
    with pytest.raises(ValueError, match="too complex"):
        SharedAtomicEngine(make_program("conntrack"), 2)


def test_round_robin_steering():
    eng = make_shared_engine(make_program("ddos"), 3)
    pp = hot_key_trace(4).records
    assert [eng.steer(p) for p in pp] == [0, 1, 2, 0]


def test_single_core_no_contention_penalty():
    eng = SharedAtomicEngine(make_program("ddos"), 1)
    res = simulate(hot_key_trace(), 1e6, eng)
    # per-packet time = t + atomic_ns (+ tiny spill)
    mean = sum(c.busy_ns for c in res.counters.cores) / res.processed
    assert mean < eng.costs.t + eng.contention.atomic_ns + 2


def test_hot_key_serializes_atomics():
    """One hot counter caps the system near 1/transfer regardless of cores."""
    eng = SharedAtomicEngine(make_program("ddos"), 8)
    res = simulate(hot_key_trace(), 100e6, eng)
    cap = 1e9 / eng.contention.atomic_hold_ns() / 1e6  # ≈ 14.3 Mpps
    assert res.achieved_mpps < cap * 1.3


def test_spread_keys_avoid_serialization():
    eng = SharedAtomicEngine(make_program("ddos"), 8)
    res_hot = simulate(hot_key_trace(), 60e6, eng)
    eng2 = SharedAtomicEngine(make_program("ddos"), 8)
    res_spread = simulate(spread_trace(), 60e6, eng2)
    assert res_spread.loss_fraction < res_hot.loss_fraction


def test_lock_engine_collapses_with_cores_on_hot_key():
    """The paper's catastrophic shared-lock behaviour at ≥3 cores."""
    def capacity(k):
        prog = make_program("token_bucket")
        eng = SharedLockEngine(prog, k)
        trace = PerfTrace.from_trace(
            Trace([make_udp_packet(1, 2, 3, 4) for _ in range(2000)]).truncated(192),
            prog,
        )
        res = simulate(trace, 50e6, eng)
        return res.achieved_mpps

    assert capacity(7) < capacity(2)


def test_lock_wait_recorded_in_counters():
    eng = SharedLockEngine(make_program("token_bucket"), 4)
    res = simulate(hot_key_trace(), 50e6, eng)
    total_wait = sum(c.wait_ns for c in res.counters.cores)
    assert total_wait > 0


def test_lock_latency_includes_spinning():
    """Fig. 8: shared-lock program latency balloons under contention."""
    contended = SharedLockEngine(make_program("token_bucket"), 7)
    res_c = simulate(hot_key_trace(), 50e6, contended)
    alone = SharedLockEngine(make_program("token_bucket"), 1)
    res_a = simulate(hot_key_trace(), 5e6, alone)
    assert (
        res_c.counters.mean_compute_latency_ns()
        > 3 * res_a.counters.mean_compute_latency_ns()
    )


def test_bounces_lower_l2_hit_ratio():
    eng = SharedAtomicEngine(make_program("ddos"), 4)
    res = simulate(hot_key_trace(), 20e6, eng)
    assert res.counters.mean_l2_hit_ratio() < 0.5


def test_invalid_packets_skip_state_machinery():
    from repro.packet import Packet

    prog = make_program("ddos")
    trace = PerfTrace.from_trace(Trace([Packet() for _ in range(100)]), prog)
    eng = SharedAtomicEngine(prog, 2)
    res = simulate(trace, 1e6, eng)
    assert res.processed == 100
    assert all(c.l2_accesses == 0 for c in res.counters.cores)


def test_reset_clears_serialization_state():
    eng = SharedAtomicEngine(make_program("ddos"), 2)
    simulate(hot_key_trace(500), 20e6, eng)
    assert eng.lines.accesses > 0 and eng.lines.bounces > 0
    eng.reset()
    assert eng.lines.accesses == 0
    assert eng.lines.bounces == 0
    assert vars(eng.lines) == vars(SharedAtomicEngine(make_program("ddos"), 2).lines)


@pytest.mark.parametrize("program", program_names())
def test_l2_hit_ratio_is_a_ratio(program):
    """A bounced access is one access and one miss, so every core's L2
    hit ratio stays in [0, 1] on both shared engines, at any load."""
    from repro.scenario import Scenario, build_perf_trace

    prog = make_program(program)
    trace = build_perf_trace(Scenario.create(
        program, "caida", "shared", 1, num_flows=60, max_packets=600))
    engines = [SharedLockEngine]
    if not prog.needs_locks:
        engines.append(SharedAtomicEngine)
    for cls in engines:
        for rate in (2e6, 4e7):
            res = simulate(trace, rate, cls(prog, 4), grace_fraction=0.1)
            for core in res.counters.cores:
                assert 0.0 <= core.l2_hit_ratio <= 1.0, (cls.name, rate)
