"""SCR performance engine: the Appendix A cost structure and overheads."""

import pytest

from repro.cpu import TABLE4_PARAMS, PerfTrace, simulate
from repro.faults import FaultPlan, FaultSpec
from repro.packet import make_udp_packet
from repro.parallel import ScrEngine, make_engine
from repro.programs import make_program
from repro.traffic import Trace


def elephant(n=3000, prog="ddos", wire=192):
    pkts = [make_udp_packet(1, 2, 3, 4) for _ in range(n)]
    return PerfTrace.from_trace(Trace(pkts).truncated(wire), make_program(prog))


def capacity_mpps(engine, pt, probe=400e6, faults=None):
    return simulate(pt, probe, engine, faults=faults).achieved_mpps


def drops(rate, seed=7):
    return FaultPlan(FaultSpec.create(seed=seed, drop_rate=rate))


def test_round_robin_spray():
    eng = ScrEngine(make_program("ddos"), 3)
    cores = [eng.steer(pp) for pp in elephant(6).records]
    assert cores == [0, 1, 2, 0, 1, 2]


def test_single_flow_scales_with_cores():
    """The headline claim (Figure 1): a single flow scales near-linearly."""
    pt = elephant()
    caps = {k: capacity_mpps(ScrEngine(make_program("ddos"), k), pt) for k in (1, 2, 4)}
    assert caps[2] > 1.7 * caps[1]
    assert caps[4] > 2.8 * caps[1]


def test_throughput_tracks_appendix_a_model():
    pt = elephant()
    p = TABLE4_PARAMS["ddos"]
    for k in (1, 3, 7):
        measured = capacity_mpps(ScrEngine(make_program("ddos"), k), pt)
        predicted = k / (p.t + (k - 1) * p.c2) * 1e3
        assert measured == pytest.approx(predicted, rel=0.15)


def test_history_items_warm_up():
    eng = ScrEngine(make_program("ddos"), 4)
    pt = elephant(10)
    hs = []
    for pp in pt.records:
        eng.steer(pp)
        hs.append(eng._history_items())
    assert hs[:4] == [0, 1, 2, 3]
    assert all(h == 3 for h in hs[4:])


def test_wire_len_includes_history_overhead():
    prog = make_program("conntrack")
    eng = ScrEngine(prog, 4)
    pp = elephant(1, prog="conntrack").records[0]
    assert eng.wire_len(pp) == pp.wire_len + eng.codec.overhead_bytes
    assert eng.codec.overhead_bytes == 14 + 22 + 4 * prog.metadata_size


def test_nic_resident_sequencer_smaller_overhead():
    prog = make_program("ddos")
    switch = ScrEngine(prog, 4, dummy_eth=True)
    nic = ScrEngine(prog, 4, dummy_eth=False)
    assert switch.codec.overhead_bytes - nic.codec.overhead_bytes == 14


def test_no_contention_counters():
    eng = ScrEngine(make_program("ddos"), 4)
    res = simulate(elephant(), 20e6, eng)
    assert all(c.wait_ns == 0 for c in res.counters.cores)


def test_scr_latency_exceeds_sharded_latency():
    """Fig. 8: SCR pays history compute per packet, so its program latency
    is higher than RSS's — but throughput is better anyway."""
    pt = elephant()
    scr = ScrEngine(make_program("token_bucket"), 7)
    simulate(pt, 20e6, scr)
    rss = make_engine("rss", make_program("token_bucket"), 7)
    simulate(pt, 20e6, rss)
    assert (
        scr.counters.mean_compute_latency_ns()
        > rss.counters.mean_compute_latency_ns()
    )


class TestRecoveryCosts:
    def test_logging_cost_reduces_capacity(self):
        pt = elephant()
        plain = capacity_mpps(ScrEngine(make_program("port_knocking"), 4), pt)
        logged = capacity_mpps(
            ScrEngine(make_program("port_knocking"), 4, with_recovery=True), pt
        )
        assert logged < plain

    def test_loss_increases_cost_further(self):
        pt = elephant()
        lossless = capacity_mpps(
            ScrEngine(make_program("port_knocking"), 4, with_recovery=True), pt
        )
        lossy = capacity_mpps(
            ScrEngine(make_program("port_knocking"), 4, with_recovery=True),
            pt,
            faults=drops(0.01),
        )
        assert lossy <= lossless

    def test_injected_losses_counted(self):
        eng = ScrEngine(make_program("ddos"), 4, with_recovery=True)
        res = simulate(elephant(), 10e6, eng, faults=drops(0.05, seed=1))
        dropped = res.fault_stats["fault_dropped"]
        assert dropped > 0
        assert res.offered - res.processed == dropped
        # Every drop is healed on its core's next delivery; drops that
        # hit one core back to back share a single gap.
        assert 0 < res.fault_stats["fault_gaps"] <= dropped
        assert res.fault_stats["fault_gaps"] == eng.fault_gaps

    def test_loss_injection_deterministic(self):
        def run():
            eng = ScrEngine(make_program("ddos"), 4, with_recovery=True)
            res = simulate(elephant(500), 10e6, eng, faults=drops(0.05))
            return res.fault_stats["fault_dropped"], res.fault_stats["fault_gaps"]

        assert run() == run()
        assert run()[0] > 0


def test_extra_compute_slows_scaling():
    """Principle #3: when compute rivals dispatch, scaling tapers (Fig. 9)."""
    # 64-byte packets so the 100G wire never binds (t=71 ns at 7 cores
    # would exceed line rate with larger frames — that's Figure 10a's
    # effect, tested separately).
    pt = elephant(prog="forwarder", wire=64)

    def relative_speedup(extra):
        one = capacity_mpps(
            ScrEngine(make_program("forwarder"), 1, extra_compute_ns=extra), pt
        )
        seven = capacity_mpps(
            ScrEngine(make_program("forwarder"), 7, extra_compute_ns=extra), pt
        )
        return seven / one

    assert relative_speedup(0) > 5.5
    assert relative_speedup(100) < 3.5


def test_slots_must_cover_cores():
    with pytest.raises(ValueError):
        ScrEngine(make_program("ddos"), 4, num_slots=2)


def test_unknown_cost_params_rejected():
    class Oddball(type(make_program("ddos"))):
        name = "oddball"

    prog = make_program("ddos")
    prog.name = "oddball"
    with pytest.raises(KeyError, match="Table 4"):
        ScrEngine(prog, 2)
