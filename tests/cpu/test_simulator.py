"""The discrete-event simulator: capacity, drops, wire limits."""

import pytest

from repro.cpu import PerfTrace, simulate
from repro.cpu.counters import CoreCounters, SystemCounters
from repro.faults import FaultPlan, FaultSpec
from repro.packet import make_udp_packet
from repro.programs import make_program
from repro.traffic import Trace


class FixedServiceEngine:
    """Minimal engine: round-robin, constant service time."""

    name = "fixed"

    def __init__(self, num_cores, service_ns, extra_wire=0):
        self.num_cores = num_cores
        self._service = service_ns
        self._extra_wire = extra_wire
        self.counters = SystemCounters()
        self._rr = 0

    def reset(self):
        self.counters.cores = [CoreCounters(core_id=i) for i in range(self.num_cores)]
        self._rr = 0

    def wire_len(self, pp):
        return pp.wire_len + self._extra_wire

    def steer(self, pp):
        core = self._rr
        self._rr = (self._rr + 1) % self.num_cores
        return core

    def service_ns(self, core, pp, start_ns):
        self.counters.cores[core].charge_packet(dispatch_ns=self._service, compute_ns=0)
        return self._service


def make_perf_trace(n=3000, wire_len=192):
    pkts = [make_udp_packet(i % 50 + 1, 2, 3, 4) for i in range(n)]
    trace = Trace(pkts).truncated(wire_len)
    return PerfTrace.from_trace(trace, make_program("ddos"))


@pytest.fixture(scope="module")
def perf_trace():
    return make_perf_trace()


def test_below_capacity_no_loss(perf_trace):
    engine = FixedServiceEngine(1, service_ns=100)  # capacity 10 Mpps
    res = simulate(perf_trace, 5e6, engine)
    assert res.loss_fraction == 0.0
    assert res.processed == res.offered


def test_above_capacity_loses(perf_trace):
    engine = FixedServiceEngine(1, service_ns=100)
    res = simulate(perf_trace, 20e6, engine)
    # at 2x overload roughly half the packets can't be processed in time
    assert res.loss_fraction > 0.3


def test_loss_scales_with_overload(perf_trace):
    engine = FixedServiceEngine(1, service_ns=100)
    mild = simulate(perf_trace, 12e6, engine).loss_fraction
    severe = simulate(perf_trace, 40e6, engine).loss_fraction
    assert severe > mild > 0


def test_more_cores_raise_capacity(perf_trace):
    one = FixedServiceEngine(1, service_ns=100)
    four = FixedServiceEngine(4, service_ns=100)
    rate = 30e6
    assert simulate(perf_trace, rate, four).loss_fraction < simulate(
        perf_trace, rate, one
    ).loss_fraction


def test_per_core_packets_balanced_round_robin(perf_trace):
    engine = FixedServiceEngine(4, service_ns=50)
    res = simulate(perf_trace, 1e6, engine)
    assert max(res.per_core_packets) - min(res.per_core_packets) <= 1


def test_wire_saturation_drops(perf_trace):
    """Huge frames at a tiny line rate: the wire, not the CPU, drops."""
    engine = FixedServiceEngine(8, service_ns=1, extra_wire=1400)
    res = simulate(perf_trace, 5e6, engine, line_rate_gbps=1.0)
    assert res.wire_dropped > 0


def test_wire_headroom_no_drops(perf_trace):
    engine = FixedServiceEngine(1, service_ns=100)
    res = simulate(perf_trace, 5e6, engine, line_rate_gbps=100.0)
    assert res.wire_dropped == 0


def test_ring_capacity_limits_backlog(perf_trace):
    engine = FixedServiceEngine(1, service_ns=1000)
    res = simulate(perf_trace, 100e6, engine, ring_capacity=16)
    assert res.ring_dropped > 0


def test_achieved_rate_capped_at_capacity(perf_trace):
    engine = FixedServiceEngine(2, service_ns=100)  # 20 Mpps total
    res = simulate(perf_trace, 100e6, engine)
    assert res.achieved_mpps <= 21


def test_burst_mode_runs(perf_trace):
    engine = FixedServiceEngine(2, service_ns=100)
    res = simulate(perf_trace, 5e6, engine, burst_size=8)
    assert res.processed > 0


def test_rejects_bad_rate(perf_trace):
    with pytest.raises(ValueError):
        simulate(perf_trace, 0, FixedServiceEngine(1, 100))


def test_result_accounting_consistent(perf_trace):
    """Every offered packet ends in exactly one bucket — clean, and with
    drop-only faults between the sequencer and the cores."""
    plan = FaultPlan(FaultSpec.create(seed=5, drop_rate=0.05))
    for faults in (None, plan):
        engine = FixedServiceEngine(1, service_ns=500)
        res = simulate(perf_trace, 50e6, engine, faults=faults)
        fault_dropped = res.fault_stats["fault_dropped"] if faults else 0
        assert (
            res.processed + res.wire_dropped + res.pcie_dropped
            + res.ring_dropped + res.unfinished + fault_dropped
            == res.offered
        )
    assert fault_dropped > 0


def test_pcie_saturation_drops(perf_trace):
    """A narrow host interconnect drops before the CPUs do."""
    engine = FixedServiceEngine(8, service_ns=1, extra_wire=1400)
    res = simulate(perf_trace, 5e6, engine, line_rate_gbps=100.0, pcie_rate_gbps=1.0)
    assert res.pcie_dropped > 0


def test_pcie_default_headroom(perf_trace):
    engine = FixedServiceEngine(1, service_ns=100)
    res = simulate(perf_trace, 5e6, engine)
    assert res.pcie_dropped == 0


class TestPerfTrace:
    def test_lowering_counts_unique_keys(self, perf_trace):
        assert perf_trace.unique_keys == 50

    def test_records_carry_hashes_and_wire_len(self, perf_trace):
        pp = perf_trace.records[0]
        assert pp.wire_len == 192
        assert pp.hash_l3 != pp.hash_l4
        assert pp.valid

    def test_invalid_packet_flagged(self):
        from repro.packet import Packet

        trace = Trace([Packet()])
        pt = PerfTrace.from_trace(trace, make_program("ddos"))
        assert not pt.records[0].valid
