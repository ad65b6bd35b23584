"""MLFFR binary search methodology (§4.1)."""

import pytest

from repro.bench import LOSS_THRESHOLD, SEARCH_TOLERANCE_PPS, find_mlffr
from repro.cpu import PerfTrace
from repro.cpu.counters import CoreCounters, SystemCounters
from repro.packet import make_udp_packet
from repro.programs import make_program
from repro.traffic import Trace


class FixedServiceEngine:
    name = "fixed"

    def __init__(self, num_cores, service_ns):
        self.num_cores = num_cores
        self._service = service_ns
        self.counters = SystemCounters()

    def reset(self):
        self.counters.cores = [CoreCounters(core_id=i) for i in range(self.num_cores)]
        self._rr = 0

    def wire_len(self, pp):
        return pp.wire_len

    def steer(self, pp):
        core = self._rr
        self._rr = (self._rr + 1) % self.num_cores
        return core

    def service_ns(self, core, pp, start_ns):
        self.counters.cores[core].charge_packet(self._service, 0)
        return self._service


@pytest.fixture(scope="module")
def pt():
    pkts = [make_udp_packet(i % 20 + 1, 2, 3, 4) for i in range(4000)]
    return PerfTrace.from_trace(Trace(pkts).truncated(192), make_program("ddos"))


def test_defaults_match_paper():
    assert LOSS_THRESHOLD == 0.04
    assert SEARCH_TOLERANCE_PPS == 0.4e6


def test_converges_to_known_capacity(pt):
    # 100 ns service on one core → 10 Mpps capacity.
    res = find_mlffr(pt, FixedServiceEngine(1, 100))
    assert res.mlffr_mpps == pytest.approx(10.0, rel=0.08)


def test_scales_with_cores(pt):
    res = find_mlffr(pt, FixedServiceEngine(4, 100))
    assert res.mlffr_mpps == pytest.approx(40.0, rel=0.08)


def test_search_interval_tolerance(pt):
    res = find_mlffr(pt, FixedServiceEngine(1, 100))
    # the final bracket is within the 0.4 Mpps stopping interval
    feasible = [r for r, loss in res.probes if loss <= LOSS_THRESHOLD]
    infeasible = [r for r, loss in res.probes if loss > LOSS_THRESHOLD]
    gap = min(infeasible) - max(feasible)
    assert 0 < gap <= SEARCH_TOLERANCE_PPS + 1


def test_start_above_capacity_searches_down(pt):
    res = find_mlffr(pt, FixedServiceEngine(1, 100), start_pps=80e6)
    assert res.mlffr_mpps == pytest.approx(10.0, rel=0.1)


def test_result_carries_best_simulation(pt):
    res = find_mlffr(pt, FixedServiceEngine(2, 100))
    assert res.result_at_mlffr is not None
    assert res.result_at_mlffr.loss_fraction <= LOSS_THRESHOLD


def test_iterations_counted(pt):
    res = find_mlffr(pt, FixedServiceEngine(1, 100))
    assert res.iterations == len(res.probes) > 3


def test_max_rate_cap(pt):
    # a nearly-free service hits the max_pps ceiling
    res = find_mlffr(pt, FixedServiceEngine(8, 1), max_pps=50e6)
    assert res.mlffr_pps == pytest.approx(50e6)


def test_repeatability(pt):
    """MLFFR is a stable metric (§4.1): same inputs, same answer."""
    a = find_mlffr(pt, FixedServiceEngine(2, 150)).mlffr_pps
    b = find_mlffr(pt, FixedServiceEngine(2, 150)).mlffr_pps
    assert a == b


def test_rejects_bad_start(pt):
    with pytest.raises(ValueError):
        find_mlffr(pt, FixedServiceEngine(1, 100), start_pps=0)
