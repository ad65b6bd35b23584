"""Per-packet latency sampling in the simulator."""

import pytest

from repro.cpu import PerfTrace, simulate
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
    pkts = [make_udp_packet(i % 10 + 1, 2, 3, 4) for i in range(2000)]
    return PerfTrace.from_trace(Trace(pkts).truncated(192), make_program("ddos"))


def test_disabled_by_default(pt):
    res = simulate(pt, 1e6, FixedServiceEngine(1, 100))
    assert res.latency_samples_ns is None
    with pytest.raises(ValueError, match="collect_latency"):
        res.latency_percentile_ns(0.5)


def test_unloaded_latency_equals_service_time(pt):
    res = simulate(pt, 1e6, FixedServiceEngine(2, 100), collect_latency=True)
    assert res.latency_percentile_ns(0.5) == pytest.approx(100)
    assert res.latency_percentile_ns(0.99) == pytest.approx(100)


def test_sample_count_matches_processed(pt):
    res = simulate(pt, 1e6, FixedServiceEngine(2, 100), collect_latency=True)
    assert len(res.latency_samples_ns) == res.processed


def test_queueing_inflates_tail(pt):
    # Deterministic arrivals below capacity never queue (D/D/1); bursts do:
    # the 16th packet of a burst waits 15 service times.
    res = simulate(
        pt, 8e6, FixedServiceEngine(1, 100), burst_size=16, collect_latency=True
    )
    assert res.latency_percentile_ns(0.99) > 5 * res.latency_percentile_ns(0.10)


def test_overload_latency_bounded_by_ring(pt):
    # With a 16-deep ring, worst sojourn ~ 17 service times (+grace).
    res = simulate(
        pt, 100e6, FixedServiceEngine(1, 100),
        ring_capacity=16, collect_latency=True,
    )
    assert res.latency_percentile_ns(1.0) <= 17 * 100 + 1


def test_percentile_validates_q(pt):
    res = simulate(pt, 1e6, FixedServiceEngine(1, 100), collect_latency=True)
    with pytest.raises(ValueError):
        res.latency_percentile_ns(1.5)


def test_more_cores_cut_queueing_latency(pt):
    rate = 9e6
    one = simulate(pt, rate, FixedServiceEngine(1, 100), collect_latency=True)
    four = simulate(pt, rate, FixedServiceEngine(4, 100), collect_latency=True)
    assert four.latency_percentile_ns(0.99) <= one.latency_percentile_ns(0.99)


# -- the log-bucketed histogram view (repro.telemetry) ---------------------------


def test_histogram_disabled_by_default(pt):
    res = simulate(pt, 1e6, FixedServiceEngine(1, 100))
    assert res.latency_histogram is None
    with pytest.raises(ValueError, match="collect_latency"):
        res.latency_percentiles_ns()


def test_histogram_tracks_samples(pt):
    res = simulate(pt, 1e6, FixedServiceEngine(2, 100), collect_latency=True)
    assert res.latency_histogram.count == res.processed
    # Bucketed percentiles stay within the buckets' ~9 % relative error of
    # the exact (sorted-samples) answer.
    assert res.latency_p50_ns == pytest.approx(
        res.latency_percentile_ns(0.5), rel=0.10
    )
    assert res.latency_p99_ns == pytest.approx(
        res.latency_percentile_ns(0.99), rel=0.10
    )


def test_histogram_percentile_properties_ordered(pt):
    res = simulate(
        pt, 8e6, FixedServiceEngine(1, 100), burst_size=16, collect_latency=True
    )
    assert (res.latency_p50_ns <= res.latency_p90_ns
            <= res.latency_p99_ns <= res.latency_p999_ns)


def test_histogram_percentiles_dict_keys(pt):
    res = simulate(pt, 1e6, FixedServiceEngine(1, 100), collect_latency=True)
    assert set(res.latency_percentiles_ns()) == {"p50", "p90", "p99", "p99_9"}
