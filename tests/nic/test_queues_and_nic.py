"""RX rings and the NIC model: steering, drops, line rate."""

import pytest

from repro.nic import (
    DEFAULT_DESCRIPTORS,
    ETHERNET_OVERHEAD_BYTES,
    Nic,
    RxQueue,
    SteeringMode,
)
from repro.packet import FiveTuple, make_udp_packet


class TestRxQueue:
    def test_fifo_order(self):
        q = RxQueue(4)
        for i in range(3):
            q.enqueue(i)
        assert [q.dequeue() for _ in range(3)] == [0, 1, 2]

    def test_drop_when_full(self):
        q = RxQueue(2)
        assert q.enqueue(1) and q.enqueue(2)
        assert not q.enqueue(3)
        assert q.dropped == 1
        assert q.enqueued == 2

    def test_dequeue_empty_returns_none(self):
        assert RxQueue(2).dequeue() is None

    def test_default_capacity_is_256_descriptors(self):
        assert RxQueue().capacity == DEFAULT_DESCRIPTORS == 256

    def test_rejects_zero_capacity(self):
        with pytest.raises(ValueError):
            RxQueue(0)


class TestSteering:
    def pkt(self, src=1, dst=2, sport=3, dport=4, ts=0):
        return make_udp_packet(src, dst, sport, dport, timestamp_ns=ts)

    def test_round_robin_cycles(self):
        nic = Nic(3, SteeringMode.ROUND_ROBIN)
        assert [nic.steer(self.pkt()) for _ in range(6)] == [0, 1, 2, 0, 1, 2]

    def test_rss_l4_is_flow_stable(self):
        nic = Nic(4, SteeringMode.RSS_L4)
        q = nic.steer(self.pkt())
        assert all(nic.steer(self.pkt()) == q for _ in range(10))

    def test_rss_l3_ignores_ports(self):
        nic = Nic(4, SteeringMode.RSS_L3)
        assert nic.steer(self.pkt(sport=1)) == nic.steer(self.pkt(sport=9999))

    def test_rss_l4_distinguishes_ports(self):
        nic = Nic(64, SteeringMode.RSS_L4)
        queues = {nic.steer(self.pkt(sport=s)) for s in range(40)}
        assert len(queues) > 5

    def test_symmetric_mode_pins_both_directions(self):
        nic = Nic(16, SteeringMode.RSS_SYMMETRIC)
        fwd = self.pkt(src=11, dst=22, sport=33, dport=44)
        rev = self.pkt(src=22, dst=11, sport=44, dport=33)
        assert nic.steer(fwd) == nic.steer(rev)

    def test_flow_director_rule_overrides_rss(self):
        nic = Nic(4, SteeringMode.FLOW_DIRECTOR)
        ft = self.pkt().five_tuple()
        base = nic.steer(self.pkt())
        target = (base + 1) % 4
        nic.add_director_rule(ft, target)
        assert nic.steer(self.pkt()) == target

    def test_flow_director_falls_back_to_rss(self):
        nic = Nic(4, SteeringMode.FLOW_DIRECTOR)
        rss = Nic(4, SteeringMode.RSS_L4)
        assert nic.steer(self.pkt(src=77)) == rss.steer(self.pkt(src=77))

    def test_director_rule_bounds_checked(self):
        nic = Nic(2, SteeringMode.FLOW_DIRECTOR)
        with pytest.raises(IndexError):
            nic.add_director_rule(FiveTuple(1, 2, 3, 4), 5)

    def test_l2_mode_spreads_on_mac(self):
        nic = Nic(8, SteeringMode.RSS_L2)
        queues = set()
        for i in range(30):
            p = self.pkt()
            p.eth.src = bytes([i] * 6)
            queues.add(nic.steer(p))
        assert len(queues) > 2


class TestLineRate:
    def test_wire_time_includes_overhead(self):
        nic = Nic(1, line_rate_gbps=100)
        expected = (100 + ETHERNET_OVERHEAD_BYTES) * 8 / 100e9 * 1e9
        assert nic.wire_time_ns(100) == pytest.approx(expected)

    def test_minimum_frame_enforced(self):
        nic = Nic(1, line_rate_gbps=100)
        assert nic.wire_time_ns(10) == nic.wire_time_ns(60)

    def test_max_pps_shrinks_with_size(self):
        nic = Nic(1)
        assert nic.max_pps_for_wire_size(64) > nic.max_pps_for_wire_size(1500)

    def test_1024B_at_100g_is_nic_bound_below_12mpps(self):
        """The Figure 2 crossover: at 1024 B, 100 Gbit/s < CPU capacity."""
        nic = Nic(1, line_rate_gbps=100)
        assert nic.max_pps_for_wire_size(1024) < 12.5e6

    def test_receive_enqueues_and_counts(self):
        nic = Nic(2, SteeringMode.ROUND_ROBIN)
        for i in range(10):
            q = nic.receive(make_udp_packet(1, 2, 3, 4, timestamp_ns=i * 10_000))
            assert q is not None
        assert nic.delivered == 10

    def test_receive_drops_when_ring_full(self):
        nic = Nic(1, SteeringMode.ROUND_ROBIN, descriptors=4)
        drops = 0
        for i in range(10):
            if nic.receive(make_udp_packet(1, 2, 3, 4, timestamp_ns=i * 10_000)) is None:
                drops += 1
        assert drops == 6
        assert nic.ring_dropped == 6

    def test_receive_drops_when_wire_saturated(self):
        nic = Nic(4, SteeringMode.ROUND_ROBIN, line_rate_gbps=1, descriptors=4096)
        # 1500B frames at 1 Gbit/s take ~12 µs each; offering them every 1 ns
        # exceeds line rate massively.
        dropped = 0
        for i in range(200):
            p = make_udp_packet(1, 2, 3, 4, timestamp_ns=i)
            p.wire_len = 1500
            if nic.receive(p) is None:
                dropped += 1
        assert nic.wire_dropped > 0
        assert dropped == nic.wire_dropped + nic.ring_dropped

    def test_reset_counters(self):
        nic = Nic(1, SteeringMode.ROUND_ROBIN, descriptors=1)
        nic.receive(make_udp_packet(1, 2, 3, 4))
        nic.receive(make_udp_packet(1, 2, 3, 4))
        nic.reset_counters()
        assert nic.delivered == 0 and nic.ring_dropped == 0

    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            Nic(0)
        with pytest.raises(ValueError):
            Nic(1, line_rate_gbps=0)
