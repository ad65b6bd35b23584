"""Cache (L2 + bounce) and serialization-point models."""

import pytest

from repro.cpu import BounceTracker, L2Model, SerializationTable


class TestL2Model:
    def test_first_touch_is_compulsory_miss(self):
        l2 = L2Model(1)
        miss, stall = l2.access(0, "k")
        assert miss == 1.0
        assert stall > 0

    def test_repeat_access_hits_when_resident(self):
        l2 = L2Model(1)
        l2.access(0, "k")
        miss, stall = l2.access(0, "k")
        assert miss == 0.0 and stall == 0.0

    def test_cores_have_private_residency(self):
        l2 = L2Model(2)
        l2.access(0, "k")
        miss, _ = l2.access(1, "k")
        assert miss == 1.0  # core 1 never saw it

    def test_capacity_spill_kicks_in(self):
        l2 = L2Model(1, l2_bytes=960, entry_bytes=96)  # 10 entries fit
        for i in range(50):
            l2.access(0, i)
        miss, stall = l2.access(0, 0)
        assert 0 < miss < 1
        assert stall == pytest.approx(miss * l2.spill_ns)

    def test_no_spill_under_capacity(self):
        l2 = L2Model(1, l2_bytes=96_000, entry_bytes=96)
        for i in range(100):
            l2.access(0, i)
        assert l2.access(0, 5) == (0.0, 0.0)

    def test_reset(self):
        l2 = L2Model(1)
        l2.access(0, "k")
        assert l2.access(0, "k") == (0.0, 0.0)
        l2.reset()
        assert l2.access(0, "k") == (1.0, l2.spill_ns)  # compulsory again

    def test_rejects_zero_cores(self):
        with pytest.raises(ValueError):
            L2Model(0)


class TestBounceTracker:
    def test_first_access_never_bounces(self):
        bt = BounceTracker()
        assert bt.access(0, "k") == (False, 0.0)

    def test_same_core_never_bounces(self):
        bt = BounceTracker()
        bt.access(0, "k")
        assert bt.access(0, "k") == (False, 0.0)

    def test_cross_core_bounces_with_transfer(self):
        bt = BounceTracker(transfer_ns=70)
        bt.access(0, "k")
        bounced, stall = bt.access(1, "k")
        assert bounced and stall == 70

    def test_ping_pong_counts_every_bounce(self):
        bt = BounceTracker()
        for i in range(10):
            bt.access(i % 2, "k")
        assert bt.bounces == 9
        assert bt.accesses == 10

    def test_forget_clears_ownership(self):
        bt = BounceTracker()
        bt.access(0, "k")
        bt.forget("k")
        assert bt.access(1, "k") == (False, 0.0)

    def test_reset(self):
        bt = BounceTracker()
        bt.access(0, "k")
        bt.access(1, "k")
        bt.reset()
        assert bt.bounces == 0 and bt.accesses == 0


class TestSerializationTable:
    def test_uncontended_no_wait(self):
        t = SerializationTable()
        assert t.acquire("k", 100.0, 50.0) == 0.0

    def test_back_to_back_waits(self):
        t = SerializationTable()
        t.acquire("k", 100.0, 50.0)  # free at 150
        assert t.acquire("k", 120.0, 50.0) == 30.0  # waits till 150

    def test_throughput_cap_is_one_over_hold(self):
        """N acquisitions at time 0 serialize: last waits (N-1)*hold."""
        t = SerializationTable()
        waits = [t.acquire("k", 0.0, 70.0) for _ in range(10)]
        assert waits[-1] == pytest.approx(9 * 70.0)

    def test_distinct_keys_independent(self):
        t = SerializationTable()
        t.acquire("a", 0.0, 100.0)
        assert t.acquire("b", 0.0, 100.0) == 0.0

    def test_rejects_negative_hold(self):
        with pytest.raises(ValueError):
            SerializationTable().acquire("k", 0.0, -1.0)

    def test_reset(self):
        t = SerializationTable()
        t.acquire("k", 0.0, 50.0)
        t.reset()
        assert t.acquisitions == 0
        assert t.acquire("k", 0.0, 50.0) == 0.0
