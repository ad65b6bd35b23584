"""Cache (L2) and shared-line (bounce + serialization) models."""

import pytest

from repro.cpu import L2Model, LineTable
from repro.parallel.shared import SharedAtomicEngine
from repro.programs.registry import make_program


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


def _holds(hold):
    """A hold that is the same whether or not the line bounced."""
    return (hold, hold)


class TestBounceTracker:
    """The bounce rule of the shared line record."""

    def test_first_access_never_bounces(self):
        lines = LineTable()
        assert lines.advance(0, "k", 0.0, _holds(0.0))[0] is False

    def test_same_core_never_bounces(self):
        lines = LineTable()
        lines.advance(0, "k", 0.0, _holds(0.0))
        assert lines.advance(0, "k", 0.0, _holds(0.0))[0] is False

    def test_cross_core_bounces_with_transfer(self):
        lines = LineTable()
        lines.advance(0, "k", 0.0, _holds(0.0))
        assert lines.advance(1, "k", 0.0, _holds(0.0))[0] is True
        # The shared engines charge a bounced line's stall: the atomic's
        # read stall (and its transfer: the stall plus the exclusive
        # hold), and the global entry's.  Far-apart starts: no waits.
        eng = SharedAtomicEngine(make_program("ddos"), 2)
        assert eng.contention.line_transfer_ns == 70
        eng.packet_terms(0, "k", 0.0)
        eng.l2.access(1, "k")  # resident on core 1: no spill
        service, compute, wait, transfer, misses, _ = eng.packet_terms(
            1, "k", 1e6)
        hold = eng.contention.atomic_hold_ns()
        assert (wait, misses) == (0.0, 1.0)
        assert service - eng.costs.d - compute - hold == pytest.approx(70)
        assert transfer == eng._transfer[1] == 70 + hold
        eng.global_terms(0, 0.0)
        stall, wait, misses, _ = eng.global_terms(1, 1e6)
        assert (stall, wait, misses) == (70, 0.0, 1.0)

    def test_bounce_delays_the_update_by_its_lead(self):
        """An atomic's read stall comes before its RMW: a bounced update
        begins ``lead`` later, one whose line stayed does not."""
        lines = LineTable()
        lines.advance(0, "k", 0.0, (10.0, 50.0))           # free at 10
        bounced, wait, hold = lines.advance(1, "k", 0.0, (10.0, 50.0),
                                            70.0)          # begins at 70
        assert (bounced, wait, hold) == (True, 0.0, 50.0)  # free at 120
        assert lines.advance(1, "k", 100.0, (10.0, 50.0),
                             70.0) == (False, 20.0, 10.0)

    def test_ping_pong_counts_every_bounce(self):
        lines = LineTable()
        for i in range(10):
            lines.advance(i % 2, "k", 0.0, _holds(0.0))
        assert lines.bounces == 9
        assert lines.accesses == 10

    def test_forget_clears_ownership(self):
        lines = LineTable()
        lines.advance(0, "k", 0.0, _holds(0.0))
        lines.forget("k")
        assert lines.advance(1, "k", 0.0, _holds(0.0)) == (False, 0.0, 0.0)

    def test_reset(self):
        lines = LineTable()
        lines.advance(0, "k", 0.0, _holds(0.0))
        lines.advance(1, "k", 0.0, _holds(0.0))
        lines.reset()
        assert lines.bounces == 0 and lines.accesses == 0
        assert lines.advance(1, "k", 0.0, _holds(0.0))[0] is False


class TestSerializationTable:
    """The wait rule of the shared line record (one core: no bounces)."""

    @staticmethod
    def wait(lines, key, start, hold):
        return lines.advance(0, key, start, _holds(hold))[1]

    def test_uncontended_no_wait(self):
        assert self.wait(LineTable(), "k", 100.0, 50.0) == 0.0

    def test_back_to_back_waits(self):
        lines = LineTable()
        self.wait(lines, "k", 100.0, 50.0)  # free at 150
        assert self.wait(lines, "k", 120.0, 50.0) == 30.0  # waits till 150

    def test_throughput_cap_is_one_over_hold(self):
        """N acquisitions at time 0 serialize: last waits (N-1)*hold."""
        lines = LineTable()
        waits = [self.wait(lines, "k", 0.0, 70.0) for _ in range(10)]
        assert waits[-1] == pytest.approx(9 * 70.0)
        assert lines.contended == 9
        assert lines.total_wait_ns == sum(waits)

    def test_distinct_keys_independent(self):
        lines = LineTable()
        self.wait(lines, "a", 0.0, 100.0)
        assert self.wait(lines, "b", 0.0, 100.0) == 0.0

    def test_rejects_negative_hold(self):
        with pytest.raises(ValueError):
            self.wait(LineTable(), "k", 0.0, -1.0)
        lines = LineTable()
        self.wait(lines, "k", 0.0, 1.0)
        with pytest.raises(ValueError):
            self.wait(lines, "k", 0.0, -1.0)

    def test_reset(self):
        lines = LineTable()
        self.wait(lines, "k", 0.0, 50.0)
        self.wait(lines, "k", 0.0, 50.0)
        lines.reset()
        assert lines.accesses == 0
        assert lines.contended == 0 and lines.total_wait_ns == 0.0
        assert self.wait(lines, "k", 0.0, 50.0) == 0.0
