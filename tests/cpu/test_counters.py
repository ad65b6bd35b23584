"""Simulated performance counters (the Fig. 8 metrics)."""

import pytest

from repro.cpu import (
    CPU_FREQ_GHZ,
    INSNS_PER_DISPATCH,
    POLL_IPC,
    CoreCounters,
    SystemCounters,
)


def test_charge_accumulates_buckets():
    c = CoreCounters()
    c.charge_packet(dispatch_ns=100, compute_ns=50, wait_ns=20, transfer_ns=10)
    assert c.packets == 1
    assert c.busy_ns == 180
    assert c.dispatch_ns == 100


def test_program_latency_defaults_to_compute_plus_stalls():
    c = CoreCounters()
    c.charge_packet(dispatch_ns=100, compute_ns=50, wait_ns=20, transfer_ns=10)
    assert c.mean_compute_latency_ns == 80


def test_explicit_program_latency():
    c = CoreCounters()
    c.charge_packet(dispatch_ns=100, compute_ns=50, program_ns=333)
    assert c.mean_compute_latency_ns == 333


def test_l2_hit_ratio():
    c = CoreCounters()
    c.charge_packet(100, 50, state_accesses=1, l2_misses=0)
    c.charge_packet(100, 50, state_accesses=1, l2_misses=1)
    assert c.l2_hit_ratio == pytest.approx(0.5)


def test_l2_hit_ratio_with_no_accesses_is_one():
    assert CoreCounters().l2_hit_ratio == 1.0


def test_ipc_drops_with_stalls():
    fast, slow = CoreCounters(), CoreCounters()
    fast.charge_packet(dispatch_ns=100, compute_ns=50)
    slow.charge_packet(dispatch_ns=100, compute_ns=50, wait_ns=200)
    assert slow.ipc < fast.ipc


def test_instructions_model():
    c = CoreCounters()
    c.charge_packet(dispatch_ns=100, compute_ns=10)
    assert c.instructions == INSNS_PER_DISPATCH + 30


def test_ipc_wall_includes_idle_polling():
    c = CoreCounters()
    c.charge_packet(dispatch_ns=100, compute_ns=0)
    # Core busy 100 ns of a 1000 ns window: the other 900 ns poll at POLL_IPC.
    ipc = c.ipc_wall(1000)
    busy_insns = INSNS_PER_DISPATCH
    expected = (busy_insns + 900 * CPU_FREQ_GHZ * POLL_IPC) / (1000 * CPU_FREQ_GHZ)
    assert ipc == pytest.approx(expected)


def test_idle_core_wall_ipc_is_poll_rate():
    assert CoreCounters().ipc_wall(1000) == pytest.approx(POLL_IPC)


def test_busy_core_higher_wall_ipc_than_idle():
    busy, idle = CoreCounters(), CoreCounters()
    for _ in range(9):
        busy.charge_packet(dispatch_ns=100, compute_ns=10)
    assert busy.ipc_wall(1000) > idle.ipc_wall(1000)


class TestSystemCounters:
    def make(self):
        sc = SystemCounters(cores=[CoreCounters(core_id=i) for i in range(3)])
        sc.cores[0].charge_packet(100, 50)
        sc.cores[1].charge_packet(100, 50, wait_ns=300)
        return sc

    def test_mean_ipc_over_active_cores(self):
        sc = self.make()
        assert 0 < sc.mean_ipc() < 2

    def test_wall_variants_include_idle_core(self):
        sc = self.make()
        lo, hi = sc.ipc_wall_min_max(10_000)
        assert lo == pytest.approx(POLL_IPC, rel=0.2)
        assert sc.mean_ipc_wall(10_000) > 0

    def test_total_packets(self):
        assert self.make().total_packets() == 2

    def test_mean_latency(self):
        sc = self.make()
        # core 0: 50, core 1: 350 → mean 200
        assert sc.mean_compute_latency_ns() == pytest.approx(200)

    def test_empty_system(self):
        sc = SystemCounters()
        assert sc.mean_ipc() == 0.0
        assert sc.mean_l2_hit_ratio() == 1.0
