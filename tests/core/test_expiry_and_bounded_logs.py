"""Conntrack idle expiry (§3.4 timestamps) and bounded recovery logs (App. B)."""

import pytest

from repro.core import LossRecoveryManager, ScrFunctionalEngine, reference_run
from repro.packet import TCP_ACK, TCP_SYN, make_tcp_packet
from repro.programs import ConnectionTracker, TcpState, Verdict
from repro.state import StateMap
from repro.traffic import Trace

C_IP, S_IP = 0x0A000001, 0xAC100001
MS = 1_000_000


def client(flags, ts_ms, seq=0, ack=0):
    return make_tcp_packet(C_IP, S_IP, 40000, 443, flags, seq=seq, ack=ack,
                           timestamp_ns=ts_ms * MS)


def server(flags, ts_ms, seq=0, ack=0):
    return make_tcp_packet(S_IP, C_IP, 443, 40000, flags, seq=seq, ack=ack,
                           timestamp_ns=ts_ms * MS)


class TestConntrackExpiry:
    def test_stale_entry_expires_lazily(self):
        prog = ConnectionTracker(idle_timeout_ns=10 * MS)
        state = StateMap()
        prog.process(state, client(TCP_SYN, ts_ms=0, seq=1))
        assert len(state) == 1
        # 50 ms later, a stray mid-stream packet: the SYN_SENT entry has
        # expired, so this is judged as stateless (DROP) and reaped.
        assert prog.process(state, client(TCP_ACK, ts_ms=50)) == Verdict.DROP
        assert len(state) == 0

    def test_fresh_entry_not_expired(self):
        prog = ConnectionTracker(idle_timeout_ns=10 * MS)
        state = StateMap()
        prog.process(state, client(TCP_SYN, ts_ms=0, seq=1))
        prog.process(state, server(TCP_SYN | TCP_ACK, ts_ms=5, seq=9, ack=2))
        entry = list(state.snapshot().values())[0]
        assert entry.state == TcpState.SYN_RECV

    def test_expired_connection_can_restart(self):
        prog = ConnectionTracker(idle_timeout_ns=10 * MS)
        state = StateMap()
        prog.process(state, client(TCP_SYN, ts_ms=0, seq=1))
        assert prog.process(state, client(TCP_SYN, ts_ms=100, seq=77)) == Verdict.TX
        entry = list(state.snapshot().values())[0]
        assert entry.state == TcpState.SYN_SENT
        assert entry.last_seq == 77

    def test_no_timeout_means_no_expiry(self):
        prog = ConnectionTracker()
        state = StateMap()
        prog.process(state, client(TCP_SYN, ts_ms=0, seq=1))
        prog.process(state, client(TCP_ACK, ts_ms=10**6))
        assert len(state) == 1  # still tracked (and still SYN_SENT)

    def test_rejects_bad_timeout(self):
        with pytest.raises(ValueError):
            ConnectionTracker(idle_timeout_ns=0)

    def test_expiry_replicates_deterministically(self):
        """Expiry depends only on sequencer timestamps, so SCR replicas
        agree on exactly which entries died."""
        pkts = [client(TCP_SYN, ts_ms=0, seq=1)]
        pkts += [client(TCP_ACK, ts_ms=40 + i) for i in range(6)]
        pkts += [client(TCP_SYN, ts_ms=60, seq=50)]
        trace = Trace(pkts)

        def fresh():
            return ConnectionTracker(idle_timeout_ns=10 * MS)

        engine = ScrFunctionalEngine(fresh(), num_cores=3)
        result = engine.run(trace)
        ref_verdicts, ref_state = reference_run(fresh(), trace)
        assert result.replicas_consistent
        assert result.replica_snapshots[0] == ref_state
        assert result.verdicts == ref_verdicts


class TestBoundedLogs:
    def metas(self, lo, hi):
        return {s: bytes([s % 251]) * 2 for s in range(lo, hi + 1)}

    def test_log_stays_within_capacity(self):
        mgr = LossRecoveryManager(2, window=2, log_capacity=8)
        for seq in range(1, 101):
            core = (seq - 1) % 2
            mgr.deliver(core, seq, self.metas(max(1, seq - 1), seq))
            mgr.try_advance(core)
        for core in (0, 1):
            live = [s for s in range(1, 101) if mgr.log_entry(core, s) is not None]
            assert len(live) <= 8

    def test_recovery_still_works_within_capacity(self):
        mgr = LossRecoveryManager(2, window=2, log_capacity=16)
        mgr.deliver(1, 2, self.metas(1, 2))
        mgr.try_advance(1)
        mgr.deliver(0, 3, self.metas(2, 3))  # core 0 missed seq 1
        entries, done = mgr.try_advance(0)
        assert done
        assert entries[0] == (1, bytes([1]) * 2)

    def test_capacity_must_exceed_window(self):
        with pytest.raises(ValueError, match="twice the window"):
            LossRecoveryManager(4, window=8, log_capacity=10)

    def test_unbounded_by_default(self):
        mgr = LossRecoveryManager(2, window=2)
        for seq in range(1, 51):
            core = (seq - 1) % 2
            mgr.deliver(core, seq, self.metas(max(1, seq - 1), seq))
            mgr.try_advance(core)
        assert mgr.log_entry(0, 1) is not None  # nothing pruned

    def test_end_to_end_with_bounded_logs(self):
        """A full SCR run with loss works with App. B's 1024-entry logs."""
        from repro.core.engine import ScrFunctionalEngine as Engine
        from repro.faults import FaultSpec
        from repro.programs import make_program
        from tests.conftest import trace_for_program

        prog = make_program("ddos")
        trace = trace_for_program(prog)
        engine = Engine(make_program("ddos"), 4, with_recovery=True,
                        faults=FaultSpec.create(seed=31, drop_rate=0.05))
        engine.recovery.log_capacity = 1024
        for core in engine.cores:
            assert core.recovery is engine.recovery
        result = engine.run(trace)
        assert result.replicas_consistent


    def test_pruned_peer_entry_treated_as_lost_not_blocking(self):
        """A peer that is past a sequence but pruned it cannot supply the
        history; the reader must not wait on it forever."""
        mgr = LossRecoveryManager(2, window=2, log_capacity=4)
        # core 1 races far ahead, pruning everything old.
        for seq in range(2, 41, 2):
            mgr.deliver(1, seq, self.metas(seq - 1, seq))
            mgr.try_advance(1)
        assert mgr.log_entry(1, 2) is None  # pruned
        # core 0 only now receives seq 39: seqs 1..37 are gaps; the pruned
        # peer entries resolve (as LOST) rather than blocking.
        mgr.deliver(0, 39, self.metas(38, 39))
        entries, done = mgr.try_advance(0)
        assert done
        assert entries[-1][0] == 39
