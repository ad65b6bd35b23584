"""ScrCoreRuntime: the App. C fast-forward loop in isolation."""

import pytest

from repro.core import GapRepair, ScrCoreRuntime
from repro.faults import EpochCheckpointer
from repro.packet import Packet, make_udp_packet
from repro.programs import make_program
from repro.sequencer import PacketHistorySequencer
from repro.state import StateMap


def make_setup(cores=3, program_name="ddos"):
    prog = make_program(program_name)
    seq = PacketHistorySequencer(prog, cores)
    runtimes = [
        ScrCoreRuntime(prog, core_id=i, codec=seq.codec, state=StateMap())
        for i in range(cores)
    ]
    return prog, seq, runtimes


def pkt(src, ts=0):
    return make_udp_packet(src, 2, 3, 4, timestamp_ns=ts)


def test_verdict_emitted_per_packet():
    prog, seq, runtimes = make_setup()
    sp = seq.process(pkt(1))
    outcomes = runtimes[sp.core].receive(sp.data)
    assert len(outcomes) == 1
    assert outcomes[0][0] == 1  # sequence number


def test_fast_forward_applies_missed_packets():
    prog, seq, runtimes = make_setup(cores=2)
    # seq1 → core0 (src 10), seq2 → core1 (src 10), seq3 → core0.
    for i in range(3):
        sp = seq.process(pkt(10))
        runtimes[sp.core].receive(sp.data)
    # core0 processed seqs 1,3 and fast-forwarded 2: its count must be 3.
    assert runtimes[0].state.lookup(10) == 3
    assert runtimes[0].history_applied == 1


def test_history_skips_already_applied_rows():
    """With more slots than cores, rows for already-seen sequences are
    skipped by sequence comparison, not reapplied."""
    prog = make_program("ddos")
    seq = PacketHistorySequencer(prog, 2, num_slots=6)
    runtimes = [
        ScrCoreRuntime(prog, core_id=i, codec=seq.codec, state=StateMap())
        for i in range(2)
    ]
    for _ in range(8):
        sp = seq.process(pkt(10))
        runtimes[sp.core].receive(sp.data)
    # core 1 processed the last packet (seq 8) so it is fully up to date;
    # core 0's last arrival was seq 7, leaving it one packet behind.
    assert runtimes[1].state.lookup(10) == 8
    assert runtimes[0].state.lookup(10) == 7


def test_gap_beyond_slots_raises_without_recovery():
    prog, seq, runtimes = make_setup(cores=2)
    sp1 = seq.process(pkt(1))
    runtimes[0].receive(sp1.data)
    # lose seqs 2..4 to this core (deliver none), then deliver seq 5 → the
    # 2-slot history cannot cover the gap.
    for _ in range(3):
        seq.process(pkt(1))
    sp5 = seq.process(pkt(1))
    with pytest.raises(RuntimeError, match="gap"):
        runtimes[0].receive(sp5.data)


def test_blocked_is_false_without_recovery():
    prog, seq, runtimes = make_setup()
    sp = seq.process(pkt(1))
    runtimes[sp.core].receive(sp.data)
    assert not runtimes[sp.core].blocked
    assert runtimes[sp.core].rx_backlog == 0


def test_counters_track_work():
    prog, seq, runtimes = make_setup(cores=2)
    for _ in range(6):
        sp = seq.process(pkt(9))
        runtimes[sp.core].receive(sp.data)
    assert runtimes[0].packets_processed == 3
    assert runtimes[0].history_applied == 2  # seq 3 and 5 fast-forwards


def test_redelivered_frames_are_stale_and_state_matches_reference():
    """A frame at or below last_seq is a duplicate: counted, never
    reprocessed, and last_seq never moves backwards."""
    from repro.core import reference_run
    from repro.scenario.build import build_trace
    from repro.scenario.spec import TraceSpec

    prog, seq, runtimes = make_setup(cores=2, program_name="token_bucket")
    trace = build_trace(TraceSpec(workload="univ_dc", num_flows=10,
                                  max_packets=200, seed=7, packet_size=None))
    history = [[0] for _ in runtimes]

    def deliver(core, data):
        runtimes[core].receive(data)
        history[core].append(runtimes[core].last_seq)

    for i, p in enumerate(trace):
        sp = seq.process(p)
        deliver(sp.core, sp.data)
        if i % 17 == 0:
            deliver(sp.core, sp.data)
    for _ in runtimes:  # flush no-ops carry the tail to both replicas
        sp = seq.process(Packet())
        deliver(sp.core, sp.data)

    _, ref_state = reference_run(make_program("token_bucket"), trace)
    assert all(r.state.snapshot() == ref_state for r in runtimes)
    assert all(h == sorted(h) for h in history)
    assert sum(r.packets_processed for r in runtimes) == len(trace) + 2
    assert sum(r.stale_ignored for r in runtimes) == 7


def test_duplicate_frame_on_the_peer_log_path_still_raises():
    """Algorithm 1 assumes no reordering (§3.4): a frame at or below the
    core's last sequence stays an error there."""
    from repro.core import LossRecoveryManager

    prog = make_program("ddos")
    seq = PacketHistorySequencer(prog, 2)
    runtime = ScrCoreRuntime(
        prog, core_id=0, codec=seq.codec, state=StateMap(),
        recovery=LossRecoveryManager(2, window=seq.num_slots),
    )
    sp = seq.process(pkt(1))
    runtime.receive(sp.data)
    with pytest.raises(ValueError, match="non-monotonic"):
        runtime.receive(sp.data)


@pytest.mark.parametrize("resync", [False, True])
def test_gap_beyond_slots_is_repaired_or_forked_with_gap_repair(resync):
    prog = make_program("ddos")
    seq = PacketHistorySequencer(prog, 2)
    checkpointer = EpochCheckpointer(prog, epoch_len=2) if resync else None
    runtime = ScrCoreRuntime(prog, core_id=0, codec=seq.codec,
                             state=StateMap(),
                             repair=GapRepair(2, checkpointer))
    frames = []
    for _ in range(5):
        p = pkt(1)
        sp = seq.process(p)
        if checkpointer is not None:
            checkpointer.record(sp.seq, prog.extract_metadata(p).pack())
        frames.append(sp.data)
    runtime.receive(frames[0])
    # Core 0 loses its seq 3; seq 5's two history rows cover 3..4, so
    # seq 2 is past the window.
    assert runtime.receive(frames[4])[0][0] == 5
    assert runtime.gaps_detected == 1
    if resync:
        assert (runtime.quarantines, runtime.resync_replays) == (1, [0])
        assert runtime.state.lookup(1) == 5  # exact: resynced to seq 4
    else:
        assert runtime.forks == 1
        assert runtime.state.lookup(1) == 4  # seq 2 never applied


def test_window_heals_a_gap_past_the_stagger_as_covered():
    prog = make_program("ddos")
    seq = PacketHistorySequencer(prog, 2, num_slots=4)
    runtime = ScrCoreRuntime(prog, core_id=0, codec=seq.codec,
                             state=StateMap(), repair=GapRepair(2))
    frames = [seq.process(pkt(1)).data for _ in range(5)]
    runtime.receive(frames[0])
    runtime.receive(frames[4])  # seq 3 lost; 4 slots still reach seq 2
    assert (runtime.gaps_covered, runtime.forks) == (1, 0)
    assert runtime.state.lookup(1) == 5


@pytest.mark.parametrize("program_name, flush_from, forks", [
    ("ddos", None, 1),       # a zeroed needed row is truncation
    ("ddos", 2, 0),          # ... unless it is a tail-flush no-op
    ("forwarder", None, 0),  # 0-byte metadata carries nothing to lose
])
def test_zeroed_history_rows(program_name, flush_from, forks):
    prog = make_program(program_name)
    seq = PacketHistorySequencer(prog, 2)
    runtime = ScrCoreRuntime(prog, core_id=0, codec=seq.codec,
                             state=StateMap(), repair=GapRepair(2))
    runtime.receive(seq.process(pkt(1)).data)
    seq.process(Packet())  # seq 2, core 1: a zeroed row in seq 3's history
    runtime.flush_from = flush_from
    runtime.receive(seq.process(Packet()).data)
    assert runtime.forks == forks
