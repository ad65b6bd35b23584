"""End-to-end functional SCR: the paper's correctness claims as tests.

Principle #1/#2: for every program and core count, the SCR run must produce
(i) mutually identical per-core replicas and (ii) exactly the verdicts and
final state of a single-threaded execution — with zero shared state.
Appendix B: the same holds under FaultSpec drops, modulo sequences that were
lost at every core (which all cores skip together, preserving atomicity).
"""

import pytest

from repro.core import ScrFunctionalEngine, reference_run
from repro.faults import FaultSpec
from repro.programs import make_program
from repro.state import StateMap
from repro.traffic import synthesize_trace, univ_dc_flow_sizes
from tests.conftest import STATEFUL_PROGRAMS, trace_for_program


def reference_excluding(program, trace, skipped):
    state = StateMap(capacity=4096)
    verdicts = {}
    for i, pkt in enumerate(trace, start=1):
        if i in skipped:
            continue
        verdicts[i] = program.process(state, pkt)
    return verdicts, state.snapshot()


@pytest.mark.parametrize("name", STATEFUL_PROGRAMS)
@pytest.mark.parametrize("cores", [1, 2, 3, 5, 8])
def test_scr_matches_single_threaded_reference(name, cores):
    prog = make_program(name)
    trace = trace_for_program(prog)
    engine = ScrFunctionalEngine(make_program(name), cores)
    result = engine.run(trace)
    ref_verdicts, ref_state = reference_run(make_program(name), trace)
    assert result.replicas_consistent
    assert result.replica_snapshots[0] == ref_state
    assert result.verdicts == ref_verdicts


@pytest.mark.parametrize("name", STATEFUL_PROGRAMS)
def test_scr_with_recovery_lossfree_matches_reference(name):
    prog = make_program(name)
    trace = trace_for_program(prog)
    engine = ScrFunctionalEngine(make_program(name), 4, with_recovery=True)
    result = engine.run(trace)
    ref_verdicts, ref_state = reference_run(make_program(name), trace)
    assert result.replicas_consistent
    assert result.replica_snapshots[0] == ref_state
    assert result.verdicts == ref_verdicts
    assert result.skipped == 0


@pytest.mark.parametrize("name", ["ddos", "conntrack", "token_bucket"])
@pytest.mark.parametrize("loss_rate", [0.01, 0.1, 0.3])
def test_scr_recovers_under_injected_loss(name, loss_rate):
    prog = make_program(name)
    trace = trace_for_program(prog)
    engine = ScrFunctionalEngine(
        make_program(name), 4, with_recovery=True,
        faults=FaultSpec.create(seed=99, drop_rate=loss_rate),
    )
    result = engine.run(trace)
    assert result.replicas_consistent
    ref_verdicts, ref_state = reference_excluding(
        make_program(name), trace, result.skipped_seqs
    )
    lost = set(result.lost_seqs)
    # every delivered packet got the verdict the reference would give
    assert set(result.verdicts) == set(ref_verdicts) - lost
    assert all(result.verdicts[s] == ref_verdicts[s] for s in result.verdicts)
    if not result.blocked_cores:
        assert result.replica_snapshots[0] == ref_state


def test_loss_requires_recovery():
    with pytest.raises(ValueError, match="recovery"):
        ScrFunctionalEngine(make_program("ddos"), 2,
                            faults=FaultSpec.create(drop_rate=0.1))


def test_invalid_loss_rate():
    with pytest.raises(ValueError, match=r"drop_rate must be in \[0, 1\)"):
        ScrFunctionalEngine(make_program("ddos"), 2, with_recovery=True,
                            faults=FaultSpec.create(drop_rate=1.5))


def test_lost_packets_emit_no_verdict():
    prog = make_program("ddos")
    trace = trace_for_program(prog)
    engine = ScrFunctionalEngine(
        make_program("ddos"), 3, with_recovery=True,
        faults=FaultSpec.create(seed=5, drop_rate=0.2),
    )
    result = engine.run(trace)
    assert result.lost_seqs
    assert not set(result.lost_seqs) & set(result.verdicts)


def test_recovered_counts_reported():
    prog = make_program("port_knocking")
    trace = trace_for_program(prog)
    engine = ScrFunctionalEngine(
        make_program("port_knocking"), 4, with_recovery=True,
        faults=FaultSpec.create(seed=3, drop_rate=0.1),
    )
    result = engine.run(trace)
    assert result.recovered > 0


def test_deterministic_loss_injection():
    prog = make_program("ddos")
    trace = trace_for_program(prog)
    r1 = ScrFunctionalEngine(
        make_program("ddos"), 3, with_recovery=True,
        faults=FaultSpec.create(seed=42, drop_rate=0.1),
    ).run(trace)
    r2 = ScrFunctionalEngine(
        make_program("ddos"), 3, with_recovery=True,
        faults=FaultSpec.create(seed=42, drop_rate=0.1),
    ).run(trace)
    assert r1.lost_seqs and r1.lost_seqs == r2.lost_seqs
    assert r1.verdicts == r2.verdicts


def test_without_flush_tail_replicas_lag():
    """Replication is eventually consistent: the trailing k-1 packets are
    only on some cores until the next arrivals propagate them."""
    prog = make_program("ddos")
    trace = trace_for_program(prog)
    engine = ScrFunctionalEngine(make_program("ddos"), 4)
    result = engine.run(trace, flush=False)
    snaps = result.replica_snapshots
    assert any(s != snaps[0] for s in snaps[1:])


def test_flush_does_not_change_verdict_count():
    prog = make_program("ddos")
    trace = trace_for_program(prog)
    result = ScrFunctionalEngine(make_program("ddos"), 4).run(trace)
    assert len(result.verdicts) == len(trace)
    assert result.offered == len(trace)


def test_num_slots_may_exceed_cores():
    """A fixed 16-row hardware ring feeding 3 cores still works: cores skip
    already-applied history by sequence."""
    prog = make_program("heavy_hitter")
    trace = trace_for_program(prog)
    engine = ScrFunctionalEngine(make_program("heavy_hitter"), 3, num_slots=16)
    result = engine.run(trace)
    ref_verdicts, ref_state = reference_run(make_program("heavy_hitter"), trace)
    assert result.replicas_consistent
    assert result.replica_snapshots[0] == ref_state
    assert result.verdicts == ref_verdicts


def test_slots_below_cores_rejected():
    with pytest.raises(ValueError, match="cannot cover"):
        ScrFunctionalEngine(make_program("ddos"), 4, num_slots=2)


def test_single_core_scr_degenerates_to_reference():
    prog = make_program("conntrack")
    trace = trace_for_program(prog)
    result = ScrFunctionalEngine(make_program("conntrack"), 1).run(trace)
    ref_verdicts, ref_state = reference_run(make_program("conntrack"), trace)
    assert result.verdicts == ref_verdicts
    assert result.replica_snapshots[0] == ref_state


def test_timestamps_come_from_sequencer_header():
    """§3.4 determinism: the token bucket sees the sequencer's timestamp, so
    replicas agree even though cores never read a local clock."""
    prog = make_program("token_bucket")
    trace = synthesize_trace(
        univ_dc_flow_sizes(), 10, seed=23, max_packets=400,
        mean_flow_interarrival_ns=100, intra_flow_gap_ns=3,
    )
    engine = ScrFunctionalEngine(make_program("token_bucket"), 5)
    result = engine.run(trace)
    assert result.replicas_consistent
    ref_verdicts, _ = reference_run(make_program("token_bucket"), trace)
    assert result.verdicts == ref_verdicts
