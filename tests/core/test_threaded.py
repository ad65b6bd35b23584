"""SCR under real threads: interleaving-independence of the claims."""

import pytest

from repro.core import reference_run
from repro.core.threaded import ThreadedScrEngine
from repro.faults import FaultSpec
from repro.programs import make_program
from repro.state import StateMap
from repro.traffic import synthesize_trace, univ_dc_flow_sizes
from tests.conftest import STATEFUL_PROGRAMS, trace_for_program


@pytest.mark.parametrize("name", STATEFUL_PROGRAMS)
def test_threaded_matches_reference(name):
    prog = make_program(name)
    trace = trace_for_program(prog)
    engine = ThreadedScrEngine(make_program(name), num_cores=4)
    result = engine.run(trace)
    ref_verdicts, ref_state = reference_run(make_program(name), trace)
    assert result.replicas_consistent
    assert result.replica_snapshots[0] == ref_state
    assert result.verdicts == ref_verdicts


def test_threaded_many_cores():
    prog = make_program("ddos")
    trace = trace_for_program(prog)
    result = ThreadedScrEngine(make_program("ddos"), num_cores=10).run(trace)
    _, ref_state = reference_run(make_program("ddos"), trace)
    assert result.replicas_consistent
    assert result.replica_snapshots[0] == ref_state


def test_threaded_repeated_runs_identical():
    """Thread scheduling varies between runs; outcomes must not."""
    prog = make_program("token_bucket")
    trace = trace_for_program(prog)
    results = [
        ThreadedScrEngine(make_program("token_bucket"), num_cores=5).run(trace)
        for _ in range(3)
    ]
    assert results[0].verdicts == results[1].verdicts == results[2].verdicts
    assert (
        results[0].replica_snapshots[0]
        == results[1].replica_snapshots[0]
        == results[2].replica_snapshots[0]
    )


def test_threaded_with_recovery_under_loss():
    prog = make_program("port_knocking")
    trace = trace_for_program(prog)
    engine = ThreadedScrEngine(
        make_program("port_knocking"), num_cores=4,
        with_recovery=True, faults=FaultSpec.create(seed=13, drop_rate=0.05),
    )
    result = engine.run(trace)
    assert result.replicas_consistent
    assert result.lost_seqs
    assert result.recovered > 0
    # delivered verdicts equal the reference-minus-skipped stream
    def reference_excluding(skipped):
        state = StateMap(capacity=4096)
        verdicts = {}
        for i, pkt in enumerate(trace, start=1):
            if i in skipped:
                continue
            verdicts[i] = make_program("port_knocking").process(state, pkt)
        return verdicts

    ref = reference_excluding(result.skipped_seqs)
    lost = set(result.lost_seqs)
    assert set(result.verdicts) == set(ref) - lost
    assert all(result.verdicts[s] == ref[s] for s in result.verdicts)


def test_threaded_small_ring_applies_backpressure():
    """A 4-deep RX queue forces producer blocking; nothing is lost."""
    prog = make_program("heavy_hitter")
    trace = trace_for_program(prog)
    engine = ThreadedScrEngine(
        make_program("heavy_hitter"), num_cores=3, ring_capacity=4
    )
    result = engine.run(trace)
    assert len(result.verdicts) == len(trace)
    assert result.replicas_consistent


def test_threaded_single_core():
    prog = make_program("conntrack")
    trace = trace_for_program(prog)
    result = ThreadedScrEngine(make_program("conntrack"), num_cores=1).run(trace)
    ref_verdicts, ref_state = reference_run(make_program("conntrack"), trace)
    assert result.verdicts == ref_verdicts
    assert result.replica_snapshots[0] == ref_state


def test_threaded_rejects_loss_without_recovery():
    with pytest.raises(ValueError, match="recovery"):
        ThreadedScrEngine(make_program("ddos"), 2,
                          faults=FaultSpec.create(drop_rate=0.1))


def test_threaded_nat_global_state():
    """Global state under true concurrency — no locks anywhere."""
    from repro.programs import NatGateway

    trace = synthesize_trace(univ_dc_flow_sizes(), 12, seed=21, max_packets=500)
    engine = ThreadedScrEngine(NatGateway(port_count=128), num_cores=4)
    result = engine.run(trace)
    ref_verdicts, ref_state = reference_run(NatGateway(port_count=128), trace)
    assert result.replicas_consistent
    assert result.replica_snapshots[0] == ref_state
    assert result.verdicts == ref_verdicts
