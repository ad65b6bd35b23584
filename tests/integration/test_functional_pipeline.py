"""Integration: functional SCR over realistic traces, larger scale, and the
property-based sweep over randomly generated workloads."""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import ScrFunctionalEngine, reference_run
from repro.faults import FaultSpec
from repro.packet import (
    TCP_ACK,
    TCP_FIN,
    TCP_SYN,
    Packet,
    make_tcp_packet,
    make_udp_packet,
)
from repro.programs import make_program
from repro.traffic import Trace, caida_backbone_flow_sizes, synthesize_trace


def test_caida_like_workload_all_programs_consistent():
    trace = synthesize_trace(
        caida_backbone_flow_sizes(), 40, seed=31, max_packets=1200,
        flow_duration_ns=100_000, mean_flow_interarrival_ns=2_000,
    )
    for name in ("ddos", "heavy_hitter", "token_bucket", "port_knocking"):
        engine = ScrFunctionalEngine(make_program(name), 6)
        result = engine.run(trace)
        ref_verdicts, ref_state = reference_run(make_program(name), trace)
        assert result.replicas_consistent, name
        assert result.replica_snapshots[0] == ref_state, name
        assert result.verdicts == ref_verdicts, name


def test_fourteen_cores_ddos():
    """The paper parallelizes the DDoS mitigator over 14 cores (§4.2)."""
    trace = synthesize_trace(
        caida_backbone_flow_sizes(), 30, seed=37, max_packets=1000
    )
    engine = ScrFunctionalEngine(make_program("ddos"), 14)
    result = engine.run(trace)
    ref_verdicts, ref_state = reference_run(make_program("ddos"), trace)
    assert result.replicas_consistent
    assert result.replica_snapshots[0] == ref_state


packet_strategy = st.one_of(
    st.builds(
        make_tcp_packet,
        src_ip=st.integers(min_value=1, max_value=6),
        dst_ip=st.integers(min_value=1, max_value=3),
        src_port=st.integers(min_value=1, max_value=4),
        dst_port=st.sampled_from([80, 7001, 7002, 7003]),
        flags=st.sampled_from([TCP_SYN, TCP_ACK, TCP_SYN | TCP_ACK, TCP_FIN | TCP_ACK]),
        seq=st.integers(min_value=0, max_value=1000),
        ack=st.integers(min_value=0, max_value=1000),
    ),
    st.builds(
        make_udp_packet,
        src_ip=st.integers(min_value=1, max_value=6),
        dst_ip=st.integers(min_value=1, max_value=3),
        src_port=st.integers(min_value=1, max_value=4),
        dst_port=st.integers(min_value=1, max_value=4),
    ),
    st.just(Packet()),
)


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    pkts=st.lists(packet_strategy, min_size=1, max_size=120),
    cores=st.integers(min_value=1, max_value=6),
    program=st.sampled_from(["ddos", "conntrack", "port_knocking", "heavy_hitter"]),
)
def test_replication_equals_reference_on_arbitrary_traffic(pkts, cores, program):
    """Property: for ANY packet sequence, any core count, and any program,
    SCR replicas converge to exactly the single-threaded state and verdicts
    (Principles #1 + #2 as a universally quantified statement)."""
    for i, p in enumerate(pkts):
        p.timestamp_ns = i * 1000
    trace = Trace(list(pkts))
    engine = ScrFunctionalEngine(make_program(program), cores)
    result = engine.run(trace)
    ref_verdicts, ref_state = reference_run(make_program(program), trace)
    assert result.replicas_consistent
    assert result.replica_snapshots[0] == ref_state
    assert result.verdicts == ref_verdicts


@settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    pkts=st.lists(packet_strategy, min_size=20, max_size=100),
    cores=st.integers(min_value=2, max_value=5),
    loss_seed=st.integers(min_value=0, max_value=10_000),
)
def test_recovery_keeps_replicas_consistent_on_arbitrary_traffic(
    pkts, cores, loss_seed
):
    """Property: under random loss on arbitrary traffic, replicas of all
    unblocked cores agree (Appendix B, Theorem 1)."""
    for i, p in enumerate(pkts):
        p.timestamp_ns = i * 1000
    trace = Trace(list(pkts))
    engine = ScrFunctionalEngine(
        make_program("ddos"), cores, with_recovery=True,
        faults=FaultSpec.create(seed=loss_seed, drop_rate=0.15),
    )
    result = engine.run(trace)
    assert result.replicas_consistent
