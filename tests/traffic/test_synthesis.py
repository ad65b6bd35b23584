"""Trace synthesis: TCP framing invariants and interleaving."""

import pytest

from repro.packet import TCP_ACK, TCP_FIN, TCP_SYN
from repro.traffic import (
    FlowSpec,
    ParetoFlowSizes,
    flow_packets,
    single_flow_trace,
    synthesize_trace,
    univ_dc_flow_sizes,
)

SPEC = FlowSpec(src_ip=1, dst_ip=2, src_port=10, dst_port=80, data_packets=5, start_ns=0)


class TestFlowPackets:
    def test_unidirectional_starts_syn_ends_fin(self):
        pkts = flow_packets(SPEC, bidirectional=False)
        assert pkts[0].l4.has_flag(TCP_SYN)
        assert pkts[-1].l4.has_flag(TCP_FIN)
        assert not any(p.l4.has_flag(TCP_FIN) for p in pkts[1:-1])

    def test_unidirectional_packet_count(self):
        assert len(flow_packets(SPEC, bidirectional=False)) == 5

    def test_unidirectional_single_direction(self):
        pkts = flow_packets(SPEC, bidirectional=False)
        assert all(p.ip.src == 1 for p in pkts)

    def test_bidirectional_full_exchange(self):
        pkts = flow_packets(SPEC, bidirectional=True)
        # handshake 3 + (data+ack)*5 + teardown 3
        assert len(pkts) == 3 + 10 + 3
        assert pkts[0].l4.flags == TCP_SYN
        assert pkts[1].l4.flags == TCP_SYN | TCP_ACK
        assert pkts[-1].l4.flags == TCP_ACK

    def test_bidirectional_both_directions_present(self):
        pkts = flow_packets(SPEC, bidirectional=True)
        assert any(p.ip.src == 1 for p in pkts)
        assert any(p.ip.src == 2 for p in pkts)

    def test_bidirectional_fins_from_both_sides(self):
        pkts = flow_packets(SPEC, bidirectional=True)
        fins = [p for p in pkts if p.l4.has_flag(TCP_FIN)]
        assert {p.ip.src for p in fins} == {1, 2}

    def test_timestamps_nondecreasing(self):
        pkts = flow_packets(SPEC, bidirectional=True)
        ts = [p.timestamp_ns for p in pkts]
        assert ts == sorted(ts)

    def test_rejects_empty_flow(self):
        bad = FlowSpec(1, 2, 3, 4, data_packets=0, start_ns=0)
        with pytest.raises(ValueError):
            flow_packets(bad)

    def test_data_seq_numbers_advance(self):
        pkts = flow_packets(SPEC, bidirectional=False, payload_size=100)
        seqs = [p.l4.seq for p in pkts]
        assert seqs == sorted(seqs)


class TestSynthesizeTrace:
    def test_every_flow_begins_syn_ends_fin(self):
        """The §4.1 replayability property."""
        trace = synthesize_trace(ParetoFlowSizes(max_packets=50), 10, seed=1)
        by_flow = {}
        for pkt in trace:
            by_flow.setdefault(pkt.five_tuple(), []).append(pkt)
        for pkts in by_flow.values():
            assert pkts[0].l4.has_flag(TCP_SYN)
            assert pkts[-1].l4.has_flag(TCP_FIN)

    def test_globally_time_ordered(self):
        trace = synthesize_trace(univ_dc_flow_sizes(), 20, seed=2, max_packets=1000)
        ts = [p.timestamp_ns for p in trace]
        assert ts == sorted(ts)

    def test_flows_interleave(self):
        """Consecutive packets are not all from one flow — states churn (§4.1)."""
        trace = synthesize_trace(
            univ_dc_flow_sizes(), 20, seed=3,
            mean_flow_interarrival_ns=1000, max_packets=500,
        )
        flows_in_order = [p.five_tuple() for p in trace]
        switches = sum(1 for a, b in zip(flows_in_order, flows_in_order[1:]) if a != b)
        assert switches > len(flows_in_order) / 10

    def test_deterministic_given_seed(self):
        t1 = synthesize_trace(univ_dc_flow_sizes(), 10, seed=4, max_packets=300)
        t2 = synthesize_trace(univ_dc_flow_sizes(), 10, seed=4, max_packets=300)
        assert [p.to_bytes() for p in t1] == [p.to_bytes() for p in t2]

    def test_seed_changes_trace(self):
        t1 = synthesize_trace(univ_dc_flow_sizes(), 10, seed=4, max_packets=300)
        t2 = synthesize_trace(univ_dc_flow_sizes(), 10, seed=5, max_packets=300)
        assert [p.to_bytes() for p in t1] != [p.to_bytes() for p in t2]

    def test_max_packets_cap(self):
        trace = synthesize_trace(univ_dc_flow_sizes(), 30, seed=1, max_packets=123)
        assert len(trace) == 123

    def test_flow_duration_normalizes_elephant_rate(self):
        """With flow_duration_ns, big flows send faster — in-window share
        tracks size share (what keeps synthesized windows skewed)."""
        trace = synthesize_trace(
            univ_dc_flow_sizes(), 30, seed=7,
            mean_flow_interarrival_ns=3000, flow_duration_ns=200_000,
            max_packets=2000,
        )
        stats = trace.stats()
        assert stats.top_flow_share > 0.2

    def test_bidirectional_flag_produces_two_sided_flows(self):
        trace = synthesize_trace(
            univ_dc_flow_sizes(), 5, seed=8, bidirectional=True, max_packets=400
        )
        uni = trace.stats(bidirectional=False).flows
        bidi = trace.stats(bidirectional=True).flows
        assert uni == 2 * bidi

    def test_rejects_zero_flows(self):
        with pytest.raises(ValueError):
            synthesize_trace(univ_dc_flow_sizes(), 0)


class TestLazyFlowAdmission:
    """The heap merge admits flows lazily; semantics must not change."""

    def test_merged_trace_is_time_ordered(self):
        trace = synthesize_trace(univ_dc_flow_sizes(), 300, seed=3,
                                 max_packets=2000)
        stamps = [p.timestamp_ns for p in trace]
        assert stamps == sorted(stamps)

    def test_deterministic_across_runs(self):
        a = synthesize_trace(univ_dc_flow_sizes(), 200, seed=9,
                             max_packets=1000)
        b = synthesize_trace(univ_dc_flow_sizes(), 200, seed=9,
                             max_packets=1000)
        assert [p.to_bytes() for p in a] == [p.to_bytes() for p in b]
        assert [p.timestamp_ns for p in a] == [p.timestamp_ns for p in b]

    def test_max_packets_cap_is_exact(self):
        trace = synthesize_trace(univ_dc_flow_sizes(), 500, seed=1,
                                 max_packets=777)
        assert len(trace) == 777

    def test_huge_flow_spec_truncated_cheaply(self):
        """A million-flow spec capped at a small window must not pay for
        the flows past the cap (the lazy-admission point)."""
        import time
        t0 = time.perf_counter()
        trace = synthesize_trace(univ_dc_flow_sizes(), 1_000_000, seed=7,
                                 max_packets=500)
        assert len(trace) == 500
        # Eager materialization took minutes; lazy admission is seconds
        # even on a slow machine (sampling 10^6 flow sizes dominates).
        assert time.perf_counter() - t0 < 60

    def test_capped_trace_builds_only_what_it_keeps(self, monkeypatch):
        """The multitenant suite's 10^6-flow zipf trace, capped at 1500
        packets, builds a FlowSpec only for flows whose start the merge
        reached and at most one packet past the cap per such flow."""
        from repro.scenario import TraceSpec
        from repro.scenario.build import _synthesize
        from repro.traffic import synthesis

        built = {"FlowSpec": [], "make_tcp_packet": []}

        def counted(name):
            make = getattr(synthesis, name)

            def wrapper(*args, **kwargs):
                made = make(*args, **kwargs)
                built[name].append(made)
                return made

            monkeypatch.setattr(synthesis, name, wrapper)

        counted("FlowSpec")
        counted("make_tcp_packet")
        spec = TraceSpec("zipf", num_flows=1_000_000, max_packets=1500, seed=7)
        trace = _synthesize(spec)
        assert len(trace) == 1500
        flows = built["FlowSpec"]
        assert len(flows) < 1_000
        assert len(built["make_tcp_packet"]) <= spec.max_packets + len(flows)
        # Each flow has its own client address.  A flow is admitted once
        # its start is due, so an admitted flow is missing from the trace
        # only when its SYN ties the last packet's timestamp and the cap
        # stopped the merge before the tie resolved in its favour.
        in_trace = {p.ip.src for p in trace}
        last = trace[-1].timestamp_ns
        missing = [f for f in flows if f.src_ip not in in_trace]
        assert all(f.start_ns == last for f in missing)

    def test_sized_trace_builds_each_packet_once(self, monkeypatch):
        """A sized spec builds each kept packet once, at its size on the
        wire, not at 512 bytes and again through ``Trace.truncated``."""
        from repro.packet import Packet
        from repro.scenario import TraceSpec
        from repro.scenario.build import _synthesize
        from repro.traffic import synthesis

        built = {"FlowSpec": 0, "Packet": 0}
        flow_spec = synthesis.FlowSpec
        post_init = Packet.__post_init__

        def counted_flow_spec(*args, **kwargs):
            built["FlowSpec"] += 1
            return flow_spec(*args, **kwargs)

        def counted_post_init(self):
            built["Packet"] += 1
            post_init(self)

        monkeypatch.setattr(synthesis, "FlowSpec", counted_flow_spec)
        monkeypatch.setattr(Packet, "__post_init__", counted_post_init)
        spec = TraceSpec("caida", num_flows=400, max_packets=4000, seed=7,
                         packet_size=192)
        trace = _synthesize(spec)
        assert len(trace) == spec.max_packets
        assert built["Packet"] <= spec.max_packets + built["FlowSpec"]
        assert {p.wire_len for p in trace} == {192}


class TestSingleFlowTrace:
    def test_single_connection(self, elephant_trace):
        assert elephant_trace.stats(bidirectional=True).flows == 1

    def test_packet_count_bidirectional(self):
        trace = single_flow_trace(100, bidirectional=True)
        assert len(trace) == 3 + 200 + 3

    def test_unidirectional_variant(self):
        trace = single_flow_trace(100, bidirectional=False)
        assert len(trace) == 100
        assert trace.stats(bidirectional=False).flows == 1

    def test_rejects_zero_packets(self):
        with pytest.raises(ValueError):
            single_flow_trace(0)
