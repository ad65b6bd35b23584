"""Cross-layer consistency: the functional and performance layers must
agree on the quantities they both model, and the wire format must be
robust to corruption."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ScrFunctionalEngine, ScrPacketCodec
from repro.cpu import PerfTrace, simulate
from repro.faults import FaultPlan, FaultSpec
from repro.packet import make_udp_packet
from repro.parallel import ScrEngine
from repro.programs import make_program, program_names
from repro.sequencer import PacketHistorySequencer
from repro.telemetry import EventTracer
from repro.telemetry.events import EV_FAULT_DROP
from repro.traffic import Trace, synthesize_trace, univ_dc_flow_sizes


@pytest.mark.parametrize("name", ["ddos", "conntrack", "heavy_hitter"])
@pytest.mark.parametrize("cores", [2, 5, 9])
def test_functional_and_perf_layers_agree_on_overhead(name, cores):
    """The ScrEngine's wire-length model must equal the actual byte
    overhead the functional sequencer produces."""
    prog = make_program(name)
    seq = PacketHistorySequencer(prog, cores)
    engine = ScrEngine(make_program(name), cores)
    pkt = make_udp_packet(1, 2, 3, 4)
    sp = seq.process(pkt)
    actual_overhead = len(sp.data) - len(pkt.to_bytes())
    assert engine.codec.overhead_bytes == actual_overhead == seq.overhead_bytes

    trace = Trace([pkt])
    pp = PerfTrace.from_trace(trace, prog).records[0]
    assert engine.wire_len(pp) == pkt.wire_len + actual_overhead


@pytest.mark.parametrize("name", sorted(set(program_names()) - {"forwarder"}))
def test_history_items_match_functional_fast_forwards(name):
    """The perf layer charges (k-1)·c2 per packet in steady state; the
    functional layer must actually apply exactly k-1 history items."""
    from repro.core import ScrCoreRuntime
    from repro.state import StateMap

    cores = 4
    prog = make_program(name)
    seq = PacketHistorySequencer(prog, cores)
    runtimes = [
        ScrCoreRuntime(prog, core_id=i, codec=seq.codec, state=StateMap())
        for i in range(cores)
    ]
    n = 40
    for i in range(n):
        sp = seq.process(make_udp_packet(1 + i % 3, 2, 3, 4, timestamp_ns=i * 1000))
        runtimes[sp.core].receive(sp.data)
    # Steady state: each processed packet beyond the warmup fast-forwarded
    # exactly cores-1 history items.
    total_processed = sum(r.packets_processed for r in runtimes)
    total_history = sum(r.history_applied for r in runtimes)
    warmup_deficit = (cores - 1) * cores // 2  # fewer items while filling
    assert total_processed == n
    assert total_history == (cores - 1) * n - warmup_deficit


class TestOneLossModel:
    """One FaultSpec loses the same packets on both layers: the functional
    engine's lost sequences, the plan's own schedule and the simulator's
    fault drops are three views of one decision set."""

    CORES = 4
    #: well under 4-core SCR capacity: nothing drops before the fault plan.
    RATE_PPS = 2e6

    @pytest.fixture(scope="class")
    def trace(self):
        return synthesize_trace(univ_dc_flow_sizes(), 30, seed=21,
                                max_packets=1500)

    def functional(self, trace, spec):
        tracer = EventTracer()
        result = ScrFunctionalEngine(
            make_program("ddos"), self.CORES, with_recovery=True,
            faults=spec, tracer=tracer,
        ).run(trace)
        assert result.replicas_consistent
        return result, tracer

    def perf(self, trace, spec, with_recovery):
        tracer = EventTracer()
        engine = ScrEngine(make_program("ddos"), self.CORES,
                           with_recovery=with_recovery, tracer=tracer)
        res = simulate(PerfTrace.from_trace(trace, make_program("ddos")),
                       self.RATE_PPS, engine, faults=FaultPlan(spec),
                       tracer=tracer)
        return res, tracer

    @staticmethod
    def drop_events(tracer):
        return [(e.core, e.fields["index"])
                for e in tracer.events() if e.kind == EV_FAULT_DROP]

    def test_layers_drop_the_same_packets(self, trace):
        spec = FaultSpec.create(seed=3, drop_rate=0.01)
        scheduled = FaultPlan(spec).schedule(len(trace))["drop"]
        assert scheduled
        result, f_tracer = self.functional(trace, spec)
        # Sequence numbers are 1-based arrival order.
        assert result.lost_seqs == [i + 1 for i in scheduled]
        res, p_tracer = self.perf(trace, spec, with_recovery=True)
        assert res.wire_dropped == res.pcie_dropped == res.ring_dropped == 0
        assert res.fault_stats["fault_dropped"] == len(scheduled)
        # Same packet indices, sprayed to the same cores, on both layers.
        assert self.drop_events(f_tracer) == self.drop_events(p_tracer)
        assert [i for _, i in self.drop_events(p_tracer)] == scheduled

    def test_gap_policy(self, trace):
        """Algorithm 1 heals gaps beyond the window from peer logs; only a
        run without recovery logs falls back to checkpoint resync."""
        spec = FaultSpec.create(seed=3, drop_rate=0.01)
        healed, _ = self.perf(trace, spec, with_recovery=True)
        resynced, _ = self.perf(trace, spec, with_recovery=False)
        assert healed.fault_stats["fault_gaps"] > 0
        assert healed.fault_stats["resyncs"] == 0
        assert resynced.fault_stats["resyncs"] > 0
        assert healed.fault_stats["fault_dropped"] == (
            resynced.fault_stats["fault_dropped"])

    def test_drop_sets_nest_across_rates(self, trace):
        low, _ = self.functional(trace, FaultSpec.create(seed=3, drop_rate=0.001))
        high, _ = self.functional(trace, FaultSpec.create(seed=3, drop_rate=0.01))
        assert low.lost_seqs
        assert set(low.lost_seqs) < set(high.lost_seqs)


class TestDecodeRobustness:
    """Corrupted SCR packets must fail loudly, never mis-parse silently."""

    def setup_method(self):
        self.codec = ScrPacketCodec(meta_size=4, num_slots=3, dummy_eth=True)
        rows = [bytes([i]) * 4 for i in range(3)]
        self.valid = self.codec.encode(5, 1000, rows, 1, b"ORIGINAL")

    @settings(max_examples=120, deadline=None)
    @given(
        pos=st.integers(min_value=0, max_value=47),
        bit=st.integers(min_value=0, max_value=7),
    )
    def test_single_bit_flips_never_crash(self, pos, bit):
        data = bytearray(self.valid)
        data[pos % len(data)] ^= 1 << bit
        try:
            header, rows, original = self.codec.decode(bytes(data))
        except ValueError:
            return  # loud rejection is fine
        # Accepted: then the structural fields must still be coherent.
        assert header.num_slots == 3 and header.meta_size == 4
        assert len(rows) == 3

    @settings(max_examples=60, deadline=None)
    @given(cut=st.integers(min_value=0, max_value=47))
    def test_truncations_never_crash(self, cut):
        data = self.valid[:cut]
        with pytest.raises(ValueError):
            self.codec.decode(data)

    @settings(max_examples=60, deadline=None)
    @given(junk=st.binary(min_size=0, max_size=80))
    def test_random_junk_rejected(self, junk):
        try:
            self.codec.decode(junk)
        except ValueError:
            return
        # A random accept requires the magic + geometry to match — possible
        # only if hypothesis found a valid packet, which is fine.
        assert junk[14:16] == b"\x5c\x12"
