"""Functional Tofino pipeline: stage-accurate datapath equivalence."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ScrCoreRuntime, reference_run
from repro.packet import TCP_SYN, make_tcp_packet, make_udp_packet
from repro.programs import make_program
from repro.sequencer import PacketHistorySequencer
from repro.sequencer.tofino_pipeline import TofinoPipeline
from repro.state import StateMap
from repro.traffic import synthesize_trace, univ_dc_flow_sizes


def pkt(src, ts=0):
    return make_udp_packet(src, 2, 3, 4, timestamp_ns=ts)


class TestEquivalence:
    @pytest.mark.parametrize("name,cores", [
        ("ddos", 3), ("ddos", 14), ("port_knocking", 7),
        ("heavy_hitter", 5), ("conntrack", 5), ("token_bucket", 9),
    ])
    def test_bit_identical_to_behavioural_sequencer(self, name, cores):
        """Both implementations must emit exactly the same SCR packets."""
        prog = make_program(name)
        pipeline = TofinoPipeline(make_program(name), cores)
        behavioural = PacketHistorySequencer(make_program(name), cores)
        for i in range(cores * 4 + 3):
            p = make_tcp_packet(
                1 + i % 5, 9, 1000 + i % 3, 80, TCP_SYN, seq=i,
                timestamp_ns=i * 1000,
            )
            core_a, data_a, seq_a = pipeline.process(p)
            sp = behavioural.process(p)
            assert (core_a, seq_a) == (sp.core, sp.seq)
            assert data_a == sp.data, f"packet {i} differs"

    @settings(max_examples=20, deadline=None)
    @given(
        srcs=st.lists(st.integers(min_value=1, max_value=9), min_size=1, max_size=40),
        cores=st.integers(min_value=1, max_value=8),
    )
    def test_equivalence_property(self, srcs, cores):
        pipeline = TofinoPipeline(make_program("ddos"), cores)
        behavioural = PacketHistorySequencer(make_program("ddos"), cores)
        for i, src in enumerate(srcs):
            p = pkt(src, ts=i)
            _, data_a, _ = pipeline.process(p)
            assert data_a == behavioural.process(p).data


class TestDatapath:
    def test_capacity_check_matches_section_43(self):
        # conntrack (30 B → 8 words) over 5 cores = 40 fields: fits (44).
        TofinoPipeline(make_program("conntrack"), 5)
        with pytest.raises(ValueError, match="32-bit fields"):
            TofinoPipeline(make_program("conntrack"), 6)

    def test_ddos_44_cores_fits_exactly(self):
        pipeline = TofinoPipeline(make_program("ddos"), 44)
        assert 1 + len(pipeline.history_actions) == 45  # 44 history + index

    def test_byte_packed_register_count(self):
        """Items pack back-to-back: 8 x 18 B = 144 B → 36 words + index."""
        pipeline = TofinoPipeline(make_program("heavy_hitter"), 8)
        assert 1 + len(pipeline.history_actions) == 37

    def test_byte_packing_reaches_section_43_capacities(self):
        """The packed layout achieves exactly the paper's core counts."""
        for name, cores in [
            ("ddos", 44), ("port_knocking", 22), ("heavy_hitter", 9),
            ("token_bucket", 9), ("conntrack", 5),
        ]:
            TofinoPipeline(make_program(name), cores)  # fits
            with pytest.raises(ValueError):
                TofinoPipeline(make_program(name), cores + 1)

    def test_index_pointer_lives_in_stage_zero(self):
        pipeline = TofinoPipeline(make_program("ddos"), 4)
        assert pipeline.index_action.register.stage == 0
        assert all(a.register.stage >= 1 for a in pipeline.history_actions)

    def test_registers_start_zeroed_and_rotate(self):
        pipeline = TofinoPipeline(make_program("ddos"), 2)
        _, data, _ = pipeline.process(pkt(0xAA))
        header, rows, _ = pipeline.codec.decode(data)
        assert rows == [b"\x00" * 4, b"\x00" * 4]  # dump precedes write
        _, data, _ = pipeline.process(pkt(0xBB))
        _, rows, _ = pipeline.codec.decode(data)
        assert rows[-1] == (0xAA).to_bytes(4, "big")

    def test_reset(self):
        pipeline = TofinoPipeline(make_program("ddos"), 2)
        pipeline.process(pkt(1))
        pipeline.reset()
        assert pipeline.index_action.register.value == 0
        _, data, seq = pipeline.process(pkt(2))
        assert seq == 1


def test_end_to_end_scr_through_hardware_pipeline():
    """Cores fed by the hardware pipeline replicate correctly — the full
    switch + server deployment in miniature."""
    prog = make_program("port_knocking")
    cores = 4
    pipeline = TofinoPipeline(prog, cores)
    runtimes = [
        ScrCoreRuntime(prog, core_id=i, codec=pipeline.codec, state=StateMap())
        for i in range(cores)
    ]
    trace = synthesize_trace(univ_dc_flow_sizes(), 10, seed=8, max_packets=400)
    verdicts = {}
    for p in trace:
        core, data, seq = pipeline.process(p)
        for s, v in runtimes[core].receive(data):
            verdicts[s] = v
    ref_verdicts, _ = reference_run(make_program("port_knocking"), trace)
    assert verdicts == ref_verdicts
