"""Lowering checked against an independent per-packet reference.

``PerfTrace.from_trace`` reads the headers once per trace (packed hash
inputs, wire lengths, validity and, in columnar mode, the Toeplitz
columns) and shares them across programs.  The scalar and columnar
modes share that header pass, so comparing them with each other cannot
catch a fault in it.  Here every column is rebuilt the old way, one
packet at a time: ``pkt.five_tuple()`` -> ``hash_input_l3`` /
``hash_input_l4`` -> the scalar ``toeplitz_hash``, ``pkt.wire_len``,
``pkt.is_ipv4`` and the program's own ``touches_global``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cpu.simulator import PerfTrace
from repro.nic.rss import SYMMETRIC_RSS_KEY, hash_input_l3, hash_input_l4, toeplitz_hash
from repro.packet import Packet, make_tcp_packet, make_udp_packet
from repro.packet.headers import EthernetHeader, IPv4Header, TCPHeader
from repro.programs.registry import make_program, program_names
from repro.scenario import TraceSpec
from repro.scenario.build import _synthesize
from repro.traffic.trace import Trace

MODES = ("scalar", "columnar")

#: Columns the header pass builds once per trace.
HEADER_COLUMNS = ("hash_l3", "hash_l4", "hash_sym", "wire_lens", "valid")


def _mixed_trace() -> Trace:
    """Non-IPv4 frames, IPv4 without L4 (ports read as 0), UDP and TCP."""
    arp = EthernetHeader(ethertype=0x0806)
    return Trace([
        make_tcp_packet(0x0A000001, 0xAC100001, 40000, 443, 0x02, timestamp_ns=1),
        Packet(eth=arp, payload=bytes(28), timestamp_ns=2),
        Packet(timestamp_ns=3),
        Packet(ip=IPv4Header(src=0x0A000002, dst=0xAC100002, proto=1),
               payload=bytes(8), timestamp_ns=4),
        make_udp_packet(0xC0A80001, 0x08080808, 5353, 53, bytes(30),
                        timestamp_ns=5),
        # An L4 header without an IPv4 one: the 4-tuple is all zero.
        Packet(l4=TCPHeader(sport=7, dport=9), timestamp_ns=6),
        make_tcp_packet(0xFFFFFFFF, 0, 65535, 0, 0x10, payload=bytes(600),
                        timestamp_ns=7, wire_len=192),
        make_udp_packet(0x0A000001, 0xAC100001, 40000, 443, timestamp_ns=8),
        make_tcp_packet(0x0A000001, 0xAC100001, 40000, 443, 0x11,
                        timestamp_ns=9, wire_len=64),
    ], name="mixed")


TRACES = {
    "uni": lambda: _synthesize(TraceSpec("caida", num_flows=30, max_packets=300, seed=5)),
    "bi": lambda: _synthesize(TraceSpec("caida", num_flows=20, max_packets=300, seed=5,
                                        bidirectional=True)),
    "mixed": _mixed_trace,
}


def _reference(trace: Trace, program) -> dict:
    """Every lowered column, built one packet at a time."""
    key_table: list = []
    key_ids, l3, l4, sym, wire, valid, touches = [], [], [], [], [], [], []
    for pkt in trace:
        meta = program.extract_metadata(pkt)
        key = program.key(meta)
        if key not in key_table:
            key_table.append(key)
        key_ids.append(key_table.index(key))
        ft = pkt.five_tuple()
        l3.append(toeplitz_hash(hash_input_l3(ft)))
        l4.append(toeplitz_hash(hash_input_l4(ft)))
        sym.append(toeplitz_hash(hash_input_l4(ft), key=SYMMETRIC_RSS_KEY))
        wire.append(pkt.wire_len)
        valid.append(pkt.is_ipv4)
        touches.append(bool(program.touches_global(meta)))
    return {
        "key_table": key_table,
        "key_ids": np.array(key_ids, dtype=np.int64),
        "hash_l3": np.array(l3, dtype=np.uint32),
        "hash_l4": np.array(l4, dtype=np.uint32),
        "hash_sym": np.array(sym, dtype=np.uint32),
        "wire_lens": np.array(wire, dtype=np.int64),
        "valid": np.array(valid, dtype=bool),
        "touches_global": np.array(touches, dtype=bool),
    }


def _assert_matches(pt: PerfTrace, ref: dict) -> None:
    assert pt.key_table == ref["key_table"]
    for column, expected in ref.items():
        if column == "key_table":
            continue
        got = getattr(pt, column)
        assert got.dtype == expected.dtype, column
        assert got.flags.c_contiguous and not got.flags.writeable, column
        assert np.array_equal(got, expected), column


@pytest.fixture(scope="module")
def traces():
    return {name: build() for name, build in TRACES.items()}


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("trace_name", sorted(TRACES))
@pytest.mark.parametrize("program_name", program_names())
def test_lowering_matches_per_packet_reference(traces, trace_name, program_name, mode):
    trace = traces[trace_name]
    program = make_program(program_name)
    pt = PerfTrace.from_trace(trace, program, hotpath=mode)
    assert len(pt) == len(trace)
    assert pt.program_name == program.name and pt.name == trace.name
    _assert_matches(pt, _reference(trace, program))


def test_mixed_trace_covers_every_header_shape(traces):
    pt = PerfTrace.from_trace(traces["mixed"], make_program("ddos"))
    assert pt.valid.tolist() == [True, False, False, True, True, False, True, True, True]
    assert pt.wire_lens.tolist()[-3:] == [192, 42, 64]


@pytest.mark.parametrize("mode", MODES)
def test_programs_lowered_from_one_trace_share_header_columns(mode):
    trace = TRACES["bi"]()
    a = PerfTrace.from_trace(trace, make_program("ddos"), hotpath=mode)
    b = PerfTrace.from_trace(trace, make_program("conntrack"), hotpath=mode)
    shared = HEADER_COLUMNS if mode == "columnar" else ("wire_lens", "valid")
    for column in HEADER_COLUMNS:
        x, y = getattr(a, column), getattr(b, column)
        assert np.array_equal(x, y), column
        assert not x.flags.writeable and not y.flags.writeable, column
        assert (x is y) == (column in shared), column
    with pytest.raises(ValueError):
        a.wire_lens[0] = 1


@pytest.mark.parametrize("mode", MODES)
def test_append_after_lowering_changes_the_next_lowering(mode):
    trace = TRACES["uni"]()
    program = make_program("conntrack")
    before = PerfTrace.from_trace(trace, program, hotpath=mode)
    trace.append(make_udp_packet(0xC0A80001, 0xC0A80002, 1234, 4321,
                                 bytes(100), timestamp_ns=10**12))
    after = PerfTrace.from_trace(trace, program, hotpath=mode)
    assert len(after) == len(before) + 1
    for column in HEADER_COLUMNS:
        assert np.array_equal(getattr(after, column)[:-1], getattr(before, column))
    _assert_matches(after, _reference(trace, program))


def test_assigning_packets_changes_the_next_lowering():
    trace = TRACES["uni"]()
    program = make_program("ddos")
    PerfTrace.from_trace(trace, program)
    trace.packets = trace.packets[:-10]
    _assert_matches(PerfTrace.from_trace(trace, program), _reference(trace, program))
