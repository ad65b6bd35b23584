"""Trace container, SCRT binary format, and pcap interop."""

import struct

import pytest

from repro.packet import TCP_SYN, make_tcp_packet, make_udp_packet
from repro.traffic import Trace, read_pcap, write_pcap


@pytest.fixture
def trace():
    pkts = [
        make_tcp_packet(1, 2, 3, 4, TCP_SYN, timestamp_ns=100, payload=b"a" * 20),
        make_udp_packet(5, 6, 7, 8, payload=b"bb", timestamp_ns=250),
        make_tcp_packet(1, 2, 3, 4, TCP_SYN, timestamp_ns=999),
    ]
    return Trace(pkts, name="t")


class TestTrace:
    def test_len_iter_getitem(self, trace):
        assert len(trace) == 3
        assert list(trace)[1].is_udp
        assert trace[0].timestamp_ns == 100

    def test_flow_sizes(self, trace):
        sizes = trace.flow_sizes()
        assert sizes[trace[0].five_tuple()] == 2

    def test_stats(self, trace):
        st = trace.stats()
        assert st.packets == 3
        assert st.flows == 2
        assert st.max_flow_packets == 2
        assert st.duration_ns == 899
        assert st.top_flow_share == pytest.approx(2 / 3)

    def test_empty_trace_stats(self):
        st = Trace().stats()
        assert st.packets == 0 and st.flows == 0 and st.top_flow_share == 0.0

    def test_truncated_applies_to_all(self, trace):
        t = trace.truncated(64)
        assert all(p.wire_len == 64 for p in t)
        assert len(t) == 3


class TestScrtFormat:
    def test_save_load_roundtrip(self, trace, tmp_path):
        path = tmp_path / "x.scrt"
        trace.save(path)
        back = Trace.load(path)
        assert len(back) == len(trace)
        for a, b in zip(trace, back):
            assert a.to_bytes() == b.to_bytes()
            assert a.timestamp_ns == b.timestamp_ns
            assert a.wire_len == b.wire_len

    def test_truncated_wire_len_preserved(self, trace, tmp_path):
        path = tmp_path / "x.scrt"
        trace.truncated(192).save(path)
        back = Trace.load(path)
        assert all(p.wire_len == 192 for p in back)

    def test_load_rejects_bad_magic(self, tmp_path):
        path = tmp_path / "bad.scrt"
        path.write_bytes(b"XXXX" + b"\x00" * 20)
        with pytest.raises(ValueError, match="not an SCRT"):
            Trace.load(path)

    def test_load_rejects_truncated_file(self, trace, tmp_path):
        path = tmp_path / "x.scrt"
        trace.save(path)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) - 5])
        with pytest.raises(ValueError, match="truncated"):
            Trace.load(path)

    def test_load_rejects_wrong_version(self, tmp_path):
        path = tmp_path / "v.scrt"
        path.write_bytes(struct.pack("!4sHI", b"SCRT", 99, 0))
        with pytest.raises(ValueError, match="version"):
            Trace.load(path)


class TestPcap:
    def test_roundtrip(self, trace, tmp_path):
        path = tmp_path / "x.pcap"
        write_pcap(trace, path)
        back = read_pcap(path)
        assert len(back) == len(trace)
        for a, b in zip(trace, back):
            assert a.to_bytes() == b.to_bytes()
            assert a.wire_len == b.wire_len

    def test_timestamps_preserved_to_microseconds(self, tmp_path):
        t = Trace([make_udp_packet(1, 2, 3, 4, timestamp_ns=3_000_001_000)])
        path = tmp_path / "ts.pcap"
        write_pcap(t, path)
        assert read_pcap(path)[0].timestamp_ns == 3_000_001_000

    def test_global_header_magic(self, trace, tmp_path):
        path = tmp_path / "x.pcap"
        write_pcap(trace, path)
        assert path.read_bytes()[:4] == b"\xd4\xc3\xb2\xa1"

    def test_rejects_non_pcap(self, tmp_path):
        path = tmp_path / "no.pcap"
        path.write_bytes(b"\x00" * 40)
        with pytest.raises(ValueError, match="not a classic pcap"):
            read_pcap(path)

    def test_rejects_truncated_record(self, trace, tmp_path):
        path = tmp_path / "x.pcap"
        write_pcap(trace, path)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) - 3])
        with pytest.raises(ValueError, match="truncated"):
            read_pcap(path)
