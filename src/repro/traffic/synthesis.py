"""Trace synthesis: turn flow-size samples into realistic packet traces.

Key properties the evaluation relies on (§4.1):

* Every TCP flow that begins in the trace also ends: the first packet of a
  flow carries SYN, the last carries FIN.  This lets a trace be replayed
  repeatedly with correct program semantics.
* Flows are highly dynamic — created and destroyed throughout the trace —
  not a stable set of active flows.
* Bidirectional synthesis produces a full handshake / data+ACK / teardown
  exchange so the connection tracker sees both directions in order.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Iterator, List, Optional, Tuple

import numpy as np

from ..packet import (
    ETH_HLEN, IPV4_HLEN, TCP_ACK, TCP_FIN, TCP_HLEN, TCP_SYN, Packet,
    make_tcp_packet,
)
from .distributions import FlowSizeDistribution
from .trace import Trace

__all__ = ["FlowSpec", "synthesize_trace", "single_flow_trace", "flow_packets"]

#: Base of the synthetic address space (10.0.0.0/8 clients, 172.16/12 servers).
_CLIENT_BASE = 0x0A000000
_SERVER_BASE = 0xAC100000

#: Headers of every synthesized packet (Ethernet/IPv4/TCP).
_TCP_FRAME_HLEN = ETH_HLEN + IPV4_HLEN + TCP_HLEN


@dataclass
class FlowSpec:
    """One synthetic flow: endpoints, size, and start time."""

    src_ip: int
    dst_ip: int
    src_port: int
    dst_port: int
    data_packets: int
    start_ns: int
    gap_ns: int = 1_000  # inter-packet gap within the flow


def flow_packets(
    spec: FlowSpec,
    bidirectional: bool = False,
    payload_size: int = 512,
) -> List[Packet]:
    """Generate a flow's packets: SYN first, FIN last (§4.1).

    Unidirectional flows emit SYN, data…, FIN from the client only.
    Bidirectional flows emit the full exchange: SYN, SYN/ACK, ACK, then a
    data/ACK pair per data packet, then FIN, FIN/ACK, ACK.
    """
    return list(_flow_stream(spec, bidirectional, payload_size))


def _flow_stream(
    spec: FlowSpec, bidirectional: bool, payload_size: int,
    packet_size: Optional[int] = None,
) -> Iterator[Packet]:
    """:func:`flow_packets`, one packet at a time in timestamp order.

    With ``packet_size`` set, each packet is built at that size on the
    wire, exactly as :meth:`Packet.truncated` would cut it: the payload
    keeps ``packet_size`` minus the headers, and sequence numbers still
    advance by the full ``payload_size``.
    """
    if spec.data_packets < 1:
        raise ValueError("flows carry at least one data packet")
    payload = bytes(payload_size)
    wire_len = 0  # make_tcp_packet's default: headers plus payload
    if packet_size is not None:
        payload = payload[:max(0, packet_size - _TCP_FRAME_HLEN)]
        wire_len = max(packet_size, _TCP_FRAME_HLEN)
    t = spec.start_ns
    seq_c, seq_s = 1000, 5000

    def client(flags: int, seq: int, ack: int = 0, data: bytes = b"") -> Packet:
        return make_tcp_packet(
            spec.src_ip, spec.dst_ip, spec.src_port, spec.dst_port,
            flags, seq=seq, ack=ack, payload=data, timestamp_ns=t,
            wire_len=wire_len,
        )

    def server(flags: int, seq: int, ack: int = 0, data: bytes = b"") -> Packet:
        return make_tcp_packet(
            spec.dst_ip, spec.src_ip, spec.dst_port, spec.src_port,
            flags, seq=seq, ack=ack, payload=data, timestamp_ns=t,
            wire_len=wire_len,
        )

    if not bidirectional:
        yield client(TCP_SYN, seq_c)
        t += spec.gap_ns
        for _ in range(max(0, spec.data_packets - 2)):
            seq_c += payload_size
            yield client(TCP_ACK, seq_c, data=payload)
            t += spec.gap_ns
        seq_c += payload_size
        yield client(TCP_FIN | TCP_ACK, seq_c)
        return

    # Bidirectional: handshake.
    yield client(TCP_SYN, seq_c)
    t += spec.gap_ns
    yield server(TCP_SYN | TCP_ACK, seq_s, ack=seq_c + 1)
    t += spec.gap_ns
    seq_c += 1
    yield client(TCP_ACK, seq_c, ack=seq_s + 1)
    t += spec.gap_ns
    # Data packets from the client, each ACKed by the server.
    for _ in range(spec.data_packets):
        yield client(TCP_ACK, seq_c, ack=seq_s + 1, data=payload)
        seq_c += payload_size
        t += spec.gap_ns
        yield server(TCP_ACK, seq_s + 1, ack=seq_c)
        t += spec.gap_ns
    # Teardown: client FIN, server FIN/ACK, client final ACK.
    yield client(TCP_FIN | TCP_ACK, seq_c, ack=seq_s + 1)
    t += spec.gap_ns
    yield server(TCP_FIN | TCP_ACK, seq_s + 1, ack=seq_c + 1)
    t += spec.gap_ns
    yield client(TCP_ACK, seq_c + 1, ack=seq_s + 2)


def synthesize_trace(
    distribution: FlowSizeDistribution,
    num_flows: int,
    seed: int = 0,
    bidirectional: bool = False,
    mean_flow_interarrival_ns: int = 50_000,
    intra_flow_gap_ns: int = 1_000,
    flow_duration_ns: Optional[int] = None,
    payload_size: int = 512,
    max_packets: Optional[int] = None,
    name: Optional[str] = None,
    packet_size: Optional[int] = None,
) -> Trace:
    """Sample ``num_flows`` flows and interleave their packets by timestamp.

    Flow starts follow a Poisson process; each flow's size (in packets) is
    drawn from ``distribution``.  The merged trace is globally time-ordered,
    so flows overlap — states are created and destroyed throughout (§4.1).
    ``max_packets`` caps the trace size (mirroring the paper's flow-sampled
    CAIDA trace that respects eBPF map-size limits).

    With ``flow_duration_ns`` set, every flow spreads its packets over
    roughly that wall-clock span (larger flows send proportionally faster),
    which is how bulk transfers behave in real captures.  This keeps a
    window of the merged trace as skewed as the size distribution itself —
    an elephant's share of any window matches its share of the trace.
    Without it, every flow uses the fixed ``intra_flow_gap_ns``.

    ``packet_size`` fixes every packet's size on the wire (§4.2).  Each
    packet is built at that size, byte for byte what ``Trace.truncated``
    would make of the full-size trace, without building it twice.
    """
    if num_flows < 1:
        raise ValueError("need at least one flow")
    rng = np.random.default_rng(seed)
    sizes = distribution.sample_packets(rng, num_flows)
    # Truncating each gap to int64 and summing is the running
    # ``start += int(gap)``: flow i starts at starts[i].
    starts = np.cumsum(
        rng.exponential(mean_flow_interarrival_ns, num_flows).astype(np.int64)
    )

    # Merge the flows' packet streams by timestamp.  The heap holds each
    # active flow's next packet keyed by (timestamp, flow index), unique
    # since a flow has one entry.  A flow's FlowSpec is built only once
    # its start is due (its packets carry timestamps >= its start, and
    # flows start in index order), and a packet only once its flow's
    # previous one leaves the heap: a capped trace builds at most
    # ``max_packets`` plus one packet per admitted flow.
    heap: List[Tuple[int, int, Packet, Iterator[Packet]]] = []
    merged: List[Packet] = []
    i = 0
    while True:
        while i < num_flows and (not heap or starts[i] <= heap[0][0]):
            spec = FlowSpec(
                src_ip=_CLIENT_BASE + 1 + (i % 0xFFFF_00),
                dst_ip=_SERVER_BASE + 1 + (i % 1024),
                src_port=1024 + (i % 60000),
                dst_port=80 if i % 2 == 0 else 443,
                data_packets=sizes[i],
                start_ns=int(starts[i]),
                gap_ns=(intra_flow_gap_ns if flow_duration_ns is None
                        else max(1, flow_duration_ns // max(1, sizes[i]))),
            )
            stream = _flow_stream(spec, bidirectional, payload_size, packet_size)
            pkt = next(stream)
            heapq.heappush(heap, (pkt.timestamp_ns, i, pkt, stream))
            i += 1
        if not heap:
            break
        _, fi, pkt, stream = heapq.heappop(heap)
        merged.append(pkt)
        if max_packets is not None and len(merged) >= max_packets:
            break
        pkt = next(stream, None)
        if pkt is not None:
            heapq.heappush(heap, (pkt.timestamp_ns, fi, pkt, stream))

    trace_name = name or f"{distribution.name}-{num_flows}flows"
    return Trace(merged, name=trace_name)


def single_flow_trace(
    num_packets: int,
    bidirectional: bool = True,
    gap_ns: int = 100,
    payload_size: int = 512,
    name: str = "single-flow",
    packet_size: Optional[int] = None,
) -> Trace:
    """One elephant TCP connection — the Figure 1 workload.

    All packets belong to a single connection, so sharding techniques are
    pinned to one core while SCR can still spread the work.
    ``packet_size`` builds every packet at that size on the wire, as in
    :func:`synthesize_trace`.
    """
    if num_packets < 1:
        raise ValueError("need at least one packet")
    spec = FlowSpec(
        src_ip=_CLIENT_BASE + 1,
        dst_ip=_SERVER_BASE + 1,
        src_port=40000,
        dst_port=443,
        data_packets=num_packets,
        start_ns=0,
        gap_ns=gap_ns,
    )
    pkts = list(_flow_stream(spec, bidirectional, payload_size, packet_size))
    return Trace(pkts, name=name)
