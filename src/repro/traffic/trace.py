"""Trace container and on-disk format.

A :class:`Trace` is an ordered list of packets with monotonically
non-decreasing timestamps.  Traces can be truncated (the evaluation fixes
packet sizes at 64/192/256 bytes to stress packets-per-second, §4.2), saved
to a compact binary format, and inspected for flow statistics.
"""

from __future__ import annotations

import struct
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, TypeVar, Union

from ..packet import Packet
from ..packet.flow import FiveTuple

__all__ = ["Trace", "TraceStats"]

_T = TypeVar("_T")

_MAGIC = b"SCRT"
_VERSION = 1
_FILE_HEADER = struct.Struct("!4sHI")  # magic, version, packet count
_PKT_HEADER = struct.Struct("!QHH")  # timestamp_ns, wire_len, captured_len


@dataclass
class TraceStats:
    """Summary statistics of a trace (used by Figure 5 and sanity checks)."""

    packets: int
    flows: int
    max_flow_packets: int
    mean_flow_packets: float
    duration_ns: int

    @property
    def top_flow_share(self) -> float:
        """Fraction of all packets belonging to the largest flow."""
        if self.packets == 0:
            return 0.0
        return self.max_flow_packets / self.packets


class Trace:
    """An ordered packet trace.

    :meth:`derived` memoizes values computed from the packets (lowering's
    per-trace header columns); :meth:`append` and assigning
    :attr:`packets` drop them.
    """

    def __init__(self, packets: Optional[List[Packet]] = None, name: str = "trace") -> None:
        self.packets = packets or []
        self.name = name

    @property
    def packets(self) -> List[Packet]:
        return self._packets

    @packets.setter
    def packets(self, packets: List[Packet]) -> None:
        self._packets = packets
        self._derived: Dict[str, object] = {}

    def __len__(self) -> int:
        return len(self._packets)

    def __iter__(self) -> Iterator[Packet]:
        return iter(self._packets)

    def __getitem__(self, idx):
        return self._packets[idx]

    def append(self, pkt: Packet) -> None:
        self._packets.append(pkt)
        self._derived = {}

    def derived(self, key: str, build: Callable[["Trace"], _T]) -> _T:
        """``build(self)``, built once per ``key`` until the packets change."""
        value = self._derived.get(key)
        if value is None:
            value = self._derived[key] = build(self)
        return value  # type: ignore[return-value]

    def truncated(self, size: int) -> "Trace":
        """All packets truncated to ``size`` bytes on the wire (§4.2)."""
        return Trace([p.truncated(size) for p in self.packets], name=self.name)

    def flow_sizes(self, bidirectional: bool = False) -> Dict[FiveTuple, int]:
        """Packets per flow; ``bidirectional`` merges a connection's two sides."""
        counts: Counter = Counter()
        for pkt in self.packets:
            ft = pkt.five_tuple()
            if bidirectional:
                ft = ft.normalized()
            counts[ft] += 1
        return dict(counts)

    def stats(self, bidirectional: bool = False) -> TraceStats:
        sizes = self.flow_sizes(bidirectional=bidirectional)
        packets = len(self.packets)
        duration = 0
        if packets:
            duration = self.packets[-1].timestamp_ns - self.packets[0].timestamp_ns
        return TraceStats(
            packets=packets,
            flows=len(sizes),
            max_flow_packets=max(sizes.values()) if sizes else 0,
            mean_flow_packets=(packets / len(sizes)) if sizes else 0.0,
            duration_ns=duration,
        )

    # -- persistence ---------------------------------------------------------

    def save(self, path: Union[str, Path]) -> None:
        """Write the trace to the compact SCRT binary format."""
        path = Path(path)
        with path.open("wb") as fh:
            fh.write(_FILE_HEADER.pack(_MAGIC, _VERSION, len(self.packets)))
            for pkt in self.packets:
                raw = pkt.to_bytes()
                fh.write(_PKT_HEADER.pack(pkt.timestamp_ns, pkt.wire_len, len(raw)))
                fh.write(raw)

    @classmethod
    def load(cls, path: Union[str, Path]) -> "Trace":
        """Read a trace written by :meth:`save`."""
        path = Path(path)
        with path.open("rb") as fh:
            header = fh.read(_FILE_HEADER.size)
            if len(header) < _FILE_HEADER.size:
                raise ValueError(f"{path}: truncated trace header")
            magic, version, count = _FILE_HEADER.unpack(header)
            if magic != _MAGIC:
                raise ValueError(f"{path}: not an SCRT trace file")
            if version != _VERSION:
                raise ValueError(f"{path}: unsupported trace version {version}")
            packets = []
            for _ in range(count):
                pkt_header = fh.read(_PKT_HEADER.size)
                if len(pkt_header) < _PKT_HEADER.size:
                    raise ValueError(f"{path}: truncated packet header")
                ts, wire_len, captured = _PKT_HEADER.unpack(pkt_header)
                raw = fh.read(captured)
                if len(raw) < captured:
                    raise ValueError(f"{path}: truncated packet body")
                packets.append(Packet.from_bytes(raw, timestamp_ns=ts, wire_len=wire_len))
        return cls(packets, name=path.stem)
