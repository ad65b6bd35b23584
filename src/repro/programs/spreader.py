"""Super-spreader detector: per-source destination bitmap (OR-accumulate).

Extension program for the OR-accumulate commutative update family: a
source scanning many destinations sets bits in a 64-bucket destination
bitmap.  Bitwise OR commutes and is idempotent, so replicas applying the
same packets in any order — or even applying one packet twice during
recovery — converge to the same bitmap.  This is the sketch-style state
real scan detectors keep per source.

Key = source IP (cross-flow: one entry aggregates every flow the source
opens), value = 64-bit bitmap, update fits a hardware fetch-OR, always
forwards; sources above a fan-out threshold are read out of the map by the
control plane.
"""

from __future__ import annotations

from typing import Any, Hashable, Optional, Tuple

from ..packet import Packet
from .base import PacketMetadata, PacketProgram, Verdict

__all__ = ["SpreaderMetadata", "SuperSpreaderDetector"]

#: destination-bitmap width; 64 buckets ≈ the distinct-count granularity a
#: per-source scan detector needs.
_BUCKETS = 64


class SpreaderMetadata(PacketMetadata):
    """9 bytes: source IP (4), destination IP (4), validity flag (1)."""

    FORMAT = "!IIB"
    FIELDS = ("src_ip", "dst_ip", "valid")
    __slots__ = FIELDS


class SuperSpreaderDetector(PacketProgram):
    """Accumulate a per-source bitmap of destination buckets touched."""

    name = "spreader"
    metadata_cls = SpreaderMetadata
    rss_fields = "src & dst IP"
    needs_locks = False  # bitmap union fits a hardware fetch-OR
    #: OR-accumulate: commutative and idempotent, so deltas merge freely.
    SCR_COMMUTATIVE_FIELDS = ("value",)

    def __init__(self, fanout_threshold: int = 32) -> None:
        if not 1 <= fanout_threshold <= _BUCKETS:
            raise ValueError(f"fanout_threshold must be in [1, {_BUCKETS}]")
        self.fanout_threshold = fanout_threshold

    def extract_metadata(self, pkt: Packet) -> SpreaderMetadata:
        if not pkt.is_ipv4:
            return SpreaderMetadata(valid=0)
        return SpreaderMetadata(src_ip=pkt.ip.src, dst_ip=pkt.ip.dst, valid=1)

    def key(self, meta: PacketMetadata) -> Hashable:
        return meta.src_ip

    def transition(
        self, value: Optional[Any], meta: PacketMetadata
    ) -> Tuple[Optional[Any], Verdict]:
        if not meta.valid:
            return value, Verdict.PASS
        bits = (value or 0) | (1 << (meta.dst_ip % _BUCKETS))
        return bits, Verdict.TX
