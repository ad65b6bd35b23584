"""Peak meter: per-flow maximum packet size (a monotone max-accumulator).

Extension program exercising the third commutative update family the
relaxed-replication literature identifies ("Relaxing constraints in
stateful network data plane design"): alongside accumulate-add (ddos) and
OR-accumulate (spreader), a running ``max`` commutes — replicas applying
the same packet set in any order converge to the same peak.  Jumbo-frame
detection and MTU auditing keep exactly this state: the largest packet
seen per flow.

Key = 5-tuple, value = peak wire length (scalar), update fits a hardware
compare-and-swap loop (atomic max), always forwards.
"""

from __future__ import annotations

from typing import Any, Hashable, Optional, Tuple

from ..packet import Packet
from ..packet.flow import FiveTuple
from .base import PacketMetadata, PacketProgram, Verdict

__all__ = ["PeakMeterMetadata", "PeakMeter"]


class PeakMeterMetadata(PacketMetadata):
    """18 bytes: the 5-tuple (13), packet length (4), validity flag (1)."""

    FORMAT = "!IIHHBIB"
    FIELDS = ("src_ip", "dst_ip", "src_port", "dst_port", "proto", "pkt_len", "valid")
    __slots__ = FIELDS


class PeakMeter(PacketProgram):
    """Track the largest packet seen per flow."""

    name = "peak_meter"
    metadata_cls = PeakMeterMetadata
    rss_fields = "5-tuple"
    needs_locks = False  # a running max fits an atomic CAS loop
    #: max-accumulate: order-independent, so replicas may merge deltas.
    SCR_COMMUTATIVE_FIELDS = ("value",)

    def extract_metadata(self, pkt: Packet) -> PeakMeterMetadata:
        if not pkt.is_ipv4:
            return PeakMeterMetadata(valid=0)
        ft = pkt.five_tuple()
        return PeakMeterMetadata(
            src_ip=ft.src_ip,
            dst_ip=ft.dst_ip,
            src_port=ft.src_port,
            dst_port=ft.dst_port,
            proto=ft.proto,
            pkt_len=pkt.wire_len,
            valid=1,
        )

    def key(self, meta: PacketMetadata) -> Hashable:
        return FiveTuple(meta.src_ip, meta.dst_ip, meta.src_port, meta.dst_port,
                         meta.proto)

    def transition(
        self, value: Optional[Any], meta: PacketMetadata
    ) -> Tuple[Optional[Any], Verdict]:
        if not meta.valid:
            return value, Verdict.PASS
        peak = max(value or 0, meta.pkt_len)
        return peak, Verdict.TX
