"""DDoS mitigator: per-source-IP packet counter with a drop threshold.

Table 1 row: key = source IP, value = count, metadata = 4 bytes/packet,
RSS hash fields = src & dst IP, update fits hardware atomics (fetch-add).
Modeled on XDP-based DDoS mitigation [42]: sources exceeding a packet-count
threshold get their traffic dropped.
"""

from __future__ import annotations

from typing import Any, Hashable, Optional, Tuple

from ..packet import Packet
from .base import PacketMetadata, PacketProgram, Verdict

__all__ = ["DDoSMetadata", "DDoSMitigator", "VictimMetadata", "VictimMonitor"]


class DDoSMetadata(PacketMetadata):
    """4 bytes: the source IP.  A zero source IP encodes "not IPv4"."""

    FORMAT = "!I"
    FIELDS = ("src_ip",)
    __slots__ = ("src_ip",)


class DDoSMitigator(PacketProgram):
    """Count packets per source; drop sources above ``threshold`` packets."""

    name = "ddos"
    metadata_cls = DDoSMetadata
    rss_fields = "src & dst IP"
    needs_locks = False  # count increment fits a hardware atomic
    #: the counter is pure accumulate-add: replicas may merge deltas.
    SCR_COMMUTATIVE_FIELDS = ("value",)

    def __init__(self, threshold: int = 10_000) -> None:
        if threshold < 1:
            raise ValueError("threshold must be positive")
        self.threshold = threshold

    def extract_metadata(self, pkt: Packet) -> DDoSMetadata:
        src = pkt.ip.src if pkt.is_ipv4 else 0
        return DDoSMetadata(src_ip=src)

    def key(self, meta: PacketMetadata) -> Hashable:
        return meta.src_ip

    def transition(
        self, value: Optional[Any], meta: PacketMetadata
    ) -> Tuple[Optional[Any], Verdict]:
        if meta.src_ip == 0:
            # Non-IPv4 traffic is passed through untouched and untracked.
            return value, Verdict.PASS
        count = (value or 0) + 1
        verdict = Verdict.DROP if count > self.threshold else Verdict.TX
        return count, verdict


class VictimMetadata(PacketMetadata):
    """4 bytes: the destination IP.  Zero encodes "not IPv4"."""

    FORMAT = "!I"
    FIELDS = ("dst_ip",)
    __slots__ = ("dst_ip",)


class VictimMonitor(PacketProgram):
    """Count packets per *destination* (inbound-attack victim detection).

    The mirror image of :class:`DDoSMitigator`: keyed on the destination
    IP.  Chaining the two (service chain, §5) produces state keyed on
    incomparable fields — per-source and per-destination — which no single
    RSS configuration can shard correctly (§2.2); SCR replicates both.
    The monitor never drops; hot victims are flagged in state.
    """

    name = "victim_monitor"
    metadata_cls = VictimMetadata
    rss_fields = "src & dst IP"
    needs_locks = False
    #: same accumulate-add counter as the mitigator, keyed on dst.
    SCR_COMMUTATIVE_FIELDS = ("value",)

    def __init__(self, threshold: int = 10_000) -> None:
        if threshold < 1:
            raise ValueError("threshold must be positive")
        self.threshold = threshold

    def extract_metadata(self, pkt: Packet) -> VictimMetadata:
        return VictimMetadata(dst_ip=pkt.ip.dst if pkt.is_ipv4 else 0)

    def key(self, meta: PacketMetadata) -> Hashable:
        return meta.dst_ip

    def transition(
        self, value: Optional[Any], meta: PacketMetadata
    ) -> Tuple[Optional[Any], Verdict]:
        if meta.dst_ip == 0:
            return value, Verdict.PASS
        return (value or 0) + 1, Verdict.TX
