"""Byte-exact protocol header definitions.

Each header is a small dataclass with ``pack()`` and ``unpack()`` methods that
round-trip through network byte order.  These are the wire formats used by the
traffic synthesizers, the NIC model, and the SCR sequencer's packet format.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

from .checksum import internet_checksum, pseudo_header

__all__ = [
    "ETH_HLEN",
    "IPV4_HLEN",
    "TCP_HLEN",
    "UDP_HLEN",
    "ETH_P_IP",
    "ETH_P_SCR",
    "IPPROTO_TCP",
    "IPPROTO_UDP",
    "TCP_FIN",
    "TCP_SYN",
    "TCP_RST",
    "TCP_PSH",
    "TCP_ACK",
    "EthernetHeader",
    "IPv4Header",
    "TCPHeader",
    "UDPHeader",
    "mac_to_bytes",
    "bytes_to_mac",
    "ip_to_int",
    "int_to_ip",
]

ETH_HLEN = 14
IPV4_HLEN = 20
TCP_HLEN = 20
UDP_HLEN = 8

ETH_P_IP = 0x0800
#: EtherType used by the sequencer's dummy Ethernet header (§3.3.1).  We use
#: a value from the experimental/local range so real stacks would ignore it.
ETH_P_SCR = 0x88B5

IPPROTO_TCP = 6
IPPROTO_UDP = 17

TCP_FIN = 0x01
TCP_SYN = 0x02
TCP_RST = 0x04
TCP_PSH = 0x08
TCP_ACK = 0x10


def mac_to_bytes(mac: str) -> bytes:
    """Convert ``"aa:bb:cc:dd:ee:ff"`` to 6 raw bytes."""
    parts = mac.split(":")
    if len(parts) != 6:
        raise ValueError(f"malformed MAC address: {mac!r}")
    return bytes(int(p, 16) for p in parts)


def bytes_to_mac(data: bytes) -> str:
    """Convert 6 raw bytes to ``"aa:bb:cc:dd:ee:ff"``."""
    if len(data) != 6:
        raise ValueError("MAC addresses are exactly 6 bytes")
    return ":".join(f"{b:02x}" for b in data)


def ip_to_int(ip: str) -> int:
    """Convert dotted-quad ``"10.0.0.1"`` to a 32-bit integer."""
    parts = ip.split(".")
    if len(parts) != 4:
        raise ValueError(f"malformed IPv4 address: {ip!r}")
    value = 0
    for p in parts:
        octet = int(p)
        if not 0 <= octet <= 255:
            raise ValueError(f"malformed IPv4 address: {ip!r}")
        value = (value << 8) | octet
    return value


def int_to_ip(value: int) -> str:
    """Convert a 32-bit integer to dotted-quad notation."""
    if not 0 <= value <= 0xFFFFFFFF:
        raise ValueError("IPv4 addresses are 32-bit")
    return ".".join(str((value >> shift) & 0xFF) for shift in (24, 16, 8, 0))


@dataclass
class EthernetHeader:
    """Ethernet II MAC header (14 bytes)."""

    dst: bytes = b"\x00" * 6
    src: bytes = b"\x00" * 6
    ethertype: int = ETH_P_IP

    _FMT = "!6s6sH"

    def pack(self) -> bytes:
        return struct.pack(self._FMT, self.dst, self.src, self.ethertype)

    @classmethod
    def unpack(cls, data: bytes) -> "EthernetHeader":
        if len(data) < ETH_HLEN:
            raise ValueError("truncated Ethernet header")
        dst, src, ethertype = struct.unpack(cls._FMT, data[:ETH_HLEN])
        return cls(dst=dst, src=src, ethertype=ethertype)


@dataclass
class IPv4Header:
    """IPv4 header without options (20 bytes)."""

    src: int = 0
    dst: int = 0
    proto: int = IPPROTO_TCP
    total_length: int = IPV4_HLEN
    ttl: int = 64
    tos: int = 0
    ident: int = 0
    flags_frag: int = 0
    checksum: int = 0

    _FMT = "!BBHHHBBHII"

    def pack(self, fill_checksum: bool = True) -> bytes:
        """Serialize; when ``fill_checksum`` the header checksum is computed."""
        version_ihl = (4 << 4) | 5
        raw = struct.pack(
            self._FMT,
            version_ihl,
            self.tos,
            self.total_length,
            self.ident,
            self.flags_frag,
            self.ttl,
            self.proto,
            0,
            self.src,
            self.dst,
        )
        if fill_checksum:
            csum = internet_checksum(raw)
            raw = raw[:10] + csum.to_bytes(2, "big") + raw[12:]
        return raw

    @classmethod
    def unpack(cls, data: bytes) -> "IPv4Header":
        if len(data) < IPV4_HLEN:
            raise ValueError("truncated IPv4 header")
        (
            version_ihl,
            tos,
            total_length,
            ident,
            flags_frag,
            ttl,
            proto,
            checksum,
            src,
            dst,
        ) = struct.unpack(cls._FMT, data[:IPV4_HLEN])
        if version_ihl >> 4 != 4:
            raise ValueError(f"not an IPv4 packet (version={version_ihl >> 4})")
        return cls(
            src=src,
            dst=dst,
            proto=proto,
            total_length=total_length,
            ttl=ttl,
            tos=tos,
            ident=ident,
            flags_frag=flags_frag,
            checksum=checksum,
        )


@dataclass
class TCPHeader:
    """TCP header without options (20 bytes)."""

    sport: int = 0
    dport: int = 0
    seq: int = 0
    ack: int = 0
    flags: int = TCP_ACK
    window: int = 65535
    checksum: int = 0
    urgent: int = 0

    _FMT = "!HHIIBBHHH"

    def pack(self) -> bytes:
        data_offset = (TCP_HLEN // 4) << 4
        return struct.pack(
            self._FMT,
            self.sport,
            self.dport,
            self.seq,
            self.ack,
            data_offset,
            self.flags,
            self.window,
            self.checksum,
            self.urgent,
        )

    def pack_with_checksum(self, src_ip: int, dst_ip: int, payload: bytes = b"") -> bytes:
        """Serialize with a valid checksum over the IPv4 pseudo-header."""
        raw = self.pack() + payload
        pseudo = pseudo_header(src_ip, dst_ip, IPPROTO_TCP, len(raw))
        csum = internet_checksum(pseudo + raw[:16] + b"\x00\x00" + raw[18:])
        return raw[:16] + csum.to_bytes(2, "big") + raw[18:]

    @classmethod
    def unpack(cls, data: bytes) -> "TCPHeader":
        if len(data) < TCP_HLEN:
            raise ValueError("truncated TCP header")
        (
            sport,
            dport,
            seq,
            ack,
            _offset,
            flags,
            window,
            checksum,
            urgent,
        ) = struct.unpack(cls._FMT, data[:TCP_HLEN])
        return cls(
            sport=sport,
            dport=dport,
            seq=seq,
            ack=ack,
            flags=flags,
            window=window,
            checksum=checksum,
            urgent=urgent,
        )

    def has_flag(self, flag: int) -> bool:
        return bool(self.flags & flag)


@dataclass
class UDPHeader:
    """UDP header (8 bytes)."""

    sport: int = 0
    dport: int = 0
    length: int = UDP_HLEN
    checksum: int = 0

    _FMT = "!HHHH"

    def pack(self) -> bytes:
        return struct.pack(self._FMT, self.sport, self.dport, self.length, self.checksum)

    @classmethod
    def unpack(cls, data: bytes) -> "UDPHeader":
        if len(data) < UDP_HLEN:
            raise ValueError("truncated UDP header")
        sport, dport, length, checksum = struct.unpack(cls._FMT, data[:UDP_HLEN])
        return cls(sport=sport, dport=dport, length=length, checksum=checksum)
