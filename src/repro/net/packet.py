"""Packet formats: Ethernet, ARP, IPv4, ICMP, TCP.

Packets travel through the simulator as immutable value objects, never
as bytes, but every format also serializes to real wire bytes
(``to_bytes``/``from_bytes``) with real header layouts and the real
Internet checksum; the link layer uses :meth:`wire_size` for its
bandwidth model, and the test suite round-trips the byte forms.

Every TCP segment is built three times over (``TcpSegment``, then the
``IpPacket`` and ``EthernetFrame`` wrapping it), so those three are
tuples: ``TcpSegment`` and ``IpPacket`` are ``NamedTuple`` types, and
``EthernetFrame`` a tuple with the same ``_fields``/``_replace`` API.
Each is one tuple allocation, with value equality and hashing from
``tuple`` and fields that cannot be assigned.  Copy one with a changed
field through ``_replace``.  ``ArpPacket`` and ``IcmpMessage`` are rare
and stay frozen dataclasses.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from operator import itemgetter
from typing import NamedTuple

from repro.net.addresses import Ipv4Address, MacAddress

# EtherTypes
ETHERTYPE_IP = 0x0800
ETHERTYPE_ARP = 0x0806

# IP protocol numbers
IPPROTO_ICMP = 1
IPPROTO_TCP = 6

# TCP flags
TCP_FIN = 0x01
TCP_SYN = 0x02
TCP_RST = 0x04
TCP_PSH = 0x08
TCP_ACK = 0x10

ETHERNET_HEADER = 14
ETHERNET_CRC = 4
IP_HEADER = 20
TCP_HEADER = 20
ICMP_HEADER = 8
ARP_BODY = 28


class PacketError(ValueError):
    """Raised when parsing malformed wire bytes."""


def internet_checksum(data: bytes) -> int:
    """RFC 1071 ones-complement checksum."""
    if len(data) % 2:
        data += b"\x00"
    total = 0
    for i in range(0, len(data), 2):
        total += (data[i] << 8) | data[i + 1]
        total = (total & 0xFFFF) + (total >> 16)
    return (~total) & 0xFFFF


@dataclass(frozen=True)
class ArpPacket:
    """ARP request/reply (opcode 1/2) for IPv4-over-Ethernet."""

    opcode: int
    sender_mac: MacAddress
    sender_ip: Ipv4Address
    target_mac: MacAddress
    target_ip: Ipv4Address

    def wire_size(self) -> int:
        return ARP_BODY

    def to_bytes(self) -> bytes:
        return (
            struct.pack(">HHBBH", 1, ETHERTYPE_IP, 6, 4, self.opcode)
            + self.sender_mac.to_bytes()
            + self.sender_ip.to_bytes()
            + self.target_mac.to_bytes()
            + self.target_ip.to_bytes()
        )

    @classmethod
    def from_bytes(cls, data: bytes) -> "ArpPacket":
        if len(data) < ARP_BODY:
            raise PacketError(f"ARP too short: {len(data)}")
        htype, ptype, hlen, plen, opcode = struct.unpack(">HHBBH", data[:8])
        if (htype, ptype, hlen, plen) != (1, ETHERTYPE_IP, 6, 4):
            raise PacketError("not IPv4-over-Ethernet ARP")
        return cls(
            opcode=opcode,
            sender_mac=MacAddress.from_bytes(data[8:14]),
            sender_ip=Ipv4Address.from_bytes(data[14:18]),
            target_mac=MacAddress.from_bytes(data[18:24]),
            target_ip=Ipv4Address.from_bytes(data[24:28]),
        )


@dataclass(frozen=True)
class IcmpMessage:
    """ICMP echo request/reply (types 8/0)."""

    icmp_type: int
    code: int
    identifier: int
    sequence: int
    payload: bytes = b""

    def wire_size(self) -> int:
        return ICMP_HEADER + len(self.payload)

    def to_bytes(self) -> bytes:
        header = struct.pack(
            ">BBHHH", self.icmp_type, self.code, 0, self.identifier, self.sequence
        )
        checksum = internet_checksum(header + self.payload)
        header = struct.pack(
            ">BBHHH",
            self.icmp_type,
            self.code,
            checksum,
            self.identifier,
            self.sequence,
        )
        return header + self.payload

    @classmethod
    def from_bytes(cls, data: bytes) -> "IcmpMessage":
        if len(data) < ICMP_HEADER:
            raise PacketError(f"ICMP too short: {len(data)}")
        icmp_type, code, checksum, identifier, sequence = struct.unpack(
            ">BBHHH", data[:8]
        )
        if internet_checksum(data) != 0:
            raise PacketError("bad ICMP checksum")
        return cls(icmp_type, code, identifier, sequence, data[8:])


class TcpSegment(NamedTuple):
    """TCP header + payload (options not modelled)."""

    src_port: int
    dst_port: int
    seq: int
    ack: int
    flags: int
    window: int
    payload: bytes = b""

    def wire_size(self) -> int:
        return TCP_HEADER + len(self.payload)

    def flag(self, mask: int) -> bool:
        return bool(self.flags & mask)

    def flag_names(self) -> str:
        names = []
        for mask, name in ((TCP_SYN, "SYN"), (TCP_ACK, "ACK"), (TCP_FIN, "FIN"),
                           (TCP_RST, "RST"), (TCP_PSH, "PSH")):
            if self.flags & mask:
                names.append(name)
        return "|".join(names) or "-"

    def to_bytes(self) -> bytes:
        offset_flags = (5 << 12) | (self.flags & 0x3F)
        return (
            struct.pack(
                ">HHLLHHHH",
                self.src_port,
                self.dst_port,
                self.seq & 0xFFFFFFFF,
                self.ack & 0xFFFFFFFF,
                offset_flags,
                self.window & 0xFFFF,
                0,
                0,
            )
            + self.payload
        )

    @classmethod
    def from_bytes(cls, data: bytes) -> "TcpSegment":
        if len(data) < TCP_HEADER:
            raise PacketError(f"TCP too short: {len(data)}")
        (src, dst, seq, ack, offset_flags, window, _checksum, _urg) = struct.unpack(
            ">HHLLHHHH", data[:20]
        )
        header_len = (offset_flags >> 12) * 4
        return cls(src, dst, seq, ack, offset_flags & 0x3F, window, data[header_len:])

    def __repr__(self) -> str:
        return (
            f"TcpSegment({self.src_port}->{self.dst_port} {self.flag_names()} "
            f"seq={self.seq} ack={self.ack} len={len(self.payload)})"
        )


class IpPacket(NamedTuple):
    """IPv4 packet; ``payload`` is a ``TcpSegment`` or ``IcmpMessage``."""

    src: Ipv4Address
    dst: Ipv4Address
    protocol: int
    payload: object
    ttl: int = 64

    def wire_size(self) -> int:
        return IP_HEADER + self.payload.wire_size()

    def to_bytes(self) -> bytes:
        body = self.payload.to_bytes()
        total = IP_HEADER + len(body)
        header = struct.pack(
            ">BBHHHBBH4s4s",
            0x45,
            0,
            total,
            0,
            0,
            self.ttl,
            self.protocol,
            0,
            self.src.to_bytes(),
            self.dst.to_bytes(),
        )
        checksum = internet_checksum(header)
        header = header[:10] + struct.pack(">H", checksum) + header[12:]
        return header + body

    @classmethod
    def from_bytes(cls, data: bytes) -> "IpPacket":
        if len(data) < IP_HEADER:
            raise PacketError(f"IP too short: {len(data)}")
        if internet_checksum(data[:IP_HEADER]) != 0:
            raise PacketError("bad IP header checksum")
        version_ihl = data[0]
        if version_ihl != 0x45:
            raise PacketError("only IPv4 without options supported")
        total = struct.unpack(">H", data[2:4])[0]
        ttl = data[8]
        protocol = data[9]
        src = Ipv4Address.from_bytes(data[12:16])
        dst = Ipv4Address.from_bytes(data[16:20])
        body = data[IP_HEADER:total]
        parser = {
            IPPROTO_ICMP: IcmpMessage,
            IPPROTO_TCP: TcpSegment,
        }.get(protocol)
        if parser is None:
            raise PacketError(f"unknown IP protocol {protocol}")
        return cls(src, dst, protocol, parser.from_bytes(body), ttl)


class EthernetFrame(tuple):
    """Ethernet II frame; ``payload`` is an IpPacket or ArpPacket.

    An immutable value like the ``NamedTuple`` packets, built from its
    four ``_fields``.  The tuple holds a fifth element, ``size``: the
    wire size (padded to the 64-byte minimum), computed once here
    because the sending NIC, the hub and every receiving NIC all read
    it.  It follows from ``payload``, so it never changes which frames
    compare equal, and ``_replace`` computes it afresh.
    """

    __slots__ = ()
    _fields = ("src", "dst", "ethertype", "payload")

    def __new__(cls, src: MacAddress, dst: MacAddress, ethertype: int,
                payload) -> "EthernetFrame":
        size = ETHERNET_HEADER + payload.wire_size() + ETHERNET_CRC
        return tuple.__new__(
            cls, (src, dst, ethertype, payload, size if size > 64 else 64))

    src = property(itemgetter(0))
    dst = property(itemgetter(1))
    ethertype = property(itemgetter(2))
    payload = property(itemgetter(3))
    size = property(itemgetter(4))

    def _replace(self, **changes) -> "EthernetFrame":
        """A copy with the named fields changed (``NamedTuple``'s API)."""
        src, dst, ethertype, payload, _size = self
        return type(self)(
            changes.pop("src", src), changes.pop("dst", dst),
            changes.pop("ethertype", ethertype),
            changes.pop("payload", payload), **changes)

    def __getnewargs__(self) -> tuple:
        return self[:4]

    def __repr__(self) -> str:
        return (f"EthernetFrame(src={self.src!r}, dst={self.dst!r}, "
                f"ethertype={self.ethertype!r}, payload={self.payload!r})")

    def wire_size(self) -> int:
        return self.size

    def to_bytes(self) -> bytes:
        return (
            self.dst.to_bytes()
            + self.src.to_bytes()
            + struct.pack(">H", self.ethertype)
            + self.payload.to_bytes()
        )

    @classmethod
    def from_bytes(cls, data: bytes) -> "EthernetFrame":
        if len(data) < ETHERNET_HEADER:
            raise PacketError(f"frame too short: {len(data)}")
        dst = MacAddress.from_bytes(data[0:6])
        src = MacAddress.from_bytes(data[6:12])
        ethertype = struct.unpack(">H", data[12:14])[0]
        body = data[14:]
        if ethertype == ETHERTYPE_IP:
            payload = IpPacket.from_bytes(body)
        elif ethertype == ETHERTYPE_ARP:
            payload = ArpPacket.from_bytes(body)
        else:
            raise PacketError(f"unknown ethertype {ethertype:#06x}")
        return cls(src, dst, ethertype, payload)
