"""Address types and wire formats: parse/format roundtrips, checksums."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.net.addresses import (
    AddressError,
    BROADCAST_IP,
    BROADCAST_MAC,
    INADDR_ANY,
    Ipv4Address,
    MacAddress,
    ip,
    mac,
)
from repro.net.packet import (
    ArpPacket,
    EthernetFrame,
    ETHERTYPE_ARP,
    ETHERTYPE_IP,
    IcmpMessage,
    internet_checksum,
    IpPacket,
    IPPROTO_ICMP,
    IPPROTO_TCP,
    PacketError,
    TCP_ACK,
    TCP_SYN,
    TcpSegment,
)


class TestAddresses:
    def test_parse_format_roundtrip(self):
        for text in ("0.0.0.0", "10.0.0.1", "255.255.255.255", "192.168.1.77"):
            assert str(Ipv4Address.parse(text)) == text

    def test_parse_rejects_garbage(self):
        for bad in ("1.2.3", "1.2.3.4.5", "256.0.0.1", "a.b.c.d", ""):
            with pytest.raises(AddressError):
                Ipv4Address.parse(bad)

    def test_bytes_roundtrip(self):
        addr = ip("172.16.254.3")
        assert Ipv4Address.from_bytes(addr.to_bytes()) == addr
        with pytest.raises(AddressError):
            Ipv4Address.from_bytes(b"\x01\x02\x03")

    def test_constants(self):
        assert str(INADDR_ANY) == "0.0.0.0"
        assert str(BROADCAST_IP) == "255.255.255.255"
        assert str(BROADCAST_MAC) == "ff:ff:ff:ff:ff:ff"

    def test_mac_roundtrip(self):
        address = mac("02:00:00:00:00:2a")
        assert str(address) == "02:00:00:00:00:2a"
        assert MacAddress.from_bytes(address.to_bytes()) == address

    def test_mac_rejects_garbage(self):
        for bad in ("02:00:00:00:00", "zz:00:00:00:00:00", "020000000000"):
            with pytest.raises(AddressError):
                MacAddress.parse(bad)

    def test_range_checks(self):
        with pytest.raises(AddressError):
            Ipv4Address(1 << 32)
        with pytest.raises(AddressError):
            MacAddress(1 << 48)

    @given(st.integers(min_value=0, max_value=0xFFFFFFFF))
    def test_ipv4_value_roundtrip(self, value):
        addr = Ipv4Address(value)
        assert Ipv4Address.parse(str(addr)) == addr

    def test_ordering(self):
        assert ip("10.0.0.1") < ip("10.0.0.2")


class TestChecksum:
    def test_rfc1071_example(self):
        data = bytes.fromhex("00010f234435667a ccac".replace(" ", ""))
        checksum = internet_checksum(data)
        # Verifying: data plus its checksum folds to zero.
        verify = internet_checksum(data + checksum.to_bytes(2, "big"))
        assert verify == 0

    def test_zero_data(self):
        assert internet_checksum(b"\x00\x00") == 0xFFFF

    def test_odd_length_padded(self):
        assert internet_checksum(b"\x01") == internet_checksum(b"\x01\x00")


class TestWireFormats:
    def test_arp_roundtrip(self):
        packet = ArpPacket(1, mac("02:00:00:00:00:01"), ip("10.0.0.1"),
                           MacAddress(0), ip("10.0.0.2"))
        assert ArpPacket.from_bytes(packet.to_bytes()) == packet
        assert packet.wire_size() == len(packet.to_bytes())

    def test_arp_rejects_short(self):
        with pytest.raises(PacketError):
            ArpPacket.from_bytes(b"\x00" * 10)

    def test_icmp_roundtrip_and_checksum(self):
        message = IcmpMessage(8, 0, 7, 1, b"payload")
        wire = message.to_bytes()
        assert IcmpMessage.from_bytes(wire) == message
        corrupted = wire[:-1] + bytes([wire[-1] ^ 0xFF])
        with pytest.raises(PacketError):
            IcmpMessage.from_bytes(corrupted)

    @given(payload=st.binary(max_size=100),
           seq=st.integers(min_value=0, max_value=0xFFFFFFFF),
           flags=st.integers(min_value=0, max_value=0x3F))
    def test_tcp_roundtrip(self, payload, seq, flags):
        segment = TcpSegment(80, 12345, seq, 0, flags, 8000, payload)
        assert TcpSegment.from_bytes(segment.to_bytes()) == segment

    def test_tcp_flag_helpers(self):
        segment = TcpSegment(1, 2, 0, 0, TCP_SYN | TCP_ACK, 0)
        assert segment.flag(TCP_SYN)
        assert segment.flag(TCP_ACK)
        assert "SYN" in segment.flag_names()

    def test_ip_roundtrip_all_protocols(self):
        payloads = [
            (IPPROTO_ICMP, IcmpMessage(8, 0, 1, 1, b"x")),
            (IPPROTO_TCP, TcpSegment(1, 2, 3, 4, TCP_ACK, 100, b"data")),
        ]
        for protocol, payload in payloads:
            packet = IpPacket(ip("10.0.0.1"), ip("10.0.0.2"), protocol, payload)
            decoded = IpPacket.from_bytes(packet.to_bytes())
            assert decoded.src == packet.src
            assert decoded.dst == packet.dst
            assert decoded.payload == payload

    def test_ip_rejects_unknown_protocol(self):
        """Protocol 17 (UDP) has no parser: nothing here speaks UDP."""
        wire = IpPacket(ip("10.0.0.1"), ip("10.0.0.2"), 17,
                        IcmpMessage(8, 0, 1, 1, b"x")).to_bytes()
        with pytest.raises(PacketError, match="unknown IP protocol 17"):
            IpPacket.from_bytes(wire)

    def test_ip_header_checksum_enforced(self):
        packet = IpPacket(ip("1.1.1.1"), ip("2.2.2.2"), IPPROTO_ICMP,
                          IcmpMessage(8, 0, 1, 2, b""))
        wire = bytearray(packet.to_bytes())
        wire[8] ^= 0xFF  # corrupt the TTL field
        with pytest.raises(PacketError):
            IpPacket.from_bytes(bytes(wire))

    def test_ethernet_roundtrip(self):
        inner = IpPacket(ip("10.0.0.1"), ip("10.0.0.2"), IPPROTO_ICMP,
                         IcmpMessage(8, 0, 1, 2, b"hello"))
        frame = EthernetFrame(mac("02:00:00:00:00:01"),
                              mac("02:00:00:00:00:02"), ETHERTYPE_IP, inner)
        decoded = EthernetFrame.from_bytes(frame.to_bytes())
        assert decoded.src == frame.src
        assert decoded.payload.payload == inner.payload

    def test_ethernet_minimum_frame_size(self):
        inner = ArpPacket(1, MacAddress(1), ip("1.2.3.4"), MacAddress(0),
                          ip("4.3.2.1"))
        frame = EthernetFrame(MacAddress(1), BROADCAST_MAC, ETHERTYPE_ARP, inner)
        assert frame.wire_size() >= 64

    def test_ttl_survives_the_wire(self):
        packet = IpPacket(ip("1.1.1.1"), ip("2.2.2.2"), IPPROTO_ICMP,
                          IcmpMessage(8, 0, 1, 2, b""), ttl=5)
        assert IpPacket.from_bytes(packet.to_bytes()).ttl == 5
