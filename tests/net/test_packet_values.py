"""Value semantics of the three packet types every TCP segment travels in.

``TcpSegment``, ``IpPacket`` and ``EthernetFrame`` are immutable value
types: they round-trip through their wire bytes, no field can be
assigned, and a frame's wire size -- computed once, when the frame is
built -- always matches the frame's own bytes, also for a frame rebuilt
with a changed field and for the fault injector's bit-flipped copy.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults.injectors import CorruptFrames
from repro.net.addresses import Ipv4Address, MacAddress
from repro.net.packet import (
    ETHERNET_CRC,
    ETHERTYPE_IP,
    IPPROTO_TCP,
    EthernetFrame,
    IpPacket,
    TcpSegment,
)

_macs = st.integers(0, 0xFFFFFFFFFFFF).map(MacAddress)
_ips = st.integers(0, 0xFFFFFFFF).map(Ipv4Address)
_payloads = st.binary(max_size=1460)

_segments = st.builds(
    TcpSegment,
    st.integers(0, 0xFFFF), st.integers(0, 0xFFFF),
    st.integers(0, 0xFFFFFFFF), st.integers(0, 0xFFFFFFFF),
    st.integers(0, 0x3F), st.integers(0, 0xFFFF), _payloads,
)
_packets = st.builds(IpPacket, _ips, _ips, st.just(IPPROTO_TCP), _segments,
                     st.integers(0, 255))
_frames = st.builds(EthernetFrame, _macs, _macs, st.just(ETHERTYPE_IP),
                    _packets)


def _size_from_bytes(frame: EthernetFrame) -> int:
    """What the wire carries: the bytes plus the CRC, padded to 64."""
    return max(len(frame.to_bytes()) + ETHERNET_CRC, 64)


class TestRoundTrip:
    @given(segment=_segments)
    def test_segment(self, segment):
        assert TcpSegment.from_bytes(segment.to_bytes()) == segment

    @given(packet=_packets)
    def test_packet(self, packet):
        assert IpPacket.from_bytes(packet.to_bytes()) == packet

    @given(frame=_frames)
    def test_frame(self, frame):
        decoded = EthernetFrame.from_bytes(frame.to_bytes())
        assert decoded == frame
        assert hash(decoded) == hash(frame)
        assert decoded.wire_size() == frame.wire_size()


class TestImmutable:
    @settings(max_examples=20)
    @given(frame=_frames)
    def test_no_field_can_be_assigned(self, frame):
        for value in (frame, frame.payload, frame.payload.payload):
            for name in value._fields:
                with pytest.raises(AttributeError):
                    setattr(value, name, getattr(value, name))
            with pytest.raises(AttributeError):
                value.extra = 1
        with pytest.raises(AttributeError):
            frame.size = frame.size


class TestWireSize:
    @given(frame=_frames, payload=_payloads, dst=_macs)
    def test_rebuilt_frame_reports_its_own_size(self, frame, payload, dst):
        assert frame.wire_size() == _size_from_bytes(frame)
        segment = frame.payload.payload._replace(payload=payload)
        rebuilt = frame._replace(
            payload=frame.payload._replace(payload=segment), dst=dst)
        assert rebuilt.wire_size() == _size_from_bytes(rebuilt)
        assert (rebuilt.dst, rebuilt.payload.payload.payload) == (dst, payload)
        assert frame._replace() == frame

    @given(frame=_frames, offset=st.none() | st.integers(0, 2000),
           bit=st.integers(0, 7))
    def test_corrupted_frame_reports_its_own_size(self, frame, offset, bit):
        corruptor = CorruptFrames(lambda _frame, _index: True,
                                  byte_offset=offset, bit=bit)
        [(corrupted, delay)] = corruptor(frame, 0, 0.25)
        assert delay == 0.25
        assert corrupted.wire_size() == _size_from_bytes(corrupted)
        before = frame.payload.payload.payload
        after = corrupted.payload.payload.payload
        if not before:
            assert corrupted is frame
            return
        flipped = [a ^ b for a, b in zip(before, after) if a != b]
        assert len(after) == len(before) and flipped == [1 << bit]
        assert corrupted._replace(
            payload=frame.payload) == frame
