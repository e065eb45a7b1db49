"""Unit tests for the fault injectors and the link-layer hook chain.

Everything here is synthetic -- hand-built frames and a bare
:class:`~repro.net.link.EthernetSegment` -- so each injector's contract
is pinned without dragging in TCP or issl.  The end-to-end behaviour of
the same injectors lives in the campaign tests.
"""

import random

import pytest

from repro.dync.runtime.xalloc import XallocError
from repro.faults import injectors as inj
from repro.net.addresses import Ipv4Address, MacAddress
from repro.net.link import EthernetSegment, NetworkInterface
from repro.net.packet import (
    ETHERTYPE_ARP,
    ETHERTYPE_IP,
    IPPROTO_TCP,
    ArpPacket,
    EthernetFrame,
    IpPacket,
    TCP_ACK,
    TCP_SYN,
    TcpSegment,
)
from repro.net.sim import Simulator
from repro.obs import Obs

MAC_A = MacAddress(0x0A0000000001)
MAC_B = MacAddress(0x0A0000000002)
IP_A = Ipv4Address.parse("10.0.0.1")
IP_B = Ipv4Address.parse("10.0.0.2")


def every(predicate=None):
    """A matcher for every frame (satisfying ``predicate``)."""
    return lambda frame, index: predicate is None or predicate(frame)


def tcp_frame(payload: bytes = b"", flags: int = TCP_ACK) -> EthernetFrame:
    segment = TcpSegment(
        src_port=1000, dst_port=2000, seq=1, ack=1,
        flags=flags, window=4096, payload=payload,
    )
    packet = IpPacket(src=IP_A, dst=IP_B, protocol=IPPROTO_TCP,
                      payload=segment)
    return EthernetFrame(src=MAC_A, dst=MAC_B, ethertype=ETHERTYPE_IP,
                         payload=packet)


def arp_frame() -> EthernetFrame:
    arp = ArpPacket(opcode=1, sender_mac=MAC_A, sender_ip=IP_A,
                    target_mac=MAC_B, target_ip=IP_B)
    return EthernetFrame(src=MAC_A, dst=MAC_B, ethertype=ETHERTYPE_ARP,
                         payload=arp)


class TestPredicates:
    def test_is_tcp_never_matches_arp(self):
        assert inj.is_tcp(tcp_frame())
        assert not inj.is_tcp(arp_frame())

    def test_has_tcp_payload(self):
        assert inj.has_tcp_payload(tcp_frame(b"data"))
        assert not inj.has_tcp_payload(tcp_frame(b""))
        assert not inj.has_tcp_payload(arp_frame())

    def test_is_tcp_syn(self):
        assert inj.is_tcp_syn(tcp_frame(flags=TCP_SYN))
        assert not inj.is_tcp_syn(tcp_frame(flags=TCP_ACK))

    def test_tcp_payload_prefix(self):
        predicate = inj.tcp_payload_prefix(b"\x17")
        assert predicate(tcp_frame(b"\x17\x03\x00"))
        assert not predicate(tcp_frame(b"\x16\x03\x00"))
        assert not predicate(arp_frame())


class TestMatchers:
    def test_match_nth_counts_only_qualifying_frames(self):
        matcher = inj.match_nth(1, inj.has_tcp_payload)
        frames = [tcp_frame(), tcp_frame(b"a"), arp_frame(),
                  tcp_frame(b"b"), tcp_frame(b"c")]
        hits = [matcher(frame, i) for i, frame in enumerate(frames)]
        assert hits == [False, False, False, True, False]

    def test_match_every_with_start_and_limit(self):
        matcher = inj.match_every(2, start=1, limit=2)
        hits = [matcher(tcp_frame(), i) for i in range(8)]
        # Qualifying ordinals 1, 3 match; limit stops the rest.
        assert hits == [False, True, False, True, False, False,
                        False, False]

    def test_match_every_rejects_nonpositive_k(self):
        with pytest.raises(ValueError, match="positive"):
            inj.match_every(0)

    def test_match_probability_is_seed_deterministic(self):
        def draws(seed):
            matcher = inj.match_probability(0.5, random.Random(seed))
            return [matcher(tcp_frame(), i) for i in range(50)]

        assert draws(7) == draws(7)
        assert draws(7) != draws(8)

    def test_match_probability_validates_range(self):
        with pytest.raises(ValueError, match="probability"):
            inj.match_probability(1.5, random.Random(0))


class TestFrameInjectors:
    def test_drop_returns_no_deliveries_and_counts(self):
        obs = Obs()
        drop = inj.DropFrames(every(), obs=obs)
        assert drop(tcp_frame(), 0, 0.0) == []
        assert drop.injected == 1
        assert obs.metrics.snapshot()["counters"][
            "faults.injected.drop"] == 1

    def test_unmatched_frames_pass_through_untouched(self):
        drop = inj.DropFrames(every(inj.is_tcp_syn))
        frame = tcp_frame(b"data")
        assert drop(frame, 0, 0.25) == [(frame, 0.25)]
        assert drop.injected == 0

    def test_duplicate_and_delay(self):
        frame = tcp_frame(b"data")
        duplicate = inj.DuplicateFrames(every())
        assert duplicate(frame, 0, 0.0) == [(frame, 0.0), (frame, 0.0)]
        delay = inj.DelayFrames(every(), extra_s=0.3)
        assert delay(frame, 0, 0.1) == [(frame, 0.4)]

    def test_corrupt_flips_exactly_one_bit(self):
        corrupt = inj.CorruptFrames(every(), byte_offset=1, bit=3)
        frame = tcp_frame(b"\x00\x00\x00")
        [(mutated, _)] = corrupt(frame, 0, 0.0)
        assert mutated.payload.payload.payload == b"\x00\x08\x00"
        # The original frame is untouched.
        assert frame.payload.payload.payload == b"\x00\x00\x00"

    def test_corrupt_passes_payloadless_frames_through(self):
        corrupt = inj.CorruptFrames(every())
        frame = tcp_frame(b"")
        assert corrupt(frame, 0, 0.0) == [(frame, 0.0)]
        assert corrupt.injected == 1  # matched, but nothing to flip


class TestHookChain:
    def _segment(self):
        sim = Simulator()
        segment = EthernetSegment(sim)
        sender = NetworkInterface(MAC_A, "a")
        receiver = NetworkInterface(MAC_B, "b")
        segment.attach(sender)
        segment.attach(receiver)
        received = []
        receiver.on_receive(received.append)
        return sim, segment, sender, received

    def test_injectors_compose_in_order(self):
        sim, segment, sender, received = self._segment()
        # Duplicate first, then drop one copy of anything duplicated:
        # order matters and both hooks see the chain's intermediate
        # state rather than the raw transmit.
        inj.install(
            segment,
            inj.DuplicateFrames(every(inj.has_tcp_payload)),
            inj.DropFrames(inj.match_nth(0, inj.has_tcp_payload)),
        )
        sender.transmit(tcp_frame(b"data"))
        sim.run()
        assert len(received) == 1
        assert segment.frames_dropped == 0  # one copy still delivered

    def test_full_drop_counts_and_skips_medium(self):
        sim, segment, sender, received = self._segment()
        inj.install(segment, inj.DropFrames(every()))
        before = segment._medium_free_at
        sender.transmit(tcp_frame(b"data"))
        sim.run()
        assert received == []
        assert segment.frames_dropped == 1
        assert segment._medium_free_at == before

    def test_delay_reorders_delivery(self):
        sim, segment, sender, received = self._segment()
        inj.install(
            segment,
            inj.DelayFrames(inj.match_nth(0, inj.has_tcp_payload),
                            extra_s=0.5),
        )
        sender.transmit(tcp_frame(b"first"))
        sender.transmit(tcp_frame(b"second"))
        sim.run()
        payloads = [f.payload.payload.payload for f in received]
        assert payloads == [b"second", b"first"]

    def test_uninstall_restores_clean_delivery(self):
        sim, segment, sender, received = self._segment()
        (drop,) = inj.install(segment, inj.DropFrames(every()))
        sender.transmit(tcp_frame(b"lost"))
        inj.uninstall(segment, drop)
        sender.transmit(tcp_frame(b"kept"))
        sim.run()
        assert [f.payload.payload.payload for f in received] == [b"kept"]

    def test_drop_filter_composes_with_chain(self):
        """The legacy API is a hook at the head of the same chain."""
        sim, segment, sender, received = self._segment()
        duplicate = inj.DuplicateFrames(
            every(inj.has_tcp_payload)
        )
        inj.install(segment, duplicate)
        segment.set_drop_filter(lambda frame, index: index == 0)
        sender.transmit(tcp_frame(b"dropped"))
        sender.transmit(tcp_frame(b"doubled"))
        sim.run()
        assert [f.payload.payload.payload for f in received] == [
            b"doubled", b"doubled",
        ]
        assert segment.frames_dropped == 1
        # The dropped frame never reached the later duplicator.
        assert duplicate.injected == 1

    def test_set_drop_filter_replaces_only_itself(self):
        sim, segment, sender, received = self._segment()
        duplicate = inj.DuplicateFrames(every())
        inj.install(segment, duplicate)
        segment.set_drop_filter(lambda frame, index: True)
        segment.set_drop_filter(None)
        sender.transmit(tcp_frame(b"data"))
        sim.run()
        assert len(received) == 2  # duplicator survived the unset
        assert segment.frames_dropped == 0


class FakeTransport:
    """Scripted inner transport for CorruptingTransport tests."""

    def __init__(self, chunks):
        self._chunks = list(chunks)
        self.at_eof = False

    def recv_exactly(self, nbytes, timeout=None):
        data = self._chunks.pop(0)
        assert len(data) == nbytes
        return data
        yield  # pragma: no cover -- makes this a generator


class TestCorruptingTransport:
    HEADER_0 = bytes([23, 3, 0, 0, 4])
    BODY_0 = b"\x00\x00\x00\x00"
    HEADER_1 = bytes([23, 3, 0, 0, 2])
    BODY_1 = b"\xaa\xbb"

    def _drain(self, generator):
        try:
            while True:
                next(generator)
        except StopIteration as stop:
            return stop.value

    def test_flips_middle_bit_of_target_record_only(self):
        inner = FakeTransport(
            [self.HEADER_0, self.BODY_0, self.HEADER_1, self.BODY_1]
        )
        transport = inj.CorruptingTransport(inner, record_index=1)
        assert self._drain(transport.recv_exactly(5)) == self.HEADER_0
        assert self._drain(transport.recv_exactly(4)) == self.BODY_0
        assert self._drain(transport.recv_exactly(5)) == self.HEADER_1
        assert self._drain(transport.recv_exactly(2)) == b"\xaa\xba"
        assert transport.injected == 1
        assert transport.records_seen == 2

    def test_zero_length_record_keeps_stream_in_sync(self):
        empty_header = bytes([23, 3, 0, 0, 0])
        inner = FakeTransport(
            [empty_header, self.HEADER_1, self.BODY_1]
        )
        transport = inj.CorruptingTransport(inner, record_index=1)
        assert self._drain(transport.recv_exactly(5)) == empty_header
        assert self._drain(transport.recv_exactly(5)) == self.HEADER_1
        assert self._drain(transport.recv_exactly(2)) == b"\xaa\xba"


class TestMemoryAndSchedulerFaults:
    def test_exhausting_allocator_fails_at_ordinal(self):
        allocator = inj.ExhaustingXmemAllocator(capacity=4096, fail_at=3)
        pointer_a = allocator.xalloc(16)
        pointer_b = allocator.xalloc(16)
        assert pointer_a != pointer_b
        with pytest.raises(XallocError, match="injected exhaustion"):
            allocator.xalloc(16)
        # Exhaustion is permanent, like real xmem with no free.
        with pytest.raises(XallocError):
            allocator.xalloc(16)
        assert allocator.allocations == 2

    def test_exhausting_allocator_rejects_bad_fail_at(self):
        with pytest.raises(ValueError, match="positive"):
            inj.ExhaustingXmemAllocator(capacity=64, fail_at=0)

    def test_starving_costate_is_bounded(self):
        obs = Obs()
        generator = inj.starving_costate(passes=5, busy_s=0.25, obs=obs)
        yields = list(generator)
        assert yields == [0.25] * 5
        assert obs.metrics.snapshot()["counters"][
            "faults.injected.starve"] == 5
