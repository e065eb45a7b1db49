"""Per-host IPv4 layer: outbound queue with ARP resolution, inbound
protocol dispatch, and loopback."""

from __future__ import annotations

from collections import deque
from typing import Callable

from repro.net.addresses import Ipv4Address
from repro.net.arp import ArpError
from repro.net.packet import EthernetFrame, ETHERTYPE_IP, IpPacket


class IpStack:
    """IPv4 send/receive for one host.

    Outbound packets go through a queue drained by a dedicated process so
    that timer callbacks (which cannot block on ARP) can transmit.
    """

    def __init__(self, host):
        self._host = host
        #: ``(packet, trace_ctx)`` pairs: the wire trace context raised
        #: by the sender at ``send()`` time rides the queue with its
        #: packet, because the drain process transmits long after the
        #: sender's synchronous window has closed.
        self._queue: deque[tuple[IpPacket, object]] = deque()
        self._wake = host.sim.event(f"ip-out:{host.name}")
        self._handlers: dict[int, Callable[[IpPacket], None]] = {}
        self.packets_sent = 0
        self.packets_received = 0
        self.packets_dropped = 0
        host.sim.spawn(self._output_loop(), name=f"ip-out:{host.name}")

    def register_protocol(self, protocol: int,
                          handler: Callable[[IpPacket], None]) -> None:
        self._handlers[protocol] = handler

    def send(self, dst: Ipv4Address, protocol: int, payload) -> None:
        """Queue one packet for transmission (never blocks)."""
        host = self._host
        packet = IpPacket(host.ip_address, dst, protocol, payload)
        ctx = host.sim.wire_trace_ctx
        if dst.value == host.ip_address.value:
            # Loopback: deliver in the next simulator slot, not inline,
            # to keep send() non-reentrant.
            if ctx is None:
                host.sim.call_soon(self._deliver, packet)
            else:
                host.sim.call_soon(self._deliver_with_ctx, packet, ctx)
            self.packets_sent += 1
            return
        self._queue.append((packet, ctx))
        self._wake.trigger()

    def _output_loop(self):
        host = self._host
        sim = host.sim
        interface = host.interface
        arp_cache = host.arp._cache
        queue = self._queue
        while True:
            if not queue:
                yield self._wake
                continue
            packet, ctx = queue.popleft()
            # A cache hit needs no resolve() generator: it would return
            # the same MAC without yielding.
            mac = arp_cache.get(packet.dst.value)
            if mac is None:
                try:
                    mac = yield from host.arp.resolve(packet.dst)
                except ArpError:
                    self.packets_dropped += 1
                    continue
            frame = EthernetFrame(interface.mac, mac, ETHERTYPE_IP, packet)
            # Re-raise the sender's context for the synchronous hop into
            # ``EthernetSegment.broadcast``; scheduling is unchanged.
            if ctx is None:
                interface.transmit(frame)
            else:
                previous = sim.wire_trace_ctx
                sim.wire_trace_ctx = ctx
                try:
                    interface.transmit(frame)
                finally:
                    sim.wire_trace_ctx = previous
            self.packets_sent += 1

    def handle_frame(self, frame: EthernetFrame) -> None:
        packet = frame.payload
        if not isinstance(packet, IpPacket):
            return
        if packet.dst.value != self._host.ip_address.value:
            self.packets_dropped += 1
            return
        self._deliver(packet)

    def _deliver_with_ctx(self, packet: IpPacket, ctx) -> None:
        """Loopback delivery with the sender's trace context raised as
        the receive-side annotation (mirrors the Ethernet path)."""
        sim = self._host.sim
        previous = sim.rx_trace_ctx
        sim.rx_trace_ctx = ctx
        try:
            self._deliver(packet)
        finally:
            sim.rx_trace_ctx = previous

    def _deliver(self, packet: IpPacket) -> None:
        self.packets_received += 1
        handler = self._handlers.get(packet.protocol)
        if handler is None:
            self.packets_dropped += 1
            return
        handler(packet)
