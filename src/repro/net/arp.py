"""ARP: IPv4-to-MAC resolution over a shared segment."""

from __future__ import annotations

from repro.net.addresses import BROADCAST_MAC, Ipv4Address, MacAddress
from repro.net.packet import ArpPacket, EthernetFrame, ETHERTYPE_ARP
from repro.net.sim import Event

ARP_REQUEST = 1
ARP_REPLY = 2

#: Resend interval and attempt budget for unanswered requests.
RETRY_INTERVAL_S = 0.5
MAX_ATTEMPTS = 4


class ArpError(RuntimeError):
    """Raised when resolution exhausts its retries."""


class ArpService:
    """Per-host ARP cache and responder.

    ``host`` supplies ``sim``, ``interface`` and ``ip_address``; incoming
    ARP frames are fed to :meth:`handle_frame` by the host's dispatcher.
    """

    def __init__(self, host):
        self._host = host
        #: Keyed by ``Ipv4Address.value``: an int hashes and compares
        #: without the address dataclass's generated methods, and
        #: ``IpStack`` looks up every outbound packet here.
        self._cache: dict[int, MacAddress] = {}
        self._pending: dict[int, Event] = {}

    @property
    def cache(self) -> dict[Ipv4Address, MacAddress]:
        return {Ipv4Address(value): mac for value, mac in self._cache.items()}

    def _send(self, opcode: int, target_ip: Ipv4Address,
              target_mac: MacAddress, dst_mac: MacAddress) -> None:
        packet = ArpPacket(
            opcode=opcode,
            sender_mac=self._host.interface.mac,
            sender_ip=self._host.ip_address,
            target_mac=target_mac,
            target_ip=target_ip,
        )
        self._host.interface.transmit(
            EthernetFrame(self._host.interface.mac, dst_mac, ETHERTYPE_ARP, packet)
        )

    def resolve(self, ip: Ipv4Address):
        """Generator: yields until ``ip`` resolves; returns the MAC.

        Raises :class:`ArpError` after :data:`MAX_ATTEMPTS` unanswered
        requests.
        """
        key = ip.value
        cached = self._cache.get(key)
        if cached is not None:
            return cached
        event = self._pending.get(key)
        if event is None:
            event = self._host.sim.event(f"arp:{ip}")
            self._pending[key] = event
        for _attempt in range(MAX_ATTEMPTS):
            self._send(ARP_REQUEST, ip, MacAddress(0), BROADCAST_MAC)
            deadline = self._host.sim.now + RETRY_INTERVAL_S
            # Arm a timer so waiting on the event cannot outlive the
            # retry deadline, then park on the reply event.
            self._host.sim.call_at(deadline, event.trigger, None)
            while self._host.sim.now < deadline:
                if key in self._cache:
                    self._pending.pop(key, None)
                    return self._cache[key]
                yield event
        self._pending.pop(key, None)
        raise ArpError(f"no ARP reply for {ip}")

    def handle_frame(self, frame: EthernetFrame) -> None:
        packet = frame.payload
        if not isinstance(packet, ArpPacket):
            return
        # Opportunistic learning from any ARP we see addressed to us.
        self._cache[packet.sender_ip.value] = packet.sender_mac
        pending = self._pending.get(packet.sender_ip.value)
        if pending is not None:
            pending.trigger(packet.sender_mac)
        if (
            packet.opcode == ARP_REQUEST
            and packet.target_ip.value == self._host.ip_address.value
        ):
            self._send(
                ARP_REPLY, packet.sender_ip, packet.sender_mac, packet.sender_mac
            )
