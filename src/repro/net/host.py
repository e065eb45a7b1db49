"""A simulated host: one interface plus the full protocol stack."""

from __future__ import annotations

from repro.net.addresses import Ipv4Address, MacAddress
from repro.net.arp import ArpService
from repro.net.icmp import IcmpService
from repro.net.ip import IpStack
from repro.net.link import EthernetSegment, NetworkInterface
from repro.net.packet import ETHERTYPE_ARP, ETHERTYPE_IP, EthernetFrame
from repro.net.sim import Simulator
from repro.net.tcp import TcpService

_next_mac = [1]


def _auto_mac() -> MacAddress:
    value = 0x020000000000 | _next_mac[0]
    _next_mac[0] += 1
    return MacAddress(value)


class Host:
    """One endpoint on a segment: link + ARP + IP + ICMP + TCP."""

    def __init__(self, sim: Simulator, name: str, ip_address: Ipv4Address,
                 mac: MacAddress | None = None):
        self.sim = sim
        self.name = name
        self.ip_address = ip_address
        self.interface = NetworkInterface(mac or _auto_mac(), name=f"{name}.eth0")
        self.interface.on_receive(self._on_frame)
        self.arp = ArpService(self)
        self.ip = IpStack(self)
        self.icmp = IcmpService(self)
        self.tcp = TcpService(self)

    def attach(self, segment: EthernetSegment) -> "Host":
        segment.attach(self.interface)
        return self

    def spawn(self, gen, name: str = ""):
        """Run a generator as a process on this host's simulator."""
        return self.sim.spawn(gen, name=name or f"{self.name}:proc")

    def _on_frame(self, frame: EthernetFrame) -> None:
        ethertype = frame.ethertype
        if ethertype == ETHERTYPE_IP:
            self.ip.handle_frame(frame)
        elif ethertype == ETHERTYPE_ARP:
            self.arp.handle_frame(frame)

    def __repr__(self) -> str:
        return f"Host({self.name!r}, {self.ip_address})"


def build_lan(sim: Simulator, host_names: list[str],
              subnet: str = "10.0.0.", bandwidth_bps: float = 10_000_000,
              latency_s: float = 50e-6) -> tuple[EthernetSegment, dict[str, Host]]:
    """Convenience: one segment with one host per name, IPs assigned in order.

    >>> from repro.net.sim import Simulator
    >>> sim = Simulator()
    >>> lan, hosts = build_lan(sim, ["alice", "bob"])
    >>> str(hosts["alice"].ip_address)
    '10.0.0.1'
    """
    segment = EthernetSegment(sim, bandwidth_bps=bandwidth_bps, latency_s=latency_s)
    hosts = {}
    for index, name in enumerate(host_names, start=1):
        host = Host(sim, name, Ipv4Address.parse(f"{subnet}{index}"))
        host.attach(segment)
        hosts[name] = host
    return segment, hosts
