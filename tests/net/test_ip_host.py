"""IP layer internals and Host conveniences."""

import pytest

from repro.net.addresses import Ipv4Address
from repro.net.host import build_lan, Host
from repro.net.link import EthernetSegment
from repro.net.packet import IcmpMessage, IPPROTO_ICMP
from repro.net.sim import Simulator


class TestLoopback:
    @staticmethod
    def _capture(host):
        """Take over the host's ICMP handler; returns the packet list."""
        received = []
        host.ip.register_protocol(IPPROTO_ICMP, received.append)
        return received

    def test_send_to_self_delivers_locally(self):
        sim = Simulator()
        _lan, hosts = build_lan(sim, ["solo"])
        host = hosts["solo"]
        received = self._capture(host)
        host.ip.send(host.ip_address, IPPROTO_ICMP,
                     IcmpMessage(0, 0, 1, 1, b"to myself"))
        sim.run(until=0.1)
        (packet,) = received
        assert packet.payload.payload == b"to myself"
        assert packet.src == host.ip_address
        # Loopback never touched the wire.
        assert host.interface.frames_sent == 0

    def test_loopback_counts_in_stats(self):
        sim = Simulator()
        _lan, hosts = build_lan(sim, ["solo"])
        host = hosts["solo"]
        self._capture(host)
        host.ip.send(host.ip_address, IPPROTO_ICMP,
                     IcmpMessage(0, 0, 9, 1, b"x"))
        sim.run(until=0.1)
        assert host.ip.packets_sent == 1
        assert host.ip.packets_received == 1


class TestDispatch:
    def test_unknown_protocol_dropped(self):
        sim = Simulator()
        _lan, hosts = build_lan(sim, ["a", "b"])
        hosts["a"].ip.send(hosts["b"].ip_address, 99,
                           IcmpMessage(8, 0, 1, 2, b"mystery"))
        sim.run(until=1.0)
        assert hosts["b"].ip.packets_dropped >= 1

    def test_wrong_destination_dropped(self):
        sim = Simulator()
        _lan, hosts = build_lan(sim, ["a", "b", "c"])
        hosts["c"].interface.promiscuous = True
        results = {}

        def pinger():
            results["rtt"] = yield from hosts["a"].icmp.ping(
                hosts["b"].ip_address
            )

        process = sim.spawn(pinger())
        sim.run_until_complete(process, timeout=10)
        # c saw the frames (promiscuous) but its IP layer dropped them.
        assert hosts["c"].ip.packets_dropped > 0
        assert hosts["c"].ip.packets_received == 0

    def test_arp_failure_drops_queued_packet(self):
        sim = Simulator()
        _lan, hosts = build_lan(sim, ["a"])
        hosts["a"].ip.send(Ipv4Address.parse("10.0.0.99"), IPPROTO_ICMP,
                           IcmpMessage(8, 0, 1, 2, b"nowhere"))
        sim.run(until=5.0)
        assert hosts["a"].ip.packets_dropped == 1


class TestHostBuilding:
    def test_build_lan_assigns_sequential_ips(self):
        sim = Simulator()
        _lan, hosts = build_lan(sim, ["x", "y", "z"], subnet="192.168.7.")
        assert str(hosts["x"].ip_address) == "192.168.7.1"
        assert str(hosts["z"].ip_address) == "192.168.7.3"

    def test_auto_macs_unique(self):
        sim = Simulator()
        _lan, hosts = build_lan(sim, ["a", "b", "c", "d"])
        macs = {host.interface.mac for host in hosts.values()}
        assert len(macs) == 4

    def test_manual_host_attach(self):
        sim = Simulator()
        segment = EthernetSegment(sim)
        host = Host(sim, "manual", Ipv4Address.parse("172.16.0.1"))
        assert host.attach(segment) is host
        assert host.interface.segment is segment

    def test_repr_smoke(self):
        sim = Simulator()
        _lan, hosts = build_lan(sim, ["a"])
        assert "10.0.0.1" in repr(hosts["a"])
        assert "eth0" in repr(hosts["a"].interface)
