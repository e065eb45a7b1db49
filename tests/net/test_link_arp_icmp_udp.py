"""Link layer, ARP resolution and ICMP echo."""

import pytest

from repro.net.addresses import ip, MacAddress
from repro.net.host import Host, build_lan
from repro.net.link import EthernetSegment, NetworkInterface
from repro.net.packet import ETHERTYPE_ARP, ArpPacket, EthernetFrame
from repro.net.sim import Simulator


@pytest.fixture()
def lan():
    sim = Simulator()
    segment, hosts = build_lan(sim, ["a", "b", "c"])
    return sim, segment, hosts


class TestLink:
    def test_attach_rejects_double(self, lan):
        sim, segment, hosts = lan
        with pytest.raises(RuntimeError):
            segment.attach(hosts["a"].interface)

    def test_unattached_transmit_fails(self):
        interface = NetworkInterface(MacAddress(1))
        frame = EthernetFrame(MacAddress(1), MacAddress(2), ETHERTYPE_ARP,
                              ArpPacket(1, MacAddress(1), ip("1.1.1.1"),
                                        MacAddress(0), ip("2.2.2.2")))
        with pytest.raises(RuntimeError):
            interface.transmit(frame)

    def test_serialization_delay_models_bandwidth(self):
        sim = Simulator()
        segment = EthernetSegment(sim, bandwidth_bps=8_000, latency_s=0.0)
        a = NetworkInterface(MacAddress(1))
        b = NetworkInterface(MacAddress(2))
        segment.attach(a)
        segment.attach(b)
        received = []
        b.on_receive(lambda frame: received.append(sim.now))
        arp = ArpPacket(1, MacAddress(1), ip("1.1.1.1"), MacAddress(0),
                        ip("2.2.2.2"))
        frame = EthernetFrame(MacAddress(1), MacAddress(2), ETHERTYPE_ARP, arp)
        a.transmit(frame)  # 64 bytes min frame at 1000 B/s = 64 ms
        sim.run()
        assert received == [pytest.approx(0.064)]

    def test_frames_queue_behind_each_other(self):
        sim = Simulator()
        segment = EthernetSegment(sim, bandwidth_bps=8_000, latency_s=0.0)
        a = NetworkInterface(MacAddress(1))
        b = NetworkInterface(MacAddress(2))
        segment.attach(a)
        segment.attach(b)
        arrivals = []
        b.on_receive(lambda frame: arrivals.append(sim.now))
        arp = ArpPacket(1, MacAddress(1), ip("1.1.1.1"), MacAddress(0),
                        ip("2.2.2.2"))
        frame = EthernetFrame(MacAddress(1), MacAddress(2), ETHERTYPE_ARP, arp)
        a.transmit(frame)
        a.transmit(frame)
        sim.run()
        assert arrivals == [pytest.approx(0.064), pytest.approx(0.128)]

    def test_drop_filter(self, lan):
        sim, segment, hosts = lan
        segment.set_drop_filter(lambda frame, index: index == 0)
        results = {}

        def pinger():
            # ARP retries every 0.5 s, so allow a couple of seconds.
            results["rtt"] = yield from hosts["a"].icmp.ping(
                hosts["b"].ip_address, timeout=2.0
            )

        process = sim.spawn(pinger())
        sim.run_until_complete(process, timeout=10)
        # First ARP request dropped; retry succeeds, ping still completes.
        assert segment.frames_dropped == 1
        assert results["rtt"] is not None

    def test_unicast_filtering(self, lan):
        sim, segment, hosts = lan
        results = {}

        def pinger():
            results["rtt"] = yield from hosts["a"].icmp.ping(hosts["b"].ip_address)

        process = sim.spawn(pinger())
        sim.run_until_complete(process, timeout=10)
        # c hears the broadcast ARP but none of the unicast IP packets.
        assert hosts["c"].ip.packets_received == 0

    def test_interface_counters(self, lan):
        sim, segment, hosts = lan
        results = {}

        def pinger():
            results["rtt"] = yield from hosts["a"].icmp.ping(hosts["b"].ip_address)

        process = sim.spawn(pinger())
        sim.run_until_complete(process, timeout=10)
        assert hosts["a"].interface.frames_sent >= 2  # ARP + echo
        assert hosts["b"].interface.frames_received >= 2
        assert segment.bytes_carried > 0


class TestArp:
    def test_resolution_and_caching(self, lan):
        sim, segment, hosts = lan
        results = {}

        def resolver():
            results["mac"] = yield from hosts["a"].arp.resolve(
                hosts["b"].ip_address
            )

        process = sim.spawn(resolver())
        sim.run_until_complete(process, timeout=5)
        assert results["mac"] == hosts["b"].interface.mac
        assert hosts["a"].arp.cache[hosts["b"].ip_address] == \
            hosts["b"].interface.mac
        # And b opportunistically learned a from the request.
        assert hosts["b"].arp.cache[hosts["a"].ip_address] == \
            hosts["a"].interface.mac

    def test_resolution_failure(self, lan):
        sim, segment, hosts = lan
        from repro.net.arp import ArpError

        failed = {}

        def resolver():
            try:
                yield from hosts["a"].arp.resolve(ip("10.0.0.99"))
            except ArpError:
                failed["yes"] = True

        process = sim.spawn(resolver())
        sim.run_until_complete(process, timeout=30)
        assert failed.get("yes")


class TestIcmp:
    def test_ping_round_trip(self, lan):
        sim, segment, hosts = lan
        results = {}

        def pinger():
            results["rtt"] = yield from hosts["a"].icmp.ping(
                hosts["b"].ip_address, payload=b"hello"
            )

        process = sim.spawn(pinger())
        sim.run_until_complete(process, timeout=10)
        assert results["rtt"] is not None
        assert results["rtt"] > 0
        assert hosts["b"].icmp.echoes_answered == 1

    def test_ping_unanswered_times_out(self, lan):
        sim, segment, hosts = lan
        segment.set_drop_filter(
            lambda frame, index: frame.ethertype != ETHERTYPE_ARP
        )
        results = {}

        def pinger():
            results["rtt"] = yield from hosts["a"].icmp.ping(
                hosts["b"].ip_address, timeout=0.5
            )

        process = sim.spawn(pinger())
        sim.run_until_complete(process, timeout=10)
        assert results["rtt"] is None

