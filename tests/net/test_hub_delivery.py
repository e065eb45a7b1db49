"""The hub schedules a frame only for the NICs that accept it.

``EthernetSegment.broadcast`` applies the NICs' MAC filter (own MAC,
broadcast MAC, or promiscuous) when it schedules delivery, instead of
waking every other interface and letting ``deliver`` discard what is
not addressed to it.  The evidence that nothing else moved:

- a differential oracle: random segments, senders, destinations and
  frame-hook chains, run once on the segment and once on a test-local
  reference hub that schedules every other interface and filters on
  arrival (the previous behaviour), must give the same receive logs,
  the same global order of deliveries and the same counters;
- a ``slow`` full-run oracle: the fault matrix and a pooled scaling
  point give byte-identical JSON with the reference hub patched in;
- a pin on a small redirector deployment: every scheduled delivery is
  a received frame.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.issl import FREE
from repro.net.addresses import BROADCAST_MAC, MacAddress
from repro.net.link import EthernetSegment, NetworkInterface
from repro.net.packet import EthernetFrame
from repro.net.sim import Simulator
from repro.obs import Obs
from repro.services import (
    PLAIN_PORT,
    ClientReport,
    build_redirector_world,
    plain_request_client,
)

# -- the reference hub ------------------------------------------------------


def _reference_arrival(segment, interface, frame, ctx) -> None:
    """Filter on arrival, as a NIC did when the hub woke every port."""
    if (frame.dst != interface.mac and frame.dst != BROADCAST_MAC
            and not interface.promiscuous):
        return
    if ctx is None:
        interface.deliver(frame)
    else:
        segment._deliver_with_ctx(interface, frame, ctx)


def reference_broadcast(self, frame, sender) -> None:
    """The hub before MAC filtering moved to the segment: the same wire
    and hook chain, then one delivery event per other interface."""
    index = self.frames_carried
    self.frames_carried += 1
    self.bytes_carried += frame.wire_size()
    deliveries = [(frame, 0.0)]
    for hook in list(self._frame_hooks):
        staged = []
        for staged_frame, extra_delay in deliveries:
            staged.extend(hook(staged_frame, index, extra_delay))
        deliveries = staged
        if not deliveries:
            break
    if not deliveries:
        self.frames_dropped += 1
        return
    serialization = frame.wire_size() * 8 / self.bandwidth_bps
    start = max(self.sim.now, self._medium_free_at)
    self._medium_free_at = start + serialization
    arrival = self._medium_free_at + self.latency_s
    ctx = self.sim.wire_trace_ctx
    for delivered_frame, extra_delay in deliveries:
        for interface in self.interfaces:
            if interface is not sender:
                self.sim.call_at(arrival + extra_delay, _reference_arrival,
                                 self, interface, delivered_frame, ctx)


@pytest.fixture
def reference_hub(monkeypatch):
    monkeypatch.setattr(EthernetSegment, "broadcast", reference_broadcast)


# -- random segments --------------------------------------------------------


@dataclass(frozen=True)
class _Blob:
    """A frame payload of a chosen wire size, tagged to tell sends apart."""

    tag: int
    size: int

    def wire_size(self) -> int:
        return self.size


def _member(i: int) -> MacAddress:
    return MacAddress(0x020000000001 + i)


def _unknown(i: int) -> MacAddress:
    return MacAddress(0xFE0000000000 + i)


#: A destination: ("member", i) / ("unknown", i) / ("broadcast", 0).
_dst = st.tuples(st.sampled_from(["member", "unknown", "broadcast"]),
                 st.integers(0, 7))


def _resolve(dst, n: int) -> MacAddress:
    kind, i = dst
    if kind == "member":
        return _member(i % n)
    if kind == "unknown":
        return _unknown(i)
    return BROADCAST_MAC


_send = st.tuples(
    st.integers(0, 40),          # send time, in 0.1 ms steps
    st.integers(0, 7),           # sender (mod n)
    _dst,
    st.booleans(),               # raise a wire trace context
    st.integers(46, 600),        # payload size
)

_hook = st.tuples(
    st.sampled_from(["drop", "duplicate", "delay", "corrupt"]),
    st.frozensets(st.integers(0, 24), max_size=12),   # frame indices hit
    st.sampled_from([0.0, 1e-4, 7e-4, 3e-3]),         # extra delay
    _dst,                                             # corrupted dst
)


def _make_hook(spec, n: int):
    kind, hit, delay, dst = spec

    def hook(frame, index, extra_delay):
        if index not in hit:
            return [(frame, extra_delay)]
        if kind == "drop":
            return []
        if kind == "duplicate":
            return [(frame, extra_delay), (frame, extra_delay + delay)]
        if kind == "delay":
            return [(frame, extra_delay + delay)]
        return [(frame._replace(dst=_resolve(dst, n)), extra_delay)]

    return hook


def _run_segment(n, promiscuous, sends, hooks):
    sim = Simulator()
    segment = EthernetSegment(sim)
    interfaces = []
    for i in range(n):
        interface = NetworkInterface(_member(i), name=f"nic{i}")
        interface.promiscuous = promiscuous[i]
        segment.attach(interface)
        interfaces.append(interface)
    for spec in hooks:
        segment.add_frame_hook(_make_hook(spec, n))

    log = []   # (nic, time, frame, rx_trace_ctx), in delivery order
    for interface in interfaces:
        interface.on_receive(
            lambda frame, name=interface.name: log.append(
                (name, sim.now, frame, sim.rx_trace_ctx)))

    def send(interface, frame, ctx):
        sim.wire_trace_ctx = ctx
        try:
            interface.transmit(frame)
        finally:
            sim.wire_trace_ctx = None

    for tag, (tick, sender, dst, traced, size) in enumerate(sends):
        interface = interfaces[sender % n]
        frame = EthernetFrame(interface.mac, _resolve(dst, n), 0x88B5,
                              _Blob(tag, size))
        sim.call_at(tick * 1e-4, send, interface, frame,
                    f"ctx{tag}" if traced else None)
    sim.run()
    return {
        "log": log,
        "per_nic": {i.name: [e for e in log if e[0] == i.name]
                    for i in interfaces},
        "received": [(i.frames_received, i.bytes_received)
                     for i in interfaces],
        "segment": (segment.frames_carried, segment.bytes_carried,
                    segment.frames_dropped),
    }


class TestDifferential:
    @settings(max_examples=200, deadline=None)
    @given(
        n=st.integers(2, 8),
        promiscuous=st.lists(st.booleans(), min_size=8, max_size=8),
        sends=st.lists(_send, min_size=1, max_size=25),
        hooks=st.lists(_hook, max_size=4),
    )
    def test_filtered_hub_matches_reference(self, n, promiscuous, sends,
                                            hooks):
        filtered = _run_segment(n, promiscuous, sends, hooks)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(EthernetSegment, "broadcast", reference_broadcast)
            reference = _run_segment(n, promiscuous, sends, hooks)
        assert filtered == reference


# -- the wire stays a hub ---------------------------------------------------


def _segment():
    sim = Simulator()
    segment = EthernetSegment(sim)
    interfaces = [NetworkInterface(_member(i)) for i in range(3)]
    for interface in interfaces:
        segment.attach(interface)
    return sim, segment, interfaces


def _frame(src, dst, size=100):
    return EthernetFrame(src.mac, dst, 0x88B5, _Blob(0, size))


class TestFilteredScheduling:
    def test_unicast_wakes_only_the_addressee(self):
        sim, _, (a, b, c) = _segment()
        a.transmit(_frame(a, b.mac))
        assert sim.pending_events == 1
        sim.run()
        assert (b.frames_received, c.frames_received) == (1, 0)

    def test_unknown_destination_still_seizes_the_medium(self):
        sim, segment, (a, b, _c) = _segment()
        unread, read = _frame(a, _unknown(0), 1232), _frame(a, b.mac, 46)
        a.transmit(unread)
        assert sim.pending_events == 0
        assert (segment.frames_carried, segment.bytes_carried) == (1, 1250)
        a.transmit(read)
        sim.run()
        # Queued behind the 1 ms the unread frame held the wire.
        assert sim.now == pytest.approx(
            (1250 + 64) * 8 / segment.bandwidth_bps + segment.latency_s)

    def test_promiscuous_applies_to_frames_sent_after_it_is_set(self):
        sim, _, (a, b, c) = _segment()
        a.transmit(_frame(a, b.mac))
        c.promiscuous = True
        sim.run()
        assert c.frames_received == 0
        a.transmit(_frame(a, b.mac))
        sim.run()
        assert c.frames_received == 1

    def test_promiscuous_off_again_stops_foreign_frames(self):
        sim, _, (a, b, c) = _segment()
        c.promiscuous = True
        c.promiscuous = False
        a.transmit(_frame(a, b.mac))
        sim.run()
        assert (b.frames_received, c.frames_received) == (1, 0)

    def test_nics_sharing_a_mac_receive_in_attach_order(self):
        sim = Simulator()
        segment = EthernetSegment(sim)
        a, b, twin = (NetworkInterface(_member(0), name="a"),
                      NetworkInterface(_member(1), name="b"),
                      NetworkInterface(_member(1), name="twin"))
        log = []
        for interface in (a, b, twin):
            segment.attach(interface)
            interface.on_receive(
                lambda frame, name=interface.name: log.append(name))
        a.transmit(_frame(a, b.mac))
        sim.run()
        assert log == ["b", "twin"]


# -- a real deployment -------------------------------------------------------


class TestNoDeliveryIsDiscarded:
    """In a redirector deployment with no promiscuous NIC, every
    scheduled delivery event is a frame some NIC receives."""

    @pytest.mark.parametrize("obs", [None, Obs()], ids=["plain", "traced"])
    def test_scheduled_deliveries_equal_frames_received(self, obs):
        world = build_redirector_world(b"hub", clients=2, obs=obs,
                                       cost_model=FREE, secure=False)
        sim = world.sim
        scheduled = 0
        broadcast = world.lan.broadcast

        def counting_broadcast(frame, sender):
            # The hub pushes deliveries onto the heap itself, so count
            # the delivery entries that carry a seq taken by this call.
            nonlocal scheduled
            first_seq = sim._seq
            broadcast(frame, sender)
            scheduled += sum(
                1 for _when, seq, fn, _args in sim._queue
                if seq > first_seq and getattr(fn, "__func__", None) in (
                    NetworkInterface.deliver,
                    EthernetSegment._deliver_with_ctx))

        world.lan.broadcast = counting_broadcast
        server_ip = str(world.hosts["rmc"].ip_address)
        processes = [
            world.hosts[name].spawn(plain_request_client(
                world.hosts[name], server_ip, PLAIN_PORT, 2, 64,
                ClientReport(name)))
            for name in ("c0", "c1")
        ]
        for process in processes:
            sim.run_until_complete(process, timeout=60)
        sim.run(until=sim.now + 1.0)

        interfaces = world.lan.interfaces
        assert not any(i.promiscuous for i in interfaces)
        received = sum(i.frames_received for i in interfaces)
        carried = world.lan.frames_carried - world.lan.frames_dropped
        assert scheduled == received
        # Mostly unicast: the all-ports hub would have scheduled far more.
        assert received < carried * (len(interfaces) - 1) // 2


# -- full runs ---------------------------------------------------------------


@pytest.mark.slow
class TestFullRunsOnReferenceHub:
    """The fault matrix and a pooled scaling point give byte-identical
    JSON on the filtered hub and on the reference hub."""

    @staticmethod
    def _dump(value) -> str:
        return json.dumps(value, sort_keys=True, default=repr)

    def test_fault_matrix(self, request):
        from repro.faults.campaign import run_matrix

        filtered = self._dump(run_matrix(seed=2000))
        request.getfixturevalue("reference_hub")
        assert self._dump(run_matrix(seed=2000)) == filtered

    def test_scaling_point(self, request):
        from repro.services.scaling import run_scaling_curve

        filtered = self._dump(run_scaling_curve(pool_sizes=(8,), seed=2000))
        request.getfixturevalue("reference_hub")
        assert self._dump(
            run_scaling_curve(pool_sizes=(8,), seed=2000)) == filtered
