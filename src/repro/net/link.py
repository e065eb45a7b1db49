"""Link layer: shared Ethernet segments and host interfaces.

The RMC2000 kit speaks 10Base-T, so the default segment models a 10 Mb/s
half-duplex hub for timing: every frame is serialized onto the wire
(seizing it for ``wire_size * 8 / bandwidth`` seconds) and propagates
with a small fixed latency.  Like any Ethernet controller, each NIC
filters on the destination MAC in hardware, so the segment hands a
frame only to the other interfaces that accept it: its own MAC, the
broadcast MAC, or any frame at all while ``promiscuous``.  A frame no
NIC accepts still occupies the wire; it just wakes nobody.

Deterministic faults are injected through a *frame-hook chain*: each
hook maps one in-flight frame to zero or more (frame, extra_delay)
deliveries, so drop, duplicate, delay/reorder, and corruption injectors
compose (see :mod:`repro.faults.injectors`).  The original one-off
``set_drop_filter`` survives as a hook that participates in the same
chain instead of replacing delivery.
"""

from __future__ import annotations

from heapq import heappush
from typing import Callable

from repro.net.addresses import BROADCAST_MAC, MacAddress
from repro.net.packet import EthernetFrame
from repro.net.sim import SimulationError, Simulator

#: 10Base-T, as on the RMC2000 development kit.
DEFAULT_BANDWIDTH_BPS = 10_000_000
DEFAULT_LATENCY_S = 50e-6

_BROADCAST = BROADCAST_MAC.value

#: A frame hook maps one candidate delivery to zero or more deliveries:
#: ``hook(frame, index, extra_delay) -> [(frame, extra_delay), ...]``.
#: Returning ``[]`` drops the frame; two tuples duplicate it; a larger
#: ``extra_delay`` holds it back past later traffic (reordering).
FrameHook = Callable[
    [EthernetFrame, int, float], "list[tuple[EthernetFrame, float]]"
]


class NetworkInterface:
    """One attachment point: a MAC address plus a receive callback.

    The segment applies the MAC filter when a frame is sent (see
    :meth:`EthernetSegment.broadcast`), so ``promiscuous`` applies to
    frames sent after it is set, not to frames already on the wire.
    ``mac`` is fixed once the interface is attached: the segment
    indexes its NICs by MAC.
    """

    def __init__(self, mac: MacAddress, name: str = ""):
        self.mac = mac
        self.name = name or str(mac)
        self.segment: "EthernetSegment | None" = None
        self._receiver: Callable[[EthernetFrame], None] | None = None
        self.frames_sent = 0
        self.frames_received = 0
        self.bytes_sent = 0
        self.bytes_received = 0
        self._promiscuous = False

    @property
    def promiscuous(self) -> bool:
        return self._promiscuous

    @promiscuous.setter
    def promiscuous(self, value: bool) -> None:
        self._promiscuous = value
        if self.segment is not None:
            self.segment._reindex()

    def on_receive(self, callback: Callable[[EthernetFrame], None]) -> None:
        self._receiver = callback

    def transmit(self, frame: EthernetFrame) -> None:
        if self.segment is None:
            raise RuntimeError(f"interface {self.name} not attached to a segment")
        self.frames_sent += 1
        self.bytes_sent += frame.size
        self.segment.broadcast(frame, sender=self)

    def deliver(self, frame: EthernetFrame) -> None:
        """Count a frame the segment's MAC filter accepted and hand it up."""
        self.frames_received += 1
        self.bytes_received += frame.size
        if self._receiver is not None:
            self._receiver(frame)

    def __repr__(self) -> str:
        return f"NetworkInterface({self.name!r}, mac={self.mac})"


class EthernetSegment:
    """A shared medium connecting interfaces (a hub, not a switch).

    Serialization is modelled per segment: frames queue behind each
    other, which is what actually bounds throughput in the E4 benchmark.
    """

    def __init__(
        self,
        sim: Simulator,
        bandwidth_bps: float = DEFAULT_BANDWIDTH_BPS,
        latency_s: float = DEFAULT_LATENCY_S,
        name: str = "lan0",
    ):
        self.sim = sim
        self.bandwidth_bps = bandwidth_bps
        self.latency_s = latency_s
        self.name = name
        self.interfaces: list[NetworkInterface] = []
        self.frames_carried = 0
        self.bytes_carried = 0
        self.frames_dropped = 0
        self._medium_free_at = 0.0
        self._frame_hooks: list[FrameHook] = []
        self._drop_filter_hook: FrameHook | None = None
        # The MAC filter's index: attached NICs by MAC value, each list
        # in attach order, and whether any NIC is promiscuous.
        self._by_mac: dict[int, list[NetworkInterface]] = {}
        self._any_promiscuous = False

    def attach(self, interface: NetworkInterface) -> None:
        if interface.segment is not None:
            raise RuntimeError(f"{interface!r} already attached")
        interface.segment = self
        self.interfaces.append(interface)
        self._reindex()

    def _reindex(self) -> None:
        self._by_mac = {}
        self._any_promiscuous = False
        for interface in self.interfaces:
            self._by_mac.setdefault(interface.mac.value, []).append(interface)
            if interface.promiscuous:
                self._any_promiscuous = True

    def _receivers(self, dst: int) -> list[NetworkInterface]:
        """The NICs whose MAC filter accepts a frame to ``dst`` (a MAC
        value): their own MAC, the broadcast MAC, or any frame while
        promiscuous -- in attach order, which keeps equal-time
        deliveries in their (when, seq) order."""
        if dst == _BROADCAST:
            return self.interfaces
        if self._any_promiscuous:
            return [i for i in self.interfaces
                    if i.promiscuous or i.mac.value == dst]
        return self._by_mac.get(dst, [])

    # -- fault-injection chain ------------------------------------------------
    def add_frame_hook(self, hook: FrameHook) -> FrameHook:
        """Append an injector to the chain; returns it for removal."""
        self._frame_hooks.append(hook)
        return hook

    def remove_frame_hook(self, hook: FrameHook) -> None:
        if hook in self._frame_hooks:
            self._frame_hooks.remove(hook)

    def set_drop_filter(
        self, fn: Callable[[EthernetFrame, int], bool] | None
    ) -> None:
        """Install a deterministic loss injector.

        ``fn(frame, index)`` returns True to drop; ``index`` counts frames
        carried so far, letting tests drop, say, exactly the third segment.
        Implemented as a frame hook at the head of the chain, so it
        composes with other injectors instead of replacing delivery;
        ``None`` uninstalls it and leaves the rest of the chain alone.
        """
        if self._drop_filter_hook is not None:
            self.remove_frame_hook(self._drop_filter_hook)
            self._drop_filter_hook = None
        if fn is None:
            return

        def drop_filter_hook(frame, index, extra_delay):
            if fn(frame, index):
                return []
            return [(frame, extra_delay)]

        self._drop_filter_hook = drop_filter_hook
        self._frame_hooks.insert(0, drop_filter_hook)

    def broadcast(self, frame: EthernetFrame, sender: NetworkInterface) -> None:
        index = self.frames_carried
        self.frames_carried += 1
        wire_size = frame.size
        self.bytes_carried += wire_size
        if self._frame_hooks:
            deliveries = self._run_hooks(frame, index)
            if not deliveries:
                # Fully dropped frames never seize the medium: collisions
                # on a real hub destroy the frame without a successful
                # carry.
                self.frames_dropped += 1
                return
        else:
            deliveries = ((frame, 0.0),)
        sim = self.sim
        serialization = wire_size * 8 / self.bandwidth_bps
        start = max(sim.now, self._medium_free_at)
        self._medium_free_at = start + serialization
        arrival = self._medium_free_at + self.latency_s
        # The trace context riding this frame (if the sender raised one)
        # travels as a side-channel annotation: the delivery callback
        # re-raises it on the receiving end for the instant of delivery,
        # so causality crosses the wire without widening the frame
        # format.  Scheduling order (when, seq) is identical either way.
        ctx = sim.wire_trace_ctx
        queue = sim._queue
        for delivered_frame, extra_delay in deliveries:
            when = arrival + extra_delay
            if when < sim.now:
                raise SimulationError(
                    f"cannot schedule in the past: {when} < {sim.now}")
            # The NICs' MAC filter, applied to each frame the hook chain
            # emits (a corruptor may have rewritten dst).  Deliveries go
            # onto the heap as the (when, seq, fn, args) entries call_at
            # makes.
            for interface in self._receivers(delivered_frame.dst.value):
                if interface is sender:
                    continue
                sim._seq += 1
                if ctx is None:
                    heappush(queue, (when, sim._seq, interface.deliver,
                                     (delivered_frame,)))
                else:
                    heappush(queue, (when, sim._seq, self._deliver_with_ctx,
                                     (interface, delivered_frame, ctx)))

    def _run_hooks(self, frame: EthernetFrame,
                   index: int) -> list[tuple[EthernetFrame, float]]:
        """Pass one frame through the hook chain; returns its deliveries."""
        deliveries: list[tuple[EthernetFrame, float]] = [(frame, 0.0)]
        for hook in list(self._frame_hooks):
            staged: list[tuple[EthernetFrame, float]] = []
            for staged_frame, extra_delay in deliveries:
                staged.extend(hook(staged_frame, index, extra_delay))
            deliveries = staged
            if not deliveries:
                break
        return deliveries

    def _deliver_with_ctx(self, interface: NetworkInterface,
                          frame: EthernetFrame, ctx) -> None:
        sim = self.sim
        previous = sim.rx_trace_ctx
        sim.rx_trace_ctx = ctx
        try:
            interface.deliver(frame)
        finally:
            sim.rx_trace_ctx = previous

    def __repr__(self) -> str:
        return (
            f"EthernetSegment({self.name!r}, {self.bandwidth_bps / 1e6:g} Mb/s, "
            f"{len(self.interfaces)} interfaces)"
        )
