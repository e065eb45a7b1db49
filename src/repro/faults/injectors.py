"""Composable, seeded fault injectors for every layer the port trusts.

Link-layer injectors are frame hooks (see
:meth:`repro.net.link.EthernetSegment.add_frame_hook`): each maps one
candidate delivery ``(frame, extra_delay)`` to zero or more deliveries,
so a drop can sit in front of a duplicator in front of a corruptor and
each sees the other's output.  Which frames an injector touches is a
*matcher* -- a ``(frame, index) -> bool`` callable built from the
helpers below; randomized matchers take an explicit seeded
``random.Random`` so campaigns replay exactly.

Above the link layer: :class:`CorruptingTransport` flips a bit inside a
chosen issl record (testing MAC-failure teardown rather than TCP
recovery), :class:`ExhaustingXmemAllocator` fails at a chosen
allocation ordinal, and :func:`starving_costate` burns big-loop passes
the way a runaway costatement would.
"""

from __future__ import annotations

import random
from typing import Callable

from repro.issl.record import decode_header
from repro.dync.runtime.xalloc import XallocError, XmemAllocator
from repro.net.packet import (
    EthernetFrame,
    IpPacket,
    TCP_SYN,
    TcpSegment,
)
from repro.obs import NULL_OBS

Matcher = Callable[[EthernetFrame, int], bool]


# ---------------------------------------------------------------------------
# Frame predicates and matchers
# ---------------------------------------------------------------------------

def _tcp_segment(frame: EthernetFrame) -> TcpSegment | None:
    packet = frame.payload
    if isinstance(packet, IpPacket) and isinstance(packet.payload, TcpSegment):
        return packet.payload
    return None


def is_tcp(frame: EthernetFrame) -> bool:
    """True for any TCP segment (never matches ARP, so address
    resolution -- which has no retransmit -- stays reliable)."""
    return _tcp_segment(frame) is not None


def has_tcp_payload(frame: EthernetFrame) -> bool:
    """True for TCP segments carrying data (not bare SYN/ACK/FIN)."""
    segment = _tcp_segment(frame)
    return segment is not None and len(segment.payload) > 0


def is_tcp_syn(frame: EthernetFrame) -> bool:
    segment = _tcp_segment(frame)
    return segment is not None and segment.flag(TCP_SYN)


def tcp_payload_prefix(prefix: bytes) -> Callable[[EthernetFrame], bool]:
    """Predicate: TCP payload starting with ``prefix``.  issl records
    travel with a plaintext header, so ``bytes([CT_APPLICATION_DATA])``
    selects exactly the protected application records on the wire."""
    def predicate(frame: EthernetFrame) -> bool:
        segment = _tcp_segment(frame)
        return segment is not None and segment.payload.startswith(prefix)
    return predicate


def match_nth(n: int, predicate=None) -> Matcher:
    """Match the ``n``-th (0-based) frame satisfying ``predicate``."""
    seen = {"count": 0}

    def matcher(frame, index):
        if predicate is not None and not predicate(frame):
            return False
        hit = seen["count"] == n
        seen["count"] += 1
        return hit
    return matcher


def match_every(k: int, predicate=None, start: int = 0,
                limit: int | None = None) -> Matcher:
    """Match every ``k``-th qualifying frame from ``start``, at most
    ``limit`` times (None: unlimited)."""
    if k <= 0:
        raise ValueError(f"k must be positive, got {k}")
    state = {"count": 0, "matched": 0}

    def matcher(frame, index):
        if predicate is not None and not predicate(frame):
            return False
        if limit is not None and state["matched"] >= limit:
            return False
        ordinal = state["count"]
        state["count"] += 1
        if ordinal < start or (ordinal - start) % k != 0:
            return False
        state["matched"] += 1
        return True
    return matcher


def match_probability(p: float, rng: random.Random,
                      predicate=None) -> Matcher:
    """Match each qualifying frame with probability ``p`` drawn from the
    caller's seeded ``rng`` (determinism is the caller's seed)."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"probability must be in [0, 1], got {p}")

    def matcher(frame, index):
        if predicate is not None and not predicate(frame):
            return False
        return rng.random() < p
    return matcher


# ---------------------------------------------------------------------------
# Link-layer injectors (frame hooks)
# ---------------------------------------------------------------------------

class FrameInjector:
    """Base: a frame hook that applies a fault to matched frames.

    Counts every application on ``faults.injected.<kind>`` and on the
    instance (``injected``), so scenarios can assert both that the fault
    actually fired and that the layer under test recovered.
    """

    kind = "fault"

    def __init__(self, matcher: Matcher, obs=None):
        self.matcher = matcher
        self.injected = 0
        self._counter = (obs if obs is not None else NULL_OBS).metrics.counter(
            f"faults.injected.{self.kind}"
        )

    def __call__(self, frame, index, extra_delay):
        if not self.matcher(frame, index):
            return [(frame, extra_delay)]
        self.injected += 1
        self._counter.inc()
        return self.apply(frame, extra_delay)

    def apply(self, frame, extra_delay):
        raise NotImplementedError


class DropFrames(FrameInjector):
    """Lose matched frames entirely (TCP's RTO must recover)."""

    kind = "drop"

    def apply(self, frame, extra_delay):
        return []


class DuplicateFrames(FrameInjector):
    """Deliver matched frames twice (sequence numbers must dedup)."""

    kind = "duplicate"

    def apply(self, frame, extra_delay):
        return [(frame, extra_delay), (frame, extra_delay)]


class DelayFrames(FrameInjector):
    """Hold matched frames back ``extra_s`` -- past later traffic, this
    is reordering; past the RTO, it manufactures spurious duplicates."""

    kind = "delay"

    def __init__(self, matcher: Matcher, extra_s: float, obs=None):
        super().__init__(matcher, obs)
        self.extra_s = extra_s

    def apply(self, frame, extra_delay):
        return [(frame, extra_delay + self.extra_s)]


class CorruptFrames(FrameInjector):
    """Flip one bit inside a matched frame's TCP payload.

    ``byte_offset`` picks the payload byte (None: the middle -- past any
    plaintext record header, inside ciphertext/MAC for issl traffic);
    ``bit`` the bit within it.  Frames without a TCP payload pass
    through untouched even when matched.
    """

    kind = "corrupt"

    def __init__(self, matcher: Matcher, byte_offset: int | None = None,
                 bit: int = 0, obs=None):
        super().__init__(matcher, obs)
        self.byte_offset = byte_offset
        self.bit = bit

    def apply(self, frame, extra_delay):
        segment = _tcp_segment(frame)
        if segment is None or not segment.payload:
            return [(frame, extra_delay)]
        payload = bytearray(segment.payload)
        offset = (
            len(payload) // 2 if self.byte_offset is None
            else min(self.byte_offset, len(payload) - 1)
        )
        payload[offset] ^= 1 << (self.bit & 7)
        corrupted = frame._replace(
            payload=frame.payload._replace(
                payload=segment._replace(payload=bytes(payload)),
            ),
        )
        return [(corrupted, extra_delay)]


def install(segment, *injectors):
    """Append injectors to ``segment``'s frame-hook chain, in order."""
    for injector in injectors:
        segment.add_frame_hook(injector)
    return injectors


def uninstall(segment, *injectors):
    for injector in injectors:
        segment.remove_frame_hook(injector)


# ---------------------------------------------------------------------------
# Record faults (issl transport wrapper)
# ---------------------------------------------------------------------------

class CorruptingTransport:
    """Wrap an issl transport; flip one bit in the body of record N.

    Counts received records by following the session's own read pattern
    (header, then body), so the flip lands inside the ciphertext/MAC of
    exactly the ``record_index``-th inbound record -- the surgical way
    to exercise MAC-failure teardown without involving TCP checksums.
    """

    def __init__(self, inner, record_index: int, bit: int = 0, obs=None):
        self._inner = inner
        self.record_index = record_index
        self.bit = bit
        self.records_seen = 0
        self._awaiting_body = False
        self._body_is_target = False
        self.injected = 0
        self._counter = (obs if obs is not None else NULL_OBS).metrics.counter(
            "faults.injected.record"
        )

    def send(self, data: bytes) -> None:
        self._inner.send(data)

    def recv_exactly(self, nbytes: int, timeout: float | None = None):
        data = yield from self._inner.recv_exactly(nbytes, timeout)
        if nbytes == 0:
            return data
        if not self._awaiting_body:
            # A record header; its body (possibly empty) comes next.
            _type, length = decode_header(data)
            self._body_is_target = (
                self.records_seen == self.record_index and length > 0
            )
            self._awaiting_body = True
            if length == 0:
                self._awaiting_body = False
                self.records_seen += 1
            return data
        self._awaiting_body = False
        self.records_seen += 1
        if self._body_is_target:
            self._body_is_target = False
            self.injected += 1
            self._counter.inc()
            mutated = bytearray(data)
            mutated[len(mutated) // 2] ^= 1 << (self.bit & 7)
            return bytes(mutated)
        return data

    def close(self) -> None:
        self._inner.close()

    @property
    def at_eof(self) -> bool:
        return self._inner.at_eof


# ---------------------------------------------------------------------------
# Memory faults
# ---------------------------------------------------------------------------

class ExhaustingXmemAllocator(XmemAllocator):
    """An xmem pool that runs dry at allocation ordinal ``fail_at``.

    The first ``fail_at - 1`` calls succeed; every later call raises
    :class:`XallocError`, exactly like a board whose xmem filled up --
    there is no free, so exhaustion is permanent (paper Section 5.2).
    """

    def __init__(self, capacity: int, fail_at: int, base: int = 0x80000,
                 obs=None):
        super().__init__(capacity, base=base, obs=obs)
        if fail_at <= 0:
            raise ValueError(f"fail_at must be positive, got {fail_at}")
        self.fail_at = fail_at
        self._fault_counter = (
            obs if obs is not None else NULL_OBS
        ).metrics.counter("faults.injected.xalloc")

    def xalloc(self, nbytes: int):
        if self.allocations + 1 >= self.fail_at:
            self._fault_counter.inc()
            raise XallocError(
                f"injected exhaustion at allocation {self.allocations + 1} "
                f"(fail_at={self.fail_at})"
            )
        return super().xalloc(nbytes)


# ---------------------------------------------------------------------------
# Scheduler faults
# ---------------------------------------------------------------------------

def starving_costate(passes: int, busy_s: float, obs=None):
    """Generator costatement: burn ``busy_s`` of CPU per big-loop pass.

    Costatements are cooperative, so one greedy body stalls every
    sibling -- the port's scheduling hazard.  Bounded by ``passes`` so
    scenarios terminate.
    """
    counter = (obs if obs is not None else NULL_OBS).metrics.counter(
        "faults.injected.starve"
    )
    for _ in range(passes):
        counter.inc()
        yield busy_s
