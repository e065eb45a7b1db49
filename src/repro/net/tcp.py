"""TCP (DESIGN.md S2): connections, listeners, retransmission, flow control.

A deliberately complete small TCP: three-way handshake, cumulative ACKs,
MSS segmentation, receive-window flow control (with zero-window reopen),
RTO retransmission with exponential backoff, orderly FIN teardown through
TIME_WAIT, and RST handling.  No congestion control and no SACK --
matching the early-2000s embedded stacks the paper used, which were
window-limited rather than cwnd-limited.

The byte-stream API here is non-blocking and event-driven; the blocking
facades live in :mod:`repro.net.bsd` (Unix flavour) and
:mod:`repro.net.dynctcp` (Dynamic C flavour).
"""

from __future__ import annotations

import enum
from collections import deque

from repro.obs.trace import CAT_TCP
from repro.net.addresses import Ipv4Address
from repro.net.packet import (
    IpPacket,
    IPPROTO_TCP,
    TCP_ACK,
    TCP_FIN,
    TCP_PSH,
    TCP_RST,
    TCP_SYN,
    TcpSegment,
)

_SEQ_MOD = 1 << 32
_SEQ_HALF = _SEQ_MOD // 2

#: Default maximum segment size (RFC 879 default path MTU assumption).
DEFAULT_MSS = 536
#: Default receive buffer / advertised window.
DEFAULT_WINDOW = 8192
#: Initial retransmission timeout and its cap.
INITIAL_RTO_S = 0.2
MAX_RTO_S = 3.0
#: How long TIME_WAIT lingers (short: simulations are short).
TIME_WAIT_S = 1.0
#: Give up a connection after this many consecutive retransmissions.
MAX_RETRANSMITS = 8

EPHEMERAL_BASE = 32768


def seq_add(a: int, b: int) -> int:
    return (a + b) % _SEQ_MOD


def seq_diff(a: int, b: int) -> int:
    """Signed distance a - b in sequence space."""
    diff = (a - b) % _SEQ_MOD
    return diff - _SEQ_MOD if diff >= _SEQ_HALF else diff


# seq_diff(a, b) < 0 and <= 0, tested on the unsigned distance directly:
# every ACK arrival makes two of these comparisons.
def seq_lt(a: int, b: int) -> bool:
    return (a - b) % _SEQ_MOD >= _SEQ_HALF


def seq_le(a: int, b: int) -> bool:
    diff = (a - b) % _SEQ_MOD
    return diff == 0 or diff >= _SEQ_HALF


def _conn_key(local_port: int, remote_ip: int, remote_port: int) -> int:
    """One int per connection 4-tuple (the local address is the host's):
    it hashes and compares without the address dataclass's methods."""
    return (local_port << 48) | (remote_ip << 16) | remote_port


class TcpState(enum.Enum):
    CLOSED = "CLOSED"
    SYN_SENT = "SYN_SENT"
    SYN_RCVD = "SYN_RCVD"
    ESTABLISHED = "ESTABLISHED"
    FIN_WAIT_1 = "FIN_WAIT_1"
    FIN_WAIT_2 = "FIN_WAIT_2"
    CLOSE_WAIT = "CLOSE_WAIT"
    LAST_ACK = "LAST_ACK"
    CLOSING = "CLOSING"
    TIME_WAIT = "TIME_WAIT"


class TcpError(RuntimeError):
    """Raised on protocol violations visible to the application."""


class TcpConnection:
    """One TCP connection endpoint."""

    def __init__(self, service: "TcpService", local_port: int,
                 remote_ip: Ipv4Address, remote_port: int,
                 window: int = DEFAULT_WINDOW, mss: int = DEFAULT_MSS):
        self._service = service
        self._host = service._host
        self.local_port = local_port
        self.remote_ip = remote_ip
        self.remote_port = remote_port
        self.state = TcpState.CLOSED
        self.mss = mss

        self._iss = service._next_iss()
        self.snd_una = self._iss
        self.snd_nxt = self._iss
        self._send_queue = b""          # bytes not yet assigned sequence space
        self._retransmit = b""          # bytes in [snd_una, snd_nxt) less FIN
        self._fin_queued = False
        self._fin_sent = False

        self.rcv_nxt = 0
        self._recv_buffer = b""
        self._recv_window = window
        self.peer_window = DEFAULT_WINDOW
        self.fin_received = False

        self._rto = INITIAL_RTO_S
        self._retransmit_count = 0
        self._timer_token = 0

        #: Triggered on every state change, arriving byte, or ACK; the
        #: blocking facades park on this.
        self.update_event = self._host.sim.event(
            f"tcp:{self._host.name}:{local_port}"
        )
        #: Wait-object change counter (see repro.dync.runtime.costate.
        #: idle_on): bumped with every notify and every receive-buffer
        #: drain, the only ways what a reader sees can change.
        self.changes = 0
        self.error: str | None = None
        self.bytes_sent = 0
        self.bytes_received = 0
        self.segments_retransmitted = 0

        # Observability: handles cached once (null by default, see
        # repro.obs); the connection-lifetime span opens on SYN.
        obs = self._host.sim.obs
        self._tracer = obs.tracer
        self._recorder = obs.recorder
        self._ctr_retransmits = obs.metrics.counter("tcp.segments.retransmitted")
        self._ctr_bytes_sent = obs.metrics.counter("tcp.bytes.sent")
        self._ctr_bytes_received = obs.metrics.counter("tcp.bytes.received")
        self._ctr_opened = obs.metrics.counter("tcp.connections.opened")
        self._ts_send_queue = obs.telemetry.series(
            f"tcp.{self._host.name}.send_queue"
        )
        self._span = None
        self._span_tid = (
            f"tcp:{self._host.name}:{local_port}->{remote_port}"
        )
        # Causal side channel: the trace context captured from the
        # sender at `send()` time rides outbound data frames (including
        # retransmits); the last context delivered with inbound data is
        # exposed to readers (issl, services) as `rx_trace_ctx`.
        self._tx_ctx = None
        self.rx_trace_ctx = None

    def _begin_span(self, how: str) -> None:
        self._ctr_opened.inc()
        self._span = self._tracer.begin(
            "tcp.connection", cat=CAT_TCP, tid=self._span_tid, open=how,
            remote=f"{self.remote_ip}:{self.remote_port}",
        )

    # -- helpers ---------------------------------------------------------
    def _notify(self) -> None:
        self.changes += 1
        self.update_event.trigger()

    def _advertised_window(self) -> int:
        return max(0, self._recv_window - len(self._recv_buffer))

    def _emit(self, flags: int, payload: bytes = b"",
              seq: int | None = None) -> None:
        segment = TcpSegment(
            self.local_port, self.remote_port,
            self.snd_nxt if seq is None else seq, self.rcv_nxt, flags,
            min(self._advertised_window(), 0xFFFF), payload,
        )
        self._host.ip.send(self.remote_ip, IPPROTO_TCP, segment)

    def _emit_data(self, flags: int, payload: bytes,
                   seq: int | None = None) -> None:
        """Emit a payload-carrying segment with the captured trace
        context raised for the synchronous window of ``IpStack.send``,
        which annotates the queued packet so the context survives the
        output loop's ARP hop onto the wire."""
        ctx = self._tx_ctx
        if ctx is None:
            self._emit(flags, payload, seq=seq)
            return
        sim = self._host.sim
        previous = sim.wire_trace_ctx
        sim.wire_trace_ctx = ctx
        try:
            self._emit(flags, payload, seq=seq)
        finally:
            sim.wire_trace_ctx = previous

    def _enter(self, state: TcpState) -> None:
        transition = f"{self.state.value}->{state.value}"
        self.state = state
        self._tracer.instant(
            "tcp.state", cat=CAT_TCP, tid=self._span_tid,
            transition=transition,
        )
        self._recorder.debug(CAT_TCP, self._span_tid, transition)
        if state in (TcpState.CLOSED, TcpState.TIME_WAIT) \
                and self._span is not None:
            attrs = {"state": state.value,
                     "retransmits": self.segments_retransmitted}
            if self.error:
                attrs["error"] = self.error
            self._tracer.end(self._span, **attrs)
            self._span = None
        self._notify()

    def _fail(self, reason: str) -> None:
        self.error = reason
        self._recorder.error(CAT_TCP, self._span_tid, reason)
        self._cancel_timer()
        self._enter(TcpState.CLOSED)
        self._service._forget(self)

    # -- timers ------------------------------------------------------------
    def _arm_timer(self) -> None:
        self._timer_token += 1
        token = self._timer_token
        self._host.sim.call_after(self._rto, self._on_timeout, token)

    def _cancel_timer(self) -> None:
        self._timer_token += 1

    def _on_timeout(self, token: int) -> None:
        if token != self._timer_token:
            return  # superseded
        if self.state in (TcpState.CLOSED, TcpState.TIME_WAIT):
            return
        outstanding = seq_diff(self.snd_nxt, self.snd_una)
        if outstanding <= 0:
            return
        self._retransmit_count += 1
        if self._retransmit_count > MAX_RETRANSMITS:
            self._fail("too many retransmissions")
            return
        self.segments_retransmitted += 1
        self._ctr_retransmits.inc()
        self._tracer.instant("tcp.retransmit", cat=CAT_TCP,
                             tid=self._span_tid, rto_s=self._rto)
        self._recorder.warn(
            CAT_TCP, self._span_tid,
            f"retransmit #{self._retransmit_count} in {self.state.value}",
        )
        self._rto = min(self._rto * 2, MAX_RTO_S)
        if self.state == TcpState.SYN_SENT:
            self._emit(TCP_SYN, seq=self._iss)
        elif self.state == TcpState.SYN_RCVD:
            self._emit(TCP_SYN | TCP_ACK, seq=self._iss)
        else:
            # Resend the first unacked chunk (and FIN if that is what is out).
            data = self._retransmit[: self.mss]
            if data:
                self._emit_data(TCP_ACK | TCP_PSH, data, seq=self.snd_una)
            elif self._fin_sent:
                self._emit(TCP_FIN | TCP_ACK, seq=self.snd_una)
        self._arm_timer()

    # -- open/close ----------------------------------------------------------
    def connect(self) -> None:
        """Send SYN (active open)."""
        self._begin_span("active")
        self.state = TcpState.SYN_SENT
        self._emit(TCP_SYN, seq=self._iss)
        self.snd_nxt = seq_add(self._iss, 1)
        self._arm_timer()

    def _passive_open(self, segment: TcpSegment) -> None:
        """Reply SYN/ACK to a listener-delivered SYN."""
        self._begin_span("passive")
        self.rcv_nxt = seq_add(segment.seq, 1)
        self.peer_window = segment.window
        self.state = TcpState.SYN_RCVD
        self._emit(TCP_SYN | TCP_ACK, seq=self._iss)
        self.snd_nxt = seq_add(self._iss, 1)
        self._arm_timer()

    def close(self) -> None:
        """Application close: queue a FIN behind any unsent data."""
        if self.state in (TcpState.CLOSED, TcpState.TIME_WAIT, TcpState.LAST_ACK,
                          TcpState.FIN_WAIT_1, TcpState.FIN_WAIT_2, TcpState.CLOSING):
            return
        if self.state == TcpState.SYN_SENT:
            self._fail("closed before established")
            return
        self._fin_queued = True
        if self.state == TcpState.ESTABLISHED:
            self._enter(TcpState.FIN_WAIT_1)
        elif self.state == TcpState.CLOSE_WAIT:
            self._enter(TcpState.LAST_ACK)
        self._pump()

    def abort(self) -> None:
        """RST the peer and drop the connection; a closed one stays as
        it is, with the error that closed it."""
        if self.state == TcpState.CLOSED:
            return
        self._emit(TCP_RST)
        self._fail("aborted")

    # -- sending -----------------------------------------------------------
    def send(self, data: bytes) -> int:
        """Queue application bytes; returns the count accepted."""
        if self.state not in (TcpState.ESTABLISHED, TcpState.CLOSE_WAIT):
            raise TcpError(f"send in state {self.state.value}")
        if self._fin_queued:
            raise TcpError("send after close")
        self._send_queue += data
        self._pump()
        # Sample the host's queue depth after the pump: what is left is
        # the backpressure (window-limited bytes awaiting ACK or space).
        self._ts_send_queue.record(float(self.send_queue_length))
        return len(data)

    def set_trace_context(self, ctx) -> None:
        """Attach a :class:`repro.obs.TraceContext` to subsequent
        outbound data (explicit, not ambient: generators yield between
        a sender's intent and the actual emission, so an ambient global
        would race across interleaved processes)."""
        self._tx_ctx = ctx

    @property
    def send_queue_length(self) -> int:
        return len(self._send_queue) + len(self._retransmit)

    def _pump(self) -> None:
        """Move bytes from the send queue into flight, window permitting."""
        sent_something = False
        while self._send_queue:
            in_flight = seq_diff(self.snd_nxt, self.snd_una)
            budget = min(self.peer_window - in_flight, self.mss)
            if budget <= 0:
                break
            chunk = self._send_queue[:budget]
            self._send_queue = self._send_queue[len(chunk):]
            self._emit_data(TCP_ACK | TCP_PSH, chunk)
            self._retransmit += chunk
            self.snd_nxt = seq_add(self.snd_nxt, len(chunk))
            self.bytes_sent += len(chunk)
            self._ctr_bytes_sent.inc(len(chunk))
            sent_something = True
        if (
            self._fin_queued
            and not self._fin_sent
            and not self._send_queue
        ):
            self._emit(TCP_FIN | TCP_ACK)
            self.snd_nxt = seq_add(self.snd_nxt, 1)
            self._fin_sent = True
            sent_something = True
        if sent_something and seq_diff(self.snd_nxt, self.snd_una) > 0:
            self._rto = INITIAL_RTO_S
            self._arm_timer()

    # -- receiving ------------------------------------------------------------
    def receive_available(self) -> int:
        return len(self._recv_buffer)

    def recv(self, max_bytes: int) -> bytes:
        """Drain up to ``max_bytes`` from the receive buffer (non-blocking).

        Returns ``b""`` both for "nothing available" and EOF; use
        :attr:`at_eof` to distinguish.
        """
        if max_bytes <= 0 or not self._recv_buffer:
            return b""
        window_was_zero = self._advertised_window() == 0
        data, self._recv_buffer = (
            self._recv_buffer[:max_bytes],
            self._recv_buffer[max_bytes:],
        )
        self.changes += 1
        if window_was_zero and self.state != TcpState.CLOSED:
            # Reopen the window so a blocked sender can resume.
            self._emit(TCP_ACK)
        return data

    @property
    def at_eof(self) -> bool:
        return self.fin_received and not self._recv_buffer

    @property
    def is_open(self) -> bool:
        return self.state in (
            TcpState.ESTABLISHED,
            TcpState.FIN_WAIT_1,
            TcpState.FIN_WAIT_2,
            TcpState.CLOSE_WAIT,
        )

    # -- segment arrival ----------------------------------------------------
    def handle_segment(self, segment: TcpSegment) -> None:
        state = self.state
        if segment.flags & TCP_RST:
            if state is not TcpState.CLOSED:
                self._fail("connection reset by peer")
            return
        if state is TcpState.SYN_SENT:
            self._handle_syn_sent(segment)
        elif state is TcpState.SYN_RCVD:
            self._handle_syn_rcvd(segment)
        else:
            self._handle_synchronized(segment)

    def _handle_syn_sent(self, segment: TcpSegment) -> None:
        if segment.flags & (TCP_SYN | TCP_ACK) != TCP_SYN | TCP_ACK:
            return
        if segment.ack != self.snd_nxt:
            self._emit(TCP_RST, seq=segment.ack)
            return
        self.rcv_nxt = seq_add(segment.seq, 1)
        self.snd_una = segment.ack
        self.peer_window = segment.window
        self._cancel_timer()
        self._retransmit_count = 0
        self._emit(TCP_ACK)
        self._enter(TcpState.ESTABLISHED)
        self._pump()

    def _handle_syn_rcvd(self, segment: TcpSegment) -> None:
        flags = segment.flags
        if flags & (TCP_SYN | TCP_ACK) == TCP_SYN:
            # Duplicate SYN: repeat the SYN/ACK.
            self._emit(TCP_SYN | TCP_ACK, seq=self._iss)
            return
        if flags & TCP_ACK and segment.ack == self.snd_nxt:
            self.snd_una = segment.ack
            self.peer_window = segment.window
            self._cancel_timer()
            self._retransmit_count = 0
            self._enter(TcpState.ESTABLISHED)
            self._service._connection_established(self)
            # The handshake ACK may already carry data.
            if segment.payload or flags & TCP_FIN:
                self._handle_synchronized(segment)

    def _handle_synchronized(self, segment: TcpSegment) -> None:
        notify = False
        flags = segment.flags
        # --- ACK processing ---
        if flags & TCP_ACK:
            self.peer_window = segment.window
            if seq_lt(self.snd_una, segment.ack) and seq_le(segment.ack, self.snd_nxt):
                advanced = seq_diff(segment.ack, self.snd_una)
                data_acked = min(advanced, len(self._retransmit))
                self._retransmit = self._retransmit[data_acked:]
                self.snd_una = segment.ack
                self._retransmit_count = 0
                self._rto = INITIAL_RTO_S
                if seq_diff(self.snd_nxt, self.snd_una) > 0:
                    self._arm_timer()
                else:
                    self._cancel_timer()
                    self._on_all_acked()
                notify = True
            self._pump()
        # --- data processing ---
        if segment.payload:
            seg_end = seq_add(segment.seq, len(segment.payload))
            if seq_le(segment.seq, self.rcv_nxt) and seq_lt(self.rcv_nxt, seg_end):
                offset = seq_diff(self.rcv_nxt, segment.seq)
                fresh = segment.payload[offset:]
                room = self._advertised_window()
                fresh = fresh[:room]
                self._recv_buffer += fresh
                self.rcv_nxt = seq_add(self.rcv_nxt, len(fresh))
                self.bytes_received += len(fresh)
                self._ctr_bytes_received.inc(len(fresh))
                if fresh:
                    ctx = self._host.sim.rx_trace_ctx
                    if ctx is not None:
                        self.rx_trace_ctx = ctx
                notify = True
            # ACK whatever we have (also handles duplicates and old data).
            self._emit(TCP_ACK)
        # --- FIN processing ---
        if flags & TCP_FIN and segment.seq == self.rcv_nxt:
            self.rcv_nxt = seq_add(self.rcv_nxt, 1)
            self.fin_received = True
            self._emit(TCP_ACK)
            if self.state == TcpState.ESTABLISHED:
                self._enter(TcpState.CLOSE_WAIT)
            elif self.state == TcpState.FIN_WAIT_1:
                # Simultaneous close; our FIN not yet acked.
                self._enter(TcpState.CLOSING)
            elif self.state == TcpState.FIN_WAIT_2:
                self._enter_time_wait()
            notify = True
        if notify:
            self._notify()

    def _on_all_acked(self) -> None:
        """Everything we sent (incl. FIN) is acknowledged."""
        if self.state == TcpState.FIN_WAIT_1 and self._fin_sent:
            if self.fin_received:
                self._enter_time_wait()
            else:
                self._enter(TcpState.FIN_WAIT_2)
        elif self.state == TcpState.CLOSING:
            self._enter_time_wait()
        elif self.state == TcpState.LAST_ACK:
            self._enter(TcpState.CLOSED)
            self._service._forget(self)

    def _enter_time_wait(self) -> None:
        self._enter(TcpState.TIME_WAIT)
        self._cancel_timer()
        self._host.sim.call_after(TIME_WAIT_S, self._expire_time_wait)

    def _expire_time_wait(self) -> None:
        if self.state == TcpState.TIME_WAIT:
            self._enter(TcpState.CLOSED)
            self._service._forget(self)

    def __repr__(self) -> str:
        return (
            f"TcpConnection({self._host.name}:{self.local_port} <-> "
            f"{self.remote_ip}:{self.remote_port} {self.state.value})"
        )


class TcpListener:
    """A passive socket: holds a backlog queue of established connections."""

    def __init__(self, service: "TcpService", port: int, backlog: int,
                 window: int, mss: int):
        self._service = service
        self.port = port
        self.backlog = backlog
        self.window = window
        self.mss = mss
        self.accept_queue: deque[TcpConnection] = deque()
        self._embryonic: dict[tuple[Ipv4Address, int], TcpConnection] = {}
        self.accept_event = service._host.sim.event(f"accept:{port}")
        self.closed = False
        self.connections_refused = 0
        self._ts_backlog = service._host.sim.obs.telemetry.series(
            f"tcp.{service._host.name}.accept_backlog"
        )

    def pending(self) -> int:
        return len(self.accept_queue)

    def pop(self) -> TcpConnection | None:
        if self.accept_queue:
            conn = self.accept_queue.popleft()
            self._ts_backlog.record(float(len(self.accept_queue)))
            return conn
        return None

    def close(self) -> None:
        self.closed = True
        self._service._listeners.pop(self.port, None)
        for conn in self._embryonic.values():
            conn.abort()
        self._embryonic.clear()


class TcpService:
    """Per-host TCP: port tables, demux, and connection factory."""

    def __init__(self, host):
        self._host = host
        self._listeners: dict[int, TcpListener] = {}
        #: Keyed by :func:`_conn_key` of (local port, remote IP value,
        #: remote port).
        self._connections: dict[int, TcpConnection] = {}
        self._next_ephemeral = EPHEMERAL_BASE
        self._iss_counter = 1000
        self.segments_received = 0
        self.resets_sent = 0
        self._ts_open = host.sim.obs.telemetry.series(
            f"tcp.{host.name}.open_connections"
        )
        host.ip.register_protocol(IPPROTO_TCP, self._handle)

    # -- public API --------------------------------------------------------
    def listen(self, port: int, backlog: int = 5,
               window: int = DEFAULT_WINDOW, mss: int = DEFAULT_MSS) -> TcpListener:
        if port in self._listeners:
            raise TcpError(f"port {port} already listening")
        listener = TcpListener(self, port, backlog, window, mss)
        self._listeners[port] = listener
        return listener

    def connect(self, remote_ip: Ipv4Address, remote_port: int,
                window: int = DEFAULT_WINDOW, mss: int = DEFAULT_MSS) -> TcpConnection:
        local_port = self._allocate_port()
        conn = TcpConnection(self, local_port, remote_ip, remote_port,
                             window=window, mss=mss)
        self._connections[
            _conn_key(local_port, remote_ip.value, remote_port)] = conn
        self._ts_open.record(float(len(self._connections)))
        conn.connect()
        return conn

    # -- internals ---------------------------------------------------------
    def _next_iss(self) -> int:
        self._iss_counter += 64000
        return self._iss_counter % _SEQ_MOD

    def _allocate_port(self) -> int:
        for _ in range(0xFFFF - EPHEMERAL_BASE):
            port = self._next_ephemeral
            self._next_ephemeral += 1
            if self._next_ephemeral > 0xFFFF:
                self._next_ephemeral = EPHEMERAL_BASE
            if port not in self._listeners and not any(
                key >> 48 == port for key in self._connections
            ):
                return port
        raise TcpError("no free ephemeral ports")

    def _forget(self, conn: TcpConnection) -> None:
        self._connections.pop(
            _conn_key(conn.local_port, conn.remote_ip.value, conn.remote_port),
            None,
        )
        self._ts_open.record(float(len(self._connections)))
        for listener in self._listeners.values():
            listener._embryonic.pop((conn.remote_ip, conn.remote_port), None)

    def _connection_established(self, conn: TcpConnection) -> None:
        """Move a listener's embryonic connection to its accept queue."""
        for listener in self._listeners.values():
            key = (conn.remote_ip, conn.remote_port)
            if listener._embryonic.get(key) is conn:
                del listener._embryonic[key]
                listener.accept_queue.append(conn)
                listener._ts_backlog.record(float(len(listener.accept_queue)))
                listener.accept_event.trigger(conn)
                return

    def _handle(self, packet: IpPacket) -> None:
        segment = packet.payload
        if not isinstance(segment, TcpSegment):
            return
        self.segments_received += 1
        key = _conn_key(segment.dst_port, packet.src.value, segment.src_port)
        conn = self._connections.get(key)
        if conn is not None:
            conn.handle_segment(segment)
            return
        listener = self._listeners.get(segment.dst_port)
        if listener is not None and not listener.closed \
                and segment.flags & (TCP_SYN | TCP_ACK) == TCP_SYN:
            if len(listener.accept_queue) + len(listener._embryonic) >= listener.backlog:
                listener.connections_refused += 1
                self._send_rst(packet.src, segment)
                return
            conn = TcpConnection(
                self, segment.dst_port, packet.src, segment.src_port,
                window=listener.window, mss=listener.mss,
            )
            self._connections[key] = conn
            self._ts_open.record(float(len(self._connections)))
            listener._embryonic[(packet.src, segment.src_port)] = conn
            conn._passive_open(segment)
            return
        if not segment.flags & TCP_RST:
            self.resets_sent += 1
            self._send_rst(packet.src, segment)

    def _send_rst(self, dst: Ipv4Address, offending: TcpSegment) -> None:
        rst = TcpSegment(
            offending.dst_port, offending.src_port, offending.ack,
            seq_add(offending.seq, len(offending.payload) + 1),
            TCP_RST | TCP_ACK, 0,
        )
        self._host.ip.send(dst, IPPROTO_TCP, rst)
