"""Dynamic C TCP API facade (Figure 2b of the paper).

The RMC2000's stack differs from BSD sockets in exactly the ways the
paper describes, and this module reproduces them:

* **No accept().**  The socket passed to ``tcp_listen`` is the socket
  that handles the connection, so serving N simultaneous connections
  requires N sockets, each with its own ``tcp_listen`` -- the structural
  reason the ported server tops out at three connections (Figure 3).
* **The application drives the stack.**  Nothing is received unless the
  program calls ``tcp_tick``; inbound segments queue at the NIC until
  then.  A server therefore needs a dedicated tick-driver loop.
* **ASCII vs binary mode**, ``sock_gets``/``sock_puts`` line I/O, and
  ``sock_established``/``sock_bytesready`` style polling.

All functions are module-level taking the socket first, mirroring the C
API's shapes (``tcp_listen(&sock, port, ...)``).
"""

from __future__ import annotations

from collections import deque

from repro.dync.runtime.costate import idle_on
from repro.net.addresses import Ipv4Address
from repro.net.host import Host
from repro.net.packet import IpPacket, IPPROTO_TCP, TCP_ACK, TCP_SYN
from repro.net.tcp import TcpConnection, TcpService, TcpState

#: sock_mode() values.
TCP_MODE_BINARY = 0
TCP_MODE_ASCII = 1

#: Backlog for the hidden per-port listener; generous because admission
#: control happens at SYN-gating time (see _pending_syn_allowed).
_LISTEN_BACKLOG = 64


class DyncSocket:
    """The ``tcp_Socket`` structure: one socket, one connection at a time.

    A socket is a wait object (see :func:`sock_idle`): ``changes`` moves
    whenever it gets or drops a connection -- ``tcp_listen``,
    ``tcp_open`` and an attach from the listener's accept queue.
    """

    __slots__ = ("stack", "port", "conn", "mode", "line_buffer", "waiting",
                 "changes")

    def __init__(self, stack: "DyncTcpStack"):
        self.stack = stack
        self.port = 0
        self.conn: TcpConnection | None = None
        self.mode = TCP_MODE_BINARY
        self.line_buffer = b""
        self.waiting = False
        self.changes = 0

    def __repr__(self) -> str:
        state = self.conn.state.value if self.conn else "IDLE"
        return f"DyncSocket(port={self.port}, {state})"


class DyncTcpStack:
    """Per-board TCP/IP stack with tick-driven receive processing.

    Construction re-registers the host's TCP protocol handler so inbound
    segments are *queued*; :meth:`tcp_tick` drains the queue into the
    real state machine.  This is the behavioural contract of the Rabbit
    stack that reshaped the ported server's main loop.
    """

    def __init__(self, host: Host):
        self.host = host
        self.tcp: TcpService = host.tcp
        #: ``(packet, rx_trace_ctx)`` pairs -- see :meth:`_enqueue`.
        self._rx_queue: deque[tuple[IpPacket, object]] = deque()
        self._listeners: dict[int, object] = {}
        self._waiting_sockets: dict[int, deque[DyncSocket]] = {}
        #: Attach-loop dirty flag: accept queues only grow while the rx
        #: queue drains (all inbound segments come through _enqueue) and
        #: waiting sockets only appear in tcp_listen, so idle ticks can
        #: skip polling every listener.
        self._attach_dirty = False
        self.initialized = False
        self.ticks = 0
        self.syns_deferred = 0
        host.ip.register_protocol(IPPROTO_TCP, self._enqueue)

    @property
    def quiescent(self) -> bool:
        """True when a ``tcp_tick`` would be a pure no-op (apart from the
        diagnostic ``ticks`` counter): no queued inbound segments to
        drain and no accept-queue attachment pending.  Both can only
        change through simulator events (frame delivery) or API calls
        (``tcp_listen``), never by ticking an idle stack -- which is
        what lets a tick-driver costatement declare its pass IDLE, so
        the big loop can skip the passes that follow in closed form."""
        return not self._rx_queue and not self._attach_dirty

    # -- NIC-side ------------------------------------------------------------
    def _enqueue(self, packet: IpPacket) -> None:
        # Capture the delivery-instant trace context with the packet:
        # the segment is only *processed* at the next tcp_tick, long
        # after the wire's synchronous rx window has closed.
        self._rx_queue.append((packet, self.host.sim.rx_trace_ctx))

    # -- the API -------------------------------------------------------------
    def sock_init(self) -> int:
        """Initialize the stack; returns 0 on success (like Dynamic C)."""
        self.initialized = True
        return 0

    def tcp_listen(self, sock: DyncSocket, port: int,
                   remote_ip: Ipv4Address | int = 0, remote_port: int = 0,
                   handler=None, reserved: int = 0) -> int:
        """Passive-open ``sock`` on ``port``.

        ``remote_ip``/``remote_port``/``handler``/``reserved`` keep the C
        signature; only port filtering is modelled.  Returns 1 on
        success, 0 if the socket is busy.
        """
        if not self.initialized:
            return 0
        if sock.conn is not None and sock.conn.state not in (
                TcpState.CLOSED, TcpState.TIME_WAIT):
            return 0  # previous connection still tearing down
        sock.port = port
        sock.conn = None
        sock.line_buffer = b""
        sock.waiting = True
        sock.changes += 1
        if port not in self._listeners:
            self._listeners[port] = self.tcp.listen(port, backlog=_LISTEN_BACKLOG)
        self._waiting_sockets.setdefault(port, deque()).append(sock)
        self._attach_dirty = True
        return 1

    def tcp_open(self, sock: DyncSocket, local_port: int,
                 remote_ip: Ipv4Address, remote_port: int) -> int:
        """Active open (client side).  Returns 1 if the SYN was sent."""
        if not self.initialized:
            return 0
        sock.conn = self.tcp.connect(remote_ip, remote_port)
        sock.port = sock.conn.local_port
        sock.line_buffer = b""
        sock.waiting = False
        sock.changes += 1
        return 1

    def tcp_tick(self, sock: DyncSocket | None = None) -> int:
        """Drive the stack: drain queued segments, bind accepted
        connections to waiting sockets.

        Returns the status of ``sock``: 1 while the socket is usable
        (opening, open, or holding undelivered data), 0 once fully closed
        -- matching the C convention ``while (tcp_tick(&sock)) ...``.
        """
        self.ticks += 1
        # Deliver queued inbound segments.  SYNs to a known service port
        # complete their handshake into the hidden listener's queue (the
        # stack's SYN queue) even while every socket is busy; they are
        # only *served* when some socket calls tcp_listen again, which
        # is where Figure 3's three-connection ceiling bites.
        pending = len(self._rx_queue)
        if pending:
            sim = self.host.sim
            for _ in range(pending):
                packet, ctx = self._rx_queue.popleft()
                segment = packet.payload
                is_syn = (segment.flags & TCP_SYN
                          and not segment.flags & TCP_ACK)
                if is_syn and segment.dst_port in self._listeners \
                        and not self._waiting_sockets.get(segment.dst_port):
                    self.syns_deferred += 1
                if ctx is None:
                    self.tcp._handle(packet)
                else:
                    # Re-raise the captured context for this segment's
                    # processing so the connection records who sent it.
                    previous = sim.rx_trace_ctx
                    sim.rx_trace_ctx = ctx
                    try:
                        self.tcp._handle(packet)
                    finally:
                        sim.rx_trace_ctx = previous
            self._attach_dirty = True
        # Attach established connections to their waiting sockets.
        # Skipped on idle ticks: the accept queues can only have grown
        # during a drain, and the waiting lists only in tcp_listen.
        if self._attach_dirty:
            self._attach_dirty = False
            for port, listener in self._listeners.items():
                waiting = self._waiting_sockets.get(port)
                while waiting and listener.pending():
                    socket_ = waiting.popleft()
                    socket_.conn = listener.pop()
                    socket_.waiting = False
                    socket_.changes += 1
        if sock is None:
            return 1
        if sock.waiting:
            return 1
        if sock.conn is None:
            return 0
        if sock.conn.is_open or sock.conn.receive_available():
            return 1
        if sock.conn.state in (TcpState.SYN_SENT, TcpState.SYN_RCVD,
                               TcpState.FIN_WAIT_1, TcpState.FIN_WAIT_2,
                               TcpState.CLOSING, TcpState.LAST_ACK):
            return 1
        return 0

    # -- status ----------------------------------------------------------------
    def sock_established(self, sock: DyncSocket) -> int:
        if sock.conn is None:
            return 0
        return 1 if sock.conn.state == TcpState.ESTABLISHED else 0

    def sock_bytesready(self, sock: DyncSocket) -> int:
        """Bytes (binary) or lines (ASCII) ready; -1 if nothing.

        Dynamic C returns -1 for "nothing", 0+ for ready counts; in ASCII
        mode 0 means "empty line ready".
        """
        if sock.conn is None:
            return -1
        self._slurp(sock)
        if sock.mode == TCP_MODE_ASCII:
            index = sock.line_buffer.find(b"\n")
            return index if index >= 0 else -1
        available = len(sock.line_buffer)
        return available if available else -1

    def sock_mode(self, sock: DyncSocket, mode: int) -> None:
        if mode not in (TCP_MODE_ASCII, TCP_MODE_BINARY):
            raise ValueError(f"bad sock_mode {mode}")
        sock.mode = mode

    # -- data ----------------------------------------------------------------
    def _slurp(self, sock: DyncSocket) -> None:
        if sock.conn is not None:
            data = sock.conn.recv(65536)
            if data:
                sock.line_buffer += data

    def sock_gets(self, sock: DyncSocket, max_len: int = 512) -> bytes | None:
        """ASCII mode: one line, newline stripped; None if no full line."""
        self._slurp(sock)
        index = sock.line_buffer.find(b"\n")
        if index < 0:
            # A closed peer flushes the remainder as a final "line".
            if sock.conn is not None and sock.conn.at_eof and sock.line_buffer:
                line, sock.line_buffer = sock.line_buffer, b""
                return line[:max_len]
            return None
        line = sock.line_buffer[:index]
        if line.endswith(b"\r"):
            line = line[:-1]
        sock.line_buffer = sock.line_buffer[index + 1:]
        return line[:max_len]

    def sock_puts(self, sock: DyncSocket, data: bytes) -> int:
        """ASCII mode write: appends a newline, like the C function."""
        return self.sock_write(sock, data + b"\n")

    def sock_read(self, sock: DyncSocket, max_len: int) -> bytes:
        """Binary read of up to ``max_len`` buffered bytes (may be empty)."""
        self._slurp(sock)
        data = sock.line_buffer[:max_len]
        sock.line_buffer = sock.line_buffer[len(data):]
        return data

    def sock_write(self, sock: DyncSocket, data: bytes) -> int:
        if sock.conn is None or not sock.conn.is_open:
            return -1
        sock.conn.send(data)
        return len(data)

    def sock_close(self, sock: DyncSocket) -> None:
        """Begin an orderly close."""
        if sock.waiting:
            waiting = self._waiting_sockets.get(sock.port)
            if waiting and sock in waiting:
                waiting.remove(sock)
            sock.waiting = False
        if sock.conn is not None:
            sock.conn.close()

    def sock_abort(self, sock: DyncSocket) -> None:
        if sock.conn is not None:
            sock.conn.abort()

    # -- wait helpers (the sock_wait_* macros) ---------------------------------
    def sock_wait_established(self, sock: DyncSocket, timeout: float = 0.0):
        """Generator: tick until established.  timeout 0 means forever.

        Returns the final status (1 established, 0 closed, -1 timeout),
        standing in for the C macro's goto-error behaviour.
        """
        deadline = None if timeout == 0 else self.host.sim.now + timeout
        while True:
            status = self.tcp_tick(sock)
            if self.sock_established(sock):
                return 1
            if status == 0:
                return 0
            if deadline is not None and self.host.sim.now >= deadline:
                return -1
            yield 0.001

    def sock_wait_input(self, sock: DyncSocket, timeout: float = 0.0):
        """Generator: tick until input is ready (or EOF/timeout)."""
        deadline = None if timeout == 0 else self.host.sim.now + timeout
        while True:
            status = self.tcp_tick(sock)
            if self.sock_bytesready(sock) >= 0:
                return 1
            if sock.conn is not None and sock.conn.at_eof:
                return 0
            if status == 0:
                return 0
            if deadline is not None and self.host.sim.now >= deadline:
                return -1
            yield 0.001


def make_socket(stack: DyncTcpStack) -> DyncSocket:
    """Allocate a ``tcp_Socket`` (in C: a static struct)."""
    return DyncSocket(stack)


# -- costatement waits on one socket -------------------------------------------

def sock_dead(sock: DyncSocket) -> str | None:
    """Why ``sock``'s connection can never deliver another byte: "eof"
    (the peer's FIN with every byte read) or "closed"; None while it
    can, or while no connection is attached."""
    conn = sock.conn
    if conn is None:
        return None
    if conn.at_eof:
        return "eof"
    if conn.state is TcpState.CLOSED:
        return "closed"
    return None


def sock_idle(sock: DyncSocket, deadline: float | None = None):
    """The idle token of a pass that waits on ``sock``: it names the
    socket and its connection, so the big loop resumes the wait only
    once either has changed or ``deadline`` has come.  Everything such
    a wait reads -- the attached connection, its state, its receive
    buffer and FIN, the socket's line buffer (filled only from that
    receive buffer) -- bumps one of the two counters when it changes."""
    conn = sock.conn
    waits = (sock,) if conn is None else (sock, conn)
    return idle_on(waits, sock.stack.host.sim, deadline)


def sock_wait(sock: DyncSocket, ready, deadline: float | None = None):
    """Generator: ``waitfor(ready())`` on one socket, as a costatement.

    Returns None as soon as ``ready()`` is true (it may consume bytes
    as it tests), or why it never will be: :func:`sock_dead`'s "eof" or
    "closed", or "timeout" once ``sim.now`` reaches ``deadline``.  In
    between, each pass yields :func:`sock_idle`, so ``ready`` must read
    nothing but ``sock`` and the caller's own state.
    """
    sim = sock.stack.host.sim
    while not ready():
        why = sock_dead(sock)
        if why is not None:
            return why
        if deadline is not None and sim.now >= deadline:
            return "timeout"
        yield sock_idle(sock, deadline)
    return None
