"""BSD sockets facade (Figure 2a of the paper).

This is the API the original Unix issl service was written against:
``socket / bind / listen / accept / connect / send / recv / close`` plus
the ``AF_INET`` / ``SOCK_STREAM`` constants and ``INADDR_ANY``.  Blocking
calls are generators: a simulated process writes

    conn = yield from sock.accept()
    data = yield from conn.recv(512)

which is the direct analogue of the blocking C calls in the paper's
listing.  Compare :mod:`repro.net.dynctcp` for what the port had to use
instead.
"""

from __future__ import annotations

from repro.net.addresses import Ipv4Address, INADDR_ANY
from repro.net.host import Host
from repro.net.tcp import TcpConnection, TcpError, TcpListener, TcpState

AF_INET = 2
SOCK_STREAM = 1

#: The paper's echo server uses LISTENQ for the backlog.
LISTENQ = 5


class SocketError(OSError):
    """Raised where the C API would return -1 and set errno."""


class BsdSocket:
    """A stream socket bound to one simulated host."""

    def __init__(self, host: Host, family: int = AF_INET,
                 sock_type: int = SOCK_STREAM):
        if family != AF_INET:
            raise SocketError(f"unsupported family {family}")
        if sock_type != SOCK_STREAM:
            raise SocketError(f"unsupported type {sock_type} (stream only)")
        self._host = host
        self._bound_port = 0
        self._listener: TcpListener | None = None
        self._conn: TcpConnection | None = None
        self.closed = False

    # -- address helpers ---------------------------------------------------
    @property
    def local_port(self) -> int:
        if self._conn is not None:
            return self._conn.local_port
        return self._bound_port

    # -- server side -------------------------------------------------------
    def bind(self, address: tuple[Ipv4Address | str, int]) -> None:
        ip_part, port = address
        if isinstance(ip_part, str):
            ip_part = Ipv4Address.parse(ip_part) if ip_part else INADDR_ANY
        if ip_part not in (INADDR_ANY, self._host.ip_address):
            raise SocketError(f"cannot bind {self._host.name} to {ip_part}")
        self._bound_port = port

    def listen(self, backlog: int = LISTENQ) -> None:
        if self._bound_port == 0:
            raise SocketError("listen before bind")
        try:
            self._listener = self._host.tcp.listen(self._bound_port, backlog)
        except TcpError as exc:
            raise SocketError(str(exc)) from exc

    def accept(self, timeout: float | None = None):
        """Generator: block until a connection is established.

        Returns a new connected :class:`BsdSocket`, or raises
        :class:`SocketError` on timeout/close.
        """
        if self._listener is None:
            raise SocketError("accept before listen")
        sim = self._host.sim
        deadline = None if timeout is None else sim.now + timeout
        if deadline is not None:
            # Ensure a wake-up at the deadline even on a silent network.
            sim.call_at(deadline, self._listener.accept_event.trigger, None)
        while True:
            conn = self._listener.pop()
            if conn is not None:
                accepted = BsdSocket(self._host)
                accepted._conn = conn
                return accepted
            if self.closed:
                raise SocketError("socket closed during accept")
            if deadline is not None and sim.now >= deadline:
                raise SocketError("accept timed out")
            yield self._listener.accept_event

    # -- client side -------------------------------------------------------
    def connect(self, address: tuple[Ipv4Address | str, int],
                timeout: float = 10.0):
        """Generator: active open; raises on refusal or timeout."""
        ip_part, port = address
        if isinstance(ip_part, str):
            ip_part = Ipv4Address.parse(ip_part)
        self._conn = self._host.tcp.connect(ip_part, port)
        sim = self._host.sim
        deadline = sim.now + timeout
        sim.call_at(deadline, self._conn.update_event.trigger, None)
        while self._conn.state not in (TcpState.ESTABLISHED, TcpState.CLOSED):
            if sim.now >= deadline:
                self._conn.abort()
                raise SocketError("connect timed out")
            yield self._conn.update_event
        if self._conn.state == TcpState.CLOSED:
            raise SocketError(self._conn.error or "connection refused")
        return self

    # -- data transfer -----------------------------------------------------
    def send(self, data: bytes):
        """Generator: queue all of ``data``; returns len(data)."""
        conn = self._require_conn()
        try:
            conn.send(data)
        except TcpError as exc:
            raise SocketError(str(exc)) from exc
        return len(data)
        yield  # pragma: no cover -- makes this a generator like the rest

    def sendall(self, data: bytes):
        """Generator: send and wait until the peer has ACKed everything."""
        conn = self._require_conn()
        try:
            conn.send(data)
        except TcpError as exc:
            raise SocketError(str(exc)) from exc
        while conn.send_queue_length and conn.is_open:
            yield conn.update_event
        return len(data)

    def set_trace_context(self, ctx) -> None:
        """Attach a trace context to subsequent outbound data."""
        self._require_conn().set_trace_context(ctx)

    @property
    def rx_trace_ctx(self):
        """Trace context delivered with the latest inbound data."""
        conn = self._conn
        return None if conn is None else conn.rx_trace_ctx

    def recv(self, max_bytes: int, timeout: float | None = None):
        """Generator: block until data, EOF (returns b"") or timeout."""
        conn = self._require_conn()
        sim = self._host.sim
        deadline = None if timeout is None else sim.now + timeout
        if deadline is not None:
            sim.call_at(deadline, conn.update_event.trigger, None)
        while True:
            data = conn.recv(max_bytes)
            if data:
                return data
            if conn.at_eof or conn.state == TcpState.CLOSED:
                return b""
            if deadline is not None and sim.now >= deadline:
                raise SocketError("recv timed out")
            yield conn.update_event

    # -- teardown ------------------------------------------------------------
    def close(self) -> None:
        if self.closed:
            return
        self.closed = True
        if self._listener is not None:
            self._listener.close()
        if self._conn is not None:
            self._conn.close()

    def _require_conn(self) -> TcpConnection:
        if self._conn is None:
            raise SocketError("socket not connected")
        return self._conn

    def __repr__(self) -> str:
        if self._conn is not None:
            return f"BsdSocket(connected {self._conn!r})"
        if self._listener is not None:
            return f"BsdSocket(listening :{self._bound_port})"
        return "BsdSocket(unbound)"


def socket(host: Host, family: int = AF_INET,
           sock_type: int = SOCK_STREAM) -> BsdSocket:
    """The C ``socket()`` call, parameterized by simulated host."""
    return BsdSocket(host, family, sock_type)


def select(read_sockets: list[BsdSocket], timeout: float | None = None):
    """Generator: the readiness multiplexer the Unix issl used.

    Blocks until at least one socket in ``read_sockets`` is readable --
    data buffered, EOF pending, or (for listening sockets) a connection
    ready to accept -- or the timeout passes.  Returns the readable
    subset (empty list on timeout), mirroring ``select(2)``'s read-set
    behaviour.  The Dynamic C port has no analogue: it polls each
    socket per big-loop pass (see ``repro.porting.api_map``).
    """
    if not read_sockets:
        raise SocketError("select on an empty read set")
    sim = read_sockets[0]._host.sim
    deadline = None if timeout is None else sim.now + timeout

    def _readable(sock: BsdSocket) -> bool:
        if sock._listener is not None:
            return sock._listener.pending() > 0
        conn = sock._conn
        if conn is None:
            return False
        return (conn.receive_available() > 0 or conn.at_eof
                or conn.state == TcpState.CLOSED)

    events = []
    for sock in read_sockets:
        if sock._listener is not None:
            events.append(sock._listener.accept_event)
        elif sock._conn is not None:
            events.append(sock._conn.update_event)
    if deadline is not None and events:
        sim.call_at(deadline, events[0].trigger, None)
    while True:
        ready = [sock for sock in read_sockets if _readable(sock)]
        if ready:
            return ready
        if deadline is not None and sim.now >= deadline:
            return []
        if len(events) == 1:
            # Single socket: park on its event (zero busy-waiting).
            yield events[0]
        else:
            # Multiple sockets: a process can only park on one event,
            # so poll at fine granularity across the set.
            yield 0.0005
