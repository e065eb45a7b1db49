"""Transport adapters: issl over BSD sockets or the Dynamic C API.

issl "layers on top of the Unix sockets layer": bind it to an existing
socket and do secure reads/writes.  The same library must run over both
socket APIs, so the session code talks to this 3-method interface:

* ``send(data)``     -- queue bytes, never blocks,
* ``recv_exactly(n)``-- generator, completes with exactly n bytes or
                        raises :class:`TransportError` on EOF,
* ``close()``        -- begin teardown.

``DyncTransport`` waits through :func:`repro.net.dynctcp.sock_wait`, so
it composes with costatements (each poll is one pass of the big loop, and
a poll whose socket has not changed is skipped); ``BsdTransport`` parks
on TCP events like any Unix process.
"""

from __future__ import annotations

from repro.net.bsd import BsdSocket, SocketError
from repro.net.dynctcp import DyncSocket, DyncTcpStack, sock_wait
from repro.net.tcp import TcpError


class TransportError(ConnectionError):
    """Raised on EOF mid-message or I/O on a dead connection."""


class TransportTimeout(TransportError):
    """A bounded read expired with the connection still alive.

    Distinct from plain :class:`TransportError` so the session layer can
    retry a silent peer (timeout) without retrying a dead one (EOF).
    """


class BsdTransport:
    """issl over a connected :class:`~repro.net.bsd.BsdSocket`."""

    def __init__(self, sock: BsdSocket):
        self._sock = sock
        self._buffer = b""

    def send(self, data: bytes) -> None:
        try:
            self._sock._require_conn().send(data)
        except (SocketError, TcpError) as exc:
            # A reset peer leaves the connection CLOSED: a dead one.
            raise TransportError(str(exc)) from exc

    def set_trace_context(self, ctx) -> None:
        self._sock._require_conn().set_trace_context(ctx)

    @property
    def rx_trace_ctx(self):
        conn = self._sock._conn
        return None if conn is None else conn.rx_trace_ctx

    def recv_exactly(self, nbytes: int, timeout: float | None = None):
        # Buffer partial reads across calls: a timed-out read must not
        # lose the bytes that did arrive, or a handshake retry would
        # desynchronize the record stream.
        while len(self._buffer) < nbytes:
            try:
                chunk = yield from self._sock.recv(
                    nbytes - len(self._buffer), timeout
                )
            except SocketError as exc:
                if "timed out" in str(exc):
                    raise TransportTimeout(str(exc)) from exc
                raise TransportError(str(exc)) from exc
            if not chunk:
                raise TransportError(
                    f"EOF after {len(self._buffer)} of {nbytes} bytes"
                )
            self._buffer += chunk
        data, self._buffer = self._buffer[:nbytes], self._buffer[nbytes:]
        return data

    def close(self) -> None:
        self._sock.close()

    @property
    def at_eof(self) -> bool:
        if self._buffer:
            return False
        conn = self._sock._conn
        return conn is None or conn.at_eof


class DyncTransport:
    """issl over a Dynamic C socket; poll-based, costate-friendly."""

    def __init__(self, stack: DyncTcpStack, sock: DyncSocket):
        self._stack = stack
        self._sock = sock
        self._buffer = b""

    def send(self, data: bytes) -> None:
        written = self._stack.sock_write(self._sock, data)
        if written < 0:
            raise TransportError("sock_write on closed socket")

    def set_trace_context(self, ctx) -> None:
        conn = self._sock.conn
        if conn is not None:
            conn.set_trace_context(ctx)

    @property
    def rx_trace_ctx(self):
        conn = self._sock.conn
        return None if conn is None else conn.rx_trace_ctx

    def recv_exactly(self, nbytes: int, timeout: float | None = None):
        deadline = (None if timeout is None
                    else self._stack.host.sim.now + timeout)

        def filled():
            while len(self._buffer) < nbytes:
                chunk = self._stack.sock_read(self._sock,
                                              nbytes - len(self._buffer))
                if not chunk:
                    return False
                self._buffer += chunk
            return True

        why = yield from sock_wait(self._sock, filled, deadline)
        if why == "eof":
            raise TransportError(
                f"EOF after {len(self._buffer)} of {nbytes} bytes"
            )
        if why == "closed":
            raise TransportError("connection closed")
        if why == "timeout":
            raise TransportTimeout("recv timed out")
        data, self._buffer = self._buffer[:nbytes], self._buffer[nbytes:]
        return data

    def close(self) -> None:
        self._stack.sock_close(self._sock)

    @property
    def at_eof(self) -> bool:
        conn = self._sock.conn
        return conn is None or (conn.at_eof and not self._buffer)
