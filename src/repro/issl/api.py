"""The issl public API, shaped like the library the paper describes.

"After a normal unencrypted socket is created, the issl API allows a
user to bind to the socket and then do secure read/writes on it."

    sock = bsd.socket(host)
    ... connect/accept ...
    secure = issl_bind(context, sock)          # wrap the socket
    yield from issl_accept(secure)             # or issl_connect(secure)
    yield from issl_write(secure, b"data")
    data = yield from issl_read(secure)
    yield from issl_close(secure)

``issl_bind`` accepts either a connected BSD socket or a
``(DyncTcpStack, DyncSocket)`` pair, choosing the right transport
adapter -- the porting seam the paper spent Section 5 on.
"""

from __future__ import annotations

from repro.issl.config import CipherSuite
from repro.issl.session import IsslContext, IsslError, IsslSession
from repro.issl.transport import BsdTransport, DyncTransport
from repro.net.bsd import BsdSocket
from repro.net.dynctcp import DyncSocket, DyncTcpStack


def issl_bind(context: IsslContext, sock, stack: DyncTcpStack | None = None,
              role: str = "server") -> IsslSession:
    """Attach issl to an already-connected socket; returns the session."""
    if isinstance(sock, BsdSocket):
        transport = BsdTransport(sock)
    elif isinstance(sock, DyncSocket):
        if stack is None:
            raise IsslError("binding a Dynamic C socket requires its stack")
        transport = DyncTransport(stack, sock)
    else:
        raise IsslError(f"cannot bind issl to {type(sock).__name__}")
    return IsslSession(context, transport, role)


def issl_accept(session: IsslSession):
    """Generator: run the server side of the handshake."""
    if session.role != "server":
        raise IsslError("issl_accept on a client session")
    yield from session.handshake()
    return session


def issl_connect(session: IsslSession,
                 suites: tuple[CipherSuite, ...] | None = None):
    """Generator: run the client side of the handshake."""
    if session.role != "client":
        raise IsslError("issl_connect on a server session")
    yield from session.handshake(suites)
    return session


def issl_read(session: IsslSession):
    """Generator: one record of plaintext; b"" on orderly close."""
    data = yield from session.read()
    return data


def issl_write(session: IsslSession, data: bytes):
    """Generator: send ``data`` securely; returns bytes written."""
    count = yield from session.write(data)
    return count


def issl_close(session: IsslSession):
    """Generator: orderly shutdown (close_notify)."""
    yield from session.close()
