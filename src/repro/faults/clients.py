"""Misbehaving peers: the client side of transport-fault scenarios.

Each is a generator to spawn on a client host's simulator process.
They terminate on their own (bounded sleeps), so scenarios can
``run_until_complete`` them; what they leave behind on the server --
a half-open handshake, a stalled established session, a corrupted
record stream -- is the fault under test.
"""

from __future__ import annotations

from repro.issl.api import issl_bind
from repro.issl.handshake import ClientHello, RANDOM_LEN
from repro.issl.record import CT_HANDSHAKE, encode_record
from repro.issl.session import IsslContext, IsslError
from repro.net.bsd import SocketError, socket
from repro.net.host import Host
from repro.services.client import ClientReport, _read_secure_line


def silent_client(host: Host, server_ip: str, port: int,
                  hold_s: float, report: ClientReport):
    """Connect, then say nothing for ``hold_s``: a silent peer.

    The server's handshake read sees no bytes at all -- the case its
    timeout/retry/backoff exists for.
    """
    sim = host.sim
    report.start = sim.now
    try:
        sock = socket(host)
        yield from sock.connect((server_ip, port))
        yield hold_s
        sock.close()
    except SocketError as exc:
        report.error = str(exc)
    report.end = sim.now
    return report


def half_handshake_client(host: Host, context: IsslContext, server_ip: str,
                          port: int, report: ClientReport,
                          teardown: str = "rst"):
    """Send a valid ClientHello, then vanish mid-handshake 0.2 s later.

    ``teardown`` is ``"rst"`` (abort: the peer sees a reset) or
    ``"fin"`` (close: the peer sees EOF).  Either way the server is
    waiting on ClientKeyExchange when the connection dies.
    """
    sim = host.sim
    report.start = sim.now
    try:
        sock = socket(host)
        yield from sock.connect((server_ip, port))
        hello = ClientHello(
            context.rng.next_bytes(RANDOM_LEN), context.profile.suites
        )
        yield from sock.sendall(encode_record(CT_HANDSHAKE, hello.encode()))
        yield 0.2
        if teardown == "rst":
            sock._conn.abort()
        else:
            sock.close()
    except SocketError as exc:
        report.error = str(exc)
    report.error = report.error or f"abandoned handshake ({teardown})"
    report.end = sim.now
    return report


def stalling_client(host: Host, context: IsslContext, server_ip: str,
                    port: int, report: ClientReport,
                    stall_s: float = 30.0):
    """Handshake, one good request, then a partial line (``par``) and
    silence.

    The server has parsed no complete request when the stall begins, so
    only a per-connection deadline can free its handler.
    """
    sim = host.sim
    try:
        sock = socket(host)
        report.start = sim.now
        yield from sock.connect((server_ip, port))
        session = issl_bind(context, sock, role="client")
        yield from session.handshake()
        yield from session.write(b"hello\n")
        response = yield from _read_secure_line(session)
        if response is not None:
            report.request_times.append(sim.now - report.start)
        yield from session.write(b"par")
        yield stall_s
        # By now the server aborted us; close out whatever is left.
        sock.close()
    except (SocketError, IsslError) as exc:
        report.error = str(exc)
    report.end = sim.now
    return report


def bitflip_client(host: Host, context: IsslContext, server_ip: str,
                   port: int, record_index: int, report: ClientReport):
    """A well-meaning client whose *inbound* record ``record_index`` is
    corrupted in transit (via :class:`~repro.faults.injectors.
    CorruptingTransport`), so its own MAC check must fail closed."""
    from repro.faults.injectors import CorruptingTransport

    sim = host.sim
    report.start = sim.now
    try:
        sock = socket(host)
        yield from sock.connect((server_ip, port))
        session = issl_bind(context, sock, role="client")
        session.transport = CorruptingTransport(
            session.transport, record_index, obs=sim.obs
        )
        yield from session.handshake()
        yield from session.write(b"hello\n")
        response = yield from _read_secure_line(session)
        if response is None:
            report.error = "EOF before response"
        else:
            report.request_times.append(sim.now - report.start)
            yield from session.close()
    except (SocketError, IsslError) as exc:
        report.error = str(exc)
    report.end = sim.now
    return report
