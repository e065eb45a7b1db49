"""Load clients for the redirector services: secure and plain.

Each client records per-request timings into a shared results list so
the benchmarks (E4 throughput, E5 concurrency) can compute throughput
and queueing delay.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.issl.api import issl_bind
from repro.issl.session import IsslContext, IsslError
from repro.net.bsd import SocketError, socket
from repro.net.host import Host
from repro.obs.trace import CAT_APP, NEW_TRACE, context_of


@dataclass
class ClientReport:
    """What one client run measured."""

    name: str
    connect_time: float = 0.0
    handshake_time: float = 0.0
    request_times: list[float] = field(default_factory=list)
    bytes_sent: int = 0
    bytes_received: int = 0
    start: float = 0.0
    end: float = 0.0
    error: str | None = None

    @property
    def throughput_bps(self) -> float:
        duration = self.end - self.start
        if duration <= 0:
            return 0.0
        return 8.0 * (self.bytes_sent + self.bytes_received) / duration


def secure_request_client(host: Host, context: IsslContext, server_ip: str,
                          port: int, requests: int, request_size: int,
                          report: ClientReport):
    """Generator: issl handshake, then ``requests`` request/response pairs."""
    sim = host.sim
    report.start = sim.now
    try:
        sock = socket(host)
        t0 = sim.now
        yield from sock.connect((server_ip, port))
        report.connect_time = sim.now - t0
        session = issl_bind(context, sock, role="client")
        t0 = sim.now
        yield from session.handshake()
        report.handshake_time = sim.now - t0
        payload = _make_payload(request_size)
        tracer = sim.obs.tracer
        tid = f"client:{report.name}"
        for index in range(requests):
            t0 = sim.now
            # Each request mints a fresh trace; the context rides the
            # wire so the redirector and backend spans join this tree.
            span = tracer.begin("client.request", cat=CAT_APP, tid=tid,
                                trace=NEW_TRACE, seq=index)
            session.set_trace_context(context_of(span))
            yield from session.write(payload + b"\n")
            report.bytes_sent += len(payload) + 1
            response = yield from _read_secure_line(session)
            if response is None:
                report.error = f"EOF at request {index}"
                tracer.end(span, error="eof")
                break
            report.bytes_received += len(response) + 1
            report.request_times.append(sim.now - t0)
            tracer.end(span)
        yield from session.close()
    except (SocketError, IsslError) as exc:
        report.error = str(exc)
    report.end = sim.now
    return report


def plain_request_client(host: Host, server_ip: str, port: int,
                         requests: int, request_size: int,
                         report: ClientReport):
    """Generator: the same workload without TLS."""
    sim = host.sim
    report.start = sim.now
    try:
        sock = socket(host)
        t0 = sim.now
        yield from sock.connect((server_ip, port))
        report.connect_time = sim.now - t0
        payload = _make_payload(request_size)
        tracer = sim.obs.tracer
        tid = f"client:{report.name}"
        for index in range(requests):
            t0 = sim.now
            span = tracer.begin("client.request", cat=CAT_APP, tid=tid,
                                trace=NEW_TRACE, seq=index)
            sock.set_trace_context(context_of(span))
            yield from sock.sendall(payload + b"\n")
            report.bytes_sent += len(payload) + 1
            response = yield from _read_plain_line(sock)
            if response is None:
                report.error = f"EOF at request {index}"
                tracer.end(span, error="eof")
                break
            report.bytes_received += len(response) + 1
            report.request_times.append(sim.now - t0)
            tracer.end(span)
        sock.close()
    except SocketError as exc:
        report.error = str(exc)
    report.end = sim.now
    return report


def delayed(start_s: float, gen):
    """Generator: sleep ``start_s`` of simulated time, then run ``gen``."""
    if start_s > 0:
        yield start_s
    return (yield from gen)


def _make_payload(size: int) -> bytes:
    if size <= 0:
        return b"x"
    alphabet = b"abcdefghijklmnopqrstuvwxyz"
    return bytes(alphabet[i % len(alphabet)] for i in range(size))


def _read_secure_line(session):
    buffer = b""
    while b"\n" not in buffer:
        chunk = yield from session.read()
        if not chunk:
            return None
        buffer += chunk
    return buffer.split(b"\n", 1)[0]


def _read_plain_line(sock):
    buffer = b""
    while b"\n" not in buffer:
        chunk = yield from sock.recv(4096)
        if not chunk:
            return None
        buffer += chunk
    return buffer.split(b"\n", 1)[0]
