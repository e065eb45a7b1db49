"""A connection that dies before the redirector sees it established is
dropped, logged and counted once, on both wirings, and the next client
is still served.

The client's handshake ACK is held on the wire and released together
with the client's hang-up -- a FIN (``close``) or an RST (``abort``) --
so the server stack completes the handshake and reads the hang-up in one
``tcp_tick`` drain: the socket it hands the redirector is already at EOF
or CLOSED."""

import pytest

from repro.crypto.demokeys import DEMO_PSK
from repro.crypto.prng import CipherRng
from repro.issl import FREE, IsslContext, UNIX_FULL
from repro.net.packet import ETHERTYPE_IP, TCP_ACK, TCP_FIN, TCP_RST
from repro.net.tcp import TcpState
from repro.obs import Obs
from repro.services import (
    ClientReport,
    TLS_PORT,
    build_redirector_world,
    secure_request_client,
)

_DIED = "connection died before established"


def _hold_handshake_ack(world, host):
    """Frame hook: hold ``host``'s first bare ACK until its FIN or RST,
    then deliver both back to back.  Returns the list the held frame sits
    in."""
    held = []

    def hook(frame, index, extra_delay):
        if frame.src != host.interface.mac or frame.ethertype != ETHERTYPE_IP:
            return [(frame, extra_delay)]
        segment = frame.payload.payload
        if segment.flags == TCP_ACK and not segment.payload and not held:
            held.append(frame)
            return []
        if segment.flags & (TCP_FIN | TCP_RST) and held:
            return [(held.pop(), extra_delay), (frame, extra_delay)]
        return [(frame, extra_delay)]

    world.lan.add_frame_hook(hook)
    return held


def _recovered(world):
    return dict(world.obs.metrics.snapshot()["counters"]).get(
        "redirector.recovered", 0)


def _client(world, name):
    """Spawn a client that makes two requests; returns its report and
    process."""
    host = world.hosts[name]
    report = ClientReport(name)
    context = IsslContext(UNIX_FULL, CipherRng(name.encode()), psk=DEMO_PSK)
    process = host.spawn(secure_request_client(
        host, context, str(world.hosts["rmc"].ip_address), TLS_PORT, 2, 16,
        report))
    return report, process


@pytest.mark.parametrize("hangup", ["close", "abort"])
@pytest.mark.parametrize("pooled, tid", [(False, "svc:handler1"),
                                         (True, "svc:admission")])
def test_dead_embryonic_connection_is_dropped_and_counted(pooled, tid,
                                                          hangup):
    world = build_redirector_world(
        b"embryo", clients=2, obs=Obs(), cost_model=FREE,
        logger_capacity=16, pooled=pooled)
    sim = world.sim
    dying = world.hosts["c1"]
    held = _hold_handshake_ack(world, dying)
    sim.run(until=0.01)
    assert _recovered(world) == 0

    conn = dying.tcp.connect(world.hosts["rmc"].ip_address, TLS_PORT)
    while not held:
        sim.run(until=sim.now + 1e-4)
    assert conn.state == TcpState.ESTABLISHED
    getattr(conn, hangup)()
    sim.run(until=sim.now + 0.1)

    label = tid.removeprefix("svc:")
    assert world.logger.tail(1) == [f"redirector: {label}: {_DIED}"]
    events = [(e["sev"], e["cat"], e["tid"])
              for e in world.obs.recorder.dump() if e["msg"] == _DIED]
    assert events == [("WARN", "service", tid)]
    assert _recovered(world) == 1

    # The drop leaves the redirector serving: the next client gets both
    # of its requests through, and nothing else counts as a recovery.
    report, process = _client(world, "c0")
    sim.run_until_complete(process, timeout=600)
    assert report.error is None
    assert world.stats["redirected"] == 2
    assert _recovered(world) == 1


def test_recycled_socket_still_closing_is_not_an_embryonic_death():
    # One slot: the socket that served c0 goes back on the free list and
    # is the acceptor's next socket as soon as c1 is handed off.  c0's
    # ACKs after its FIN are held back, so that socket is still in
    # LAST_ACK or CLOSING, with the peer at EOF, when admission takes it.
    world = build_redirector_world(
        b"recycle", clients=2, obs=Obs(), cost_model=FREE,
        logger_capacity=16, pooled=True, handlers=1)
    sim, stack = world.sim, world.stack
    c0 = world.hosts["c0"]
    fin_sent = []

    def hold_final_acks(frame, index, extra_delay):
        if frame.src == c0.interface.mac and frame.ethertype == ETHERTYPE_IP:
            segment = frame.payload.payload
            if segment.flags & TCP_FIN:
                fin_sent.append(sim.now)
            elif fin_sent and segment.flags == TCP_ACK \
                    and not segment.payload:
                return [(frame, extra_delay + 0.5)]
        return [(frame, extra_delay)]

    world.lan.add_frame_hook(hold_final_acks)
    # Only admission aborts a socket whose connection is still closing:
    # every serving path ends in sock_close.
    reclaimed = []
    abort = stack.sock_abort

    def spy_abort(sock):
        if sock.conn is not None and sock.conn.at_eof:
            reclaimed.append(sock.conn.state)
        abort(sock)

    stack.sock_abort = spy_abort

    report0, process = _client(world, "c0")
    sim.run_until_complete(process, timeout=600)
    report1, process = _client(world, "c1")
    sim.run_until_complete(process, timeout=600)

    assert report0.error is None and report1.error is None
    assert world.stats["redirected"] == 4
    # The case under test happened: admission reclaimed a recycled
    # socket whose connection was still tearing down after the peer's FIN.
    assert reclaimed
    assert set(reclaimed) <= {TcpState.LAST_ACK, TcpState.CLOSING}
    # ... and did not read it as a connection that died in the queue.
    assert not any(_DIED in line for line in world.logger.tail(16))
    assert not [e for e in world.obs.recorder.dump() if e["msg"] == _DIED]
    counters = dict(world.obs.metrics.snapshot()["counters"])
    assert counters.get("redirector.refused.slots", 0) == 0
    assert _recovered(world) == 0
