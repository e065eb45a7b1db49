"""A connection that dies before the redirector sees it established is
dropped, logged and counted once, on both wirings, and the next client
is still served.

The client's handshake ACK is held on the wire and released together
with the client's FIN, so the server stack completes the handshake and
reads the hang-up in one ``tcp_tick`` drain: the socket it hands the
redirector is already at EOF."""

import pytest

from repro.crypto.demokeys import DEMO_PSK
from repro.crypto.prng import CipherRng
from repro.issl import FREE, IsslContext, UNIX_FULL
from repro.net.packet import ETHERTYPE_IP, TCP_ACK, TCP_FIN
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
    """Frame hook: hold ``host``'s first bare ACK until its FIN, then
    deliver both back to back.  Returns the list the held frame sits in."""
    held = []

    def hook(frame, index, extra_delay):
        if frame.src != host.interface.mac or frame.ethertype != ETHERTYPE_IP:
            return [(frame, extra_delay)]
        segment = frame.payload.payload
        if segment.flags == TCP_ACK and not segment.payload and not held:
            held.append(frame)
            return []
        if segment.flags & TCP_FIN and held:
            return [(held.pop(), extra_delay), (frame, extra_delay)]
        return [(frame, extra_delay)]

    world.lan.add_frame_hook(hook)
    return held


def _recovered(world):
    return dict(world.obs.metrics.snapshot()["counters"]).get(
        "redirector.recovered", 0)


@pytest.mark.parametrize("pooled, tid", [(False, "svc:handler1"),
                                         (True, "svc:admission")])
def test_dead_embryonic_connection_is_dropped_and_counted(pooled, tid):
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
    conn.close()
    sim.run(until=sim.now + 0.1)

    label = tid.removeprefix("svc:")
    assert world.logger.tail(1) == [f"redirector: {label}: {_DIED}"]
    events = [(e["sev"], e["cat"], e["tid"])
              for e in world.obs.recorder.dump() if e["msg"] == _DIED]
    assert events == [("WARN", "service", tid)]
    assert _recovered(world) == 1

    # The drop leaves the redirector serving: the next client gets both
    # of its requests through, and nothing else counts as a recovery.
    host = world.hosts["c0"]
    report = ClientReport("c0")
    context = IsslContext(UNIX_FULL, CipherRng(b"c0"), psk=DEMO_PSK)
    process = host.spawn(secure_request_client(
        host, context, str(world.hosts["rmc"].ip_address), TLS_PORT, 2, 16,
        report))
    sim.run_until_complete(process, timeout=600)
    assert report.error is None
    assert world.stats["redirected"] == 2
    assert _recovered(world) == 1
