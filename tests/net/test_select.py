"""select() on the BSD facade: the readiness call the Unix issl used."""

import pytest

from repro.net.bsd import LISTENQ, select, socket, SocketError
from repro.net.host import build_lan
from repro.net.sim import Simulator


@pytest.fixture()
def world():
    sim = Simulator()
    _lan, hosts = build_lan(sim, ["server", "c1", "c2"])
    return sim, hosts


def test_select_on_listening_socket(world):
    sim, hosts = world
    out = {}

    def server():
        lsock = socket(hosts["server"])
        lsock.bind(("", 80))
        lsock.listen(LISTENQ)
        ready = yield from select([lsock], timeout=5.0)
        out["ready"] = ready
        conn = yield from lsock.accept()
        out["accepted"] = conn.local_port == 80

    def client():
        csock = socket(hosts["c1"])
        yield from csock.connect(("10.0.0.1", 80))
        yield 0.5

    hosts["server"].spawn(server())
    process = hosts["c1"].spawn(client())
    sim.run_until_complete(process, timeout=60)
    assert out["ready"]
    assert out["accepted"]


def test_select_timeout_returns_empty(world):
    sim, hosts = world
    out = {}

    def server():
        lsock = socket(hosts["server"])
        lsock.bind(("", 80))
        lsock.listen()
        out["ready"] = yield from select([lsock], timeout=0.2)

    process = hosts["server"].spawn(server())
    sim.run_until_complete(process, timeout=60)
    assert out["ready"] == []


def test_select_multiplexes_two_connections(world):
    sim, hosts = world
    out = {"served": []}

    def server():
        lsock = socket(hosts["server"])
        lsock.bind(("", 80))
        lsock.listen()
        first = yield from lsock.accept()
        second = yield from lsock.accept()
        connections = [first, second]
        while len(out["served"]) < 2:
            ready = yield from select(connections, timeout=10.0)
            if not ready:
                break
            for conn in ready:
                data = yield from conn.recv(64)
                if data:
                    out["served"].append(data)
                    connections.remove(conn)

    def client(host, delay, payload):
        csock = socket(host)
        yield from csock.connect(("10.0.0.1", 80))
        yield delay
        yield from csock.sendall(payload)
        yield 0.5

    hosts["server"].spawn(server())
    hosts["c1"].spawn(client(hosts["c1"], 0.30, b"slow"))
    process = hosts["c2"].spawn(client(hosts["c2"], 0.05, b"fast"))
    sim.run_until_complete(process, timeout=120)
    sim.run(until=sim.now + 2.0)
    # The faster sender must be served first: that is the multiplexing.
    assert out["served"] == [b"fast", b"slow"]


def test_select_reports_eof_as_readable(world):
    sim, hosts = world
    out = {}

    def server():
        lsock = socket(hosts["server"])
        lsock.bind(("", 80))
        lsock.listen()
        conn = yield from lsock.accept()
        ready = yield from select([conn], timeout=5.0)
        out["ready"] = bool(ready)
        out["data"] = yield from conn.recv(64)

    def client():
        csock = socket(hosts["c1"])
        yield from csock.connect(("10.0.0.1", 80))
        csock.close()
        yield 0.5

    hosts["server"].spawn(server())
    process = hosts["c1"].spawn(client())
    sim.run_until_complete(process, timeout=60)
    sim.run(until=sim.now + 2.0)
    assert out["ready"]
    assert out["data"] == b""


def test_select_empty_set_rejected(world):
    sim, hosts = world
    with pytest.raises(SocketError):
        next(select([]))
