"""Socket facade tests: BSD (Figure 2a) and Dynamic C (Figure 2b)."""

import pytest

from repro.dync.runtime import CostateScheduler, waitfor
from repro.net.bsd import AF_INET, LISTENQ, SOCK_STREAM, SocketError, socket
from repro.net.dynctcp import (
    DyncTcpStack,
    TCP_MODE_ASCII,
    TCP_MODE_BINARY,
    make_socket,
)
from repro.net.host import build_lan
from repro.net.sim import Simulator


@pytest.fixture()
def world():
    sim = Simulator()
    segment, hosts = build_lan(sim, ["server", "client", "extra"])
    return sim, hosts


class TestBsdSockets:
    def test_echo_round_trip(self, world):
        sim, hosts = world
        out = {}

        def server():
            lsock = socket(hosts["server"])
            lsock.bind(("", 7))
            lsock.listen(LISTENQ)
            conn = yield from lsock.accept()
            data = yield from conn.recv(512)
            yield from conn.sendall(data)
            conn.close()
            lsock.close()

        def client():
            sock = socket(hosts["client"])
            yield from sock.connect(("10.0.0.1", 7))
            yield from sock.sendall(b"bsd bytes")
            out["echo"] = yield from sock.recv(512)
            sock.close()

        hosts["server"].spawn(server())
        process = hosts["client"].spawn(client())
        sim.run_until_complete(process, timeout=60)
        assert out["echo"] == b"bsd bytes"

    def test_unsupported_family(self, world):
        sim, hosts = world
        with pytest.raises(SocketError):
            socket(hosts["server"], family=99)
        with pytest.raises(SocketError):
            socket(hosts["server"], AF_INET, sock_type=99)

    def test_listen_before_bind(self, world):
        sim, hosts = world
        sock = socket(hosts["server"])
        with pytest.raises(SocketError):
            sock.listen()

    def test_accept_before_listen(self, world):
        sim, hosts = world
        sock = socket(hosts["server"])
        with pytest.raises(SocketError):
            next(sock.accept())

    def test_bind_wrong_address(self, world):
        sim, hosts = world
        sock = socket(hosts["server"])
        with pytest.raises(SocketError):
            sock.bind(("10.9.9.9", 80))

    def test_connect_refused(self, world):
        sim, hosts = world
        failed = {}

        def client():
            sock = socket(hosts["client"])
            try:
                yield from sock.connect(("10.0.0.1", 12345))
            except SocketError as exc:
                failed["error"] = str(exc)

        process = hosts["client"].spawn(client())
        sim.run_until_complete(process, timeout=60)
        assert "error" in failed

    def test_recv_eof_returns_empty(self, world):
        sim, hosts = world
        out = {}

        def server():
            lsock = socket(hosts["server"])
            lsock.bind(("", 9))
            lsock.listen()
            conn = yield from lsock.accept()
            conn.close()

        def client():
            sock = socket(hosts["client"])
            yield from sock.connect(("10.0.0.1", 9))
            out["data"] = yield from sock.recv(100)

        hosts["server"].spawn(server())
        process = hosts["client"].spawn(client())
        sim.run_until_complete(process, timeout=60)
        assert out["data"] == b""

    def test_recv_timeout(self, world):
        sim, hosts = world
        out = {}

        def server():
            lsock = socket(hosts["server"])
            lsock.bind(("", 9))
            lsock.listen()
            yield from lsock.accept()
            yield 100.0

        def client():
            sock = socket(hosts["client"])
            yield from sock.connect(("10.0.0.1", 9))
            try:
                yield from sock.recv(10, timeout=0.5)
            except SocketError as exc:
                out["error"] = str(exc)

        hosts["server"].spawn(server())
        process = hosts["client"].spawn(client())
        sim.run_until_complete(process, timeout=60)
        assert "timed out" in out["error"]


class TestDyncSockets:
    def test_requires_sock_init(self, world):
        sim, hosts = world
        stack = DyncTcpStack(hosts["server"])
        sock = make_socket(stack)
        assert stack.tcp_listen(sock, 7) == 0
        assert stack.sock_init() == 0
        assert stack.tcp_listen(sock, 7) == 1

    def test_nothing_happens_without_tick(self, world):
        sim, hosts = world
        stack = DyncTcpStack(hosts["server"])
        stack.sock_init()
        sock = make_socket(stack)
        stack.tcp_listen(sock, 7)

        failed = {}

        def client():
            csock = socket(hosts["client"])
            try:
                yield from csock.connect(("10.0.0.1", 7), timeout=0.4)
            except SocketError as exc:
                failed["error"] = str(exc)

        process = hosts["client"].spawn(client())
        sim.run(until=2.0)
        # No tcp_tick was ever called: the SYN sits in the rx queue and
        # the connection cannot establish.
        assert len(stack._rx_queue) >= 1
        assert stack.sock_established(sock) == 0
        assert "timed out" in failed["error"]
        assert not process.alive

    def test_ascii_line_io(self, world):
        sim, hosts = world
        stack = DyncTcpStack(hosts["server"])
        stack.sock_init()
        scheduler = CostateScheduler(sim)
        lines = []

        def serve():
            sock = make_socket(stack)
            stack.tcp_listen(sock, 23)
            yield from waitfor(lambda: stack.sock_established(sock))
            stack.sock_mode(sock, TCP_MODE_ASCII)
            while stack.tcp_tick(sock):
                line = stack.sock_gets(sock)
                if line is not None:
                    lines.append(line)
                    stack.sock_puts(sock, line[::-1])
                if len(lines) == 2:
                    stack.sock_close(sock)
                    return
                yield

        def tick():
            while True:
                stack.tcp_tick(None)
                yield

        scheduler.add(serve())
        scheduler.add(tick())
        scheduler.start()
        out = {}

        def client():
            csock = socket(hosts["client"])
            yield from csock.connect(("10.0.0.1", 23))
            yield from csock.sendall(b"first\r\nsecond\n")
            data = b""
            while data.count(b"\n") < 2:
                chunk = yield from csock.recv(100)
                if not chunk:
                    break
                data += chunk
            out["reply"] = data
            csock.close()

        process = hosts["client"].spawn(client())
        sim.run_until_complete(process, timeout=60)
        assert lines == [b"first", b"second"]
        assert out["reply"] == b"tsrif\ndnoces\n"

    def test_binary_mode_bytesready(self, world):
        sim, hosts = world
        stack = DyncTcpStack(hosts["server"])
        stack.sock_init()
        scheduler = CostateScheduler(sim)
        observed = {}

        def serve():
            sock = make_socket(stack)
            stack.tcp_listen(sock, 9)
            stack.sock_mode(sock, TCP_MODE_BINARY)
            yield from waitfor(lambda: stack.sock_established(sock))
            assert stack.sock_bytesready(sock) == -1
            yield from waitfor(lambda: stack.sock_bytesready(sock) >= 0)
            observed["ready"] = stack.sock_bytesready(sock)
            observed["data"] = stack.sock_read(sock, 100)
            stack.sock_close(sock)

        def tick():
            while True:
                stack.tcp_tick(None)
                yield

        scheduler.add(serve())
        scheduler.add(tick())
        scheduler.start()

        def client():
            csock = socket(hosts["client"])
            yield from csock.connect(("10.0.0.1", 9))
            yield from csock.sendall(b"\x00\x01\x02")
            yield 0.2

        process = hosts["client"].spawn(client())
        sim.run_until_complete(process, timeout=60)
        assert observed["ready"] == 3
        assert observed["data"] == b"\x00\x01\x02"

    def test_tcp_open_client_side(self, world):
        sim, hosts = world
        # RMC as the TCP client: connect out to a BSD server.
        stack = DyncTcpStack(hosts["server"])
        stack.sock_init()
        scheduler = CostateScheduler(sim)
        got = {}

        def bsd_server():
            lsock = socket(hosts["client"])
            lsock.bind(("", 2000))
            lsock.listen()
            conn = yield from lsock.accept()
            data = yield from conn.recv(100)
            got["server_got"] = data
            yield from conn.sendall(b"ok")
            conn.close()

        def rmc_client():
            sock = make_socket(stack)
            assert stack.tcp_open(sock, 0, hosts["client"].ip_address, 2000)
            yield from waitfor(lambda: stack.sock_established(sock))
            stack.sock_write(sock, b"from rmc")
            yield from waitfor(lambda: stack.sock_bytesready(sock) >= 0)
            got["reply"] = stack.sock_read(sock, 10)
            stack.sock_close(sock)

        def tick():
            while True:
                stack.tcp_tick(None)
                yield

        hosts["client"].spawn(bsd_server())
        scheduler.add(rmc_client())
        scheduler.add(tick())
        scheduler.start()
        sim.run(until=3.0)
        assert got["server_got"] == b"from rmc"
        assert got["reply"] == b"ok"

    def test_sock_write_on_closed_returns_error(self, world):
        sim, hosts = world
        stack = DyncTcpStack(hosts["server"])
        stack.sock_init()
        sock = make_socket(stack)
        assert stack.sock_write(sock, b"data") == -1

    def test_sock_mode_validates(self, world):
        sim, hosts = world
        stack = DyncTcpStack(hosts["server"])
        sock = make_socket(stack)
        with pytest.raises(ValueError):
            stack.sock_mode(sock, 7)
