"""Service tests: echo servers, backend, both redirectors, clients."""

import pytest

from repro.crypto.demokeys import DEMO_PSK, demo_rsa_key
from repro.crypto.prng import CipherRng
from repro.dync.runtime import CostateScheduler
from repro.issl import FREE, IsslContext, RMC2000_PORT, UNIX_FULL, WORKSTATION
from repro.net.addresses import Ipv4Address
from repro.net.bsd import socket
from repro.net.dynctcp import DyncTcpStack
from repro.net.host import build_lan, Host
from repro.net.link import EthernetSegment
from repro.net.sim import Simulator
from repro.services import (
    BACKEND_PORT,
    backend_line_server,
    bsd_echo_server,
    build_rmc_redirector,
    ClientReport,
    dync_echo_costate,
    echo_client,
    plain_request_client,
    PLAIN_PORT,
    secure_request_client,
    TLS_PORT,
    unix_secure_redirector,
)
from repro.unixsim import UnixHost


class TestEchoServers:
    def test_bsd_echo_once(self):
        sim = Simulator()
        _lan, hosts = build_lan(sim, ["server", "client"])
        hosts["server"].spawn(bsd_echo_server(hosts["server"], 7))
        results = {}
        process = hosts["client"].spawn(echo_client(
            hosts["client"], "10.0.0.1", 7, b"hello", results))
        sim.run_until_complete(process, timeout=60)
        assert results["echo"] == b"hello\n"

    def test_bsd_echo_repeating(self):
        sim = Simulator()
        _lan, hosts = build_lan(sim, ["server", "c1", "c2"])
        hosts["server"].spawn(bsd_echo_server(hosts["server"], 7, once=False))
        results = {}
        p1 = hosts["c1"].spawn(echo_client(hosts["c1"], "10.0.0.1", 7,
                                           b"first", results, "one"))
        sim.run_until_complete(p1, timeout=60)
        p2 = hosts["c2"].spawn(echo_client(hosts["c2"], "10.0.0.1", 7,
                                           b"second", results, "two"))
        sim.run_until_complete(p2, timeout=60)
        assert results["one"] == b"first\n"
        assert results["two"] == b"second\n"

    def test_dync_echo(self):
        sim = Simulator()
        _lan, hosts = build_lan(sim, ["rmc", "client"])
        stack = DyncTcpStack(hosts["rmc"])
        scheduler = CostateScheduler(sim)
        scheduler.add(dync_echo_costate(stack, 7))
        scheduler.start()
        results = {}
        process = hosts["client"].spawn(echo_client(
            hosts["client"], "10.0.0.1", 7, b"embedded", results))
        sim.run_until_complete(process, timeout=60)
        assert results["echo"] == b"embedded\n"


class TestBackend:
    def test_uppercase_transform_and_stats(self):
        sim = Simulator()
        _lan, hosts = build_lan(sim, ["backend", "client"])
        stats = {}
        hosts["backend"].spawn(backend_line_server(hosts["backend"],
                                                   stats=stats))
        out = {}

        def client():
            sock = socket(hosts["client"])
            yield from sock.connect(("10.0.0.1", BACKEND_PORT))
            yield from sock.sendall(b"make me loud\n")
            data = b""
            while b"\n" not in data:
                chunk = yield from sock.recv(100)
                if not chunk:
                    break
                data += chunk
            out["reply"] = data
            sock.close()

        process = hosts["client"].spawn(client())
        sim.run_until_complete(process, timeout=60)
        assert out["reply"] == b"MAKE ME LOUD\n"
        assert stats["requests"] == 1

    def test_custom_transform(self):
        sim = Simulator()
        _lan, hosts = build_lan(sim, ["backend", "client"])
        hosts["backend"].spawn(backend_line_server(
            hosts["backend"], transform=lambda line: line[::-1]))
        out = {}

        def client():
            sock = socket(hosts["client"])
            yield from sock.connect(("10.0.0.1", BACKEND_PORT))
            yield from sock.sendall(b"abc\n")
            out["reply"] = yield from sock.recv(100)

        process = hosts["client"].spawn(client())
        sim.run_until_complete(process, timeout=60)
        assert out["reply"] == b"cba\n"


def _unix_world():
    sim = Simulator()
    segment = EthernetSegment(sim)
    server = UnixHost(sim, "server", Ipv4Address.parse("10.0.0.1"))
    server.attach(segment)
    backend = Host(sim, "backend", Ipv4Address.parse("10.0.0.2"))
    backend.attach(segment)
    clients = []
    for index in range(3):
        client = Host(sim, f"c{index}", Ipv4Address.parse(f"10.0.0.{3 + index}"))
        client.attach(segment)
        clients.append(client)
    return sim, server, backend, clients


class TestUnixRedirector:
    def test_secure_redirection_end_to_end(self):
        sim, server, backend, clients = _unix_world()
        stats = {}
        context = IsslContext(UNIX_FULL.with_cost_model(WORKSTATION),
                              CipherRng(b"srv"), rsa_key=demo_rsa_key())
        backend.spawn(backend_line_server(backend))
        server.spawn_process(
            unix_secure_redirector(server, context, "10.0.0.2", stats=stats),
            name="redirector")
        report = ClientReport("c")
        client_ctx = IsslContext(UNIX_FULL, CipherRng(b"cli"))
        process = clients[0].spawn(secure_request_client(
            clients[0], client_ctx, "10.0.0.1", TLS_PORT, 3, 20, report))
        sim.run_until_complete(process, timeout=600)
        assert report.error is None
        assert len(report.request_times) == 3
        assert stats["redirected"] == 3
        # The backend's transform proves decrypt->forward->encrypt:
        assert report.bytes_received > 0

    def test_fork_per_connection(self):
        sim, server, backend, clients = _unix_world()
        context = IsslContext(UNIX_FULL.with_cost_model(WORKSTATION),
                              CipherRng(b"srv"), rsa_key=demo_rsa_key())
        backend.spawn(backend_line_server(backend))
        server.spawn_process(
            unix_secure_redirector(server, context, "10.0.0.2"),
            name="redirector")
        reports = []
        processes = []
        for index in range(2):
            report = ClientReport(f"c{index}")
            reports.append(report)
            ctx = IsslContext(UNIX_FULL, CipherRng(b"c%d" % index))
            processes.append(clients[index].spawn(secure_request_client(
                clients[index], ctx, "10.0.0.1", TLS_PORT, 1, 10, report)))
        for process in processes:
            sim.run_until_complete(process, timeout=600)
        assert server.kernel.forks == 2
        assert all(r.error is None for r in reports)


class TestRmcRedirector:
    def _world(self, handlers=3, secure=True):
        sim = Simulator()
        _lan, hosts = build_lan(sim, ["rmc", "backend", "c0", "c1", "c2"])
        stack = DyncTcpStack(hosts["rmc"])
        context = IsslContext(RMC2000_PORT.with_cost_model(FREE),
                              CipherRng(b"rmc"), psk=DEMO_PSK)
        stats = {}
        hosts["backend"].spawn(backend_line_server(hosts["backend"]))
        scheduler = build_rmc_redirector(
            stack, context, "10.0.0.2", handlers=handlers, secure=secure,
            stats=stats, listen_port=TLS_PORT if secure else PLAIN_PORT)
        scheduler.start()
        return sim, hosts, stats, scheduler

    def test_figure3_structure(self):
        _sim, _hosts, _stats, scheduler = self._world(handlers=3)
        names = [costate.name for costate in scheduler._costates]
        assert names == ["handler1", "handler2", "handler3", "tick-driver"]

    def test_secure_service(self):
        sim, hosts, stats, _sched = self._world()
        report = ClientReport("c")
        ctx = IsslContext(UNIX_FULL, CipherRng(b"c"), psk=DEMO_PSK)
        process = hosts["c0"].spawn(secure_request_client(
            hosts["c0"], ctx, "10.0.0.1", TLS_PORT, 3, 24, report))
        sim.run_until_complete(process, timeout=600)
        assert report.error is None
        assert stats["redirected"] == 3

    def test_plain_variant(self):
        sim, hosts, stats, _sched = self._world(secure=False)
        report = ClientReport("c")
        process = hosts["c0"].spawn(plain_request_client(
            hosts["c0"], "10.0.0.1", PLAIN_PORT, 3, 24, report))
        sim.run_until_complete(process, timeout=600)
        assert report.error is None
        assert stats["redirected"] == 3

    def test_handler_reuse_across_sequential_clients(self):
        sim, hosts, stats, _sched = self._world(handlers=1)
        ctx0 = IsslContext(UNIX_FULL, CipherRng(b"c0"), psk=DEMO_PSK)
        ctx1 = IsslContext(UNIX_FULL, CipherRng(b"c1"), psk=DEMO_PSK)
        r0, r1 = ClientReport("c0"), ClientReport("c1")
        p0 = hosts["c0"].spawn(secure_request_client(
            hosts["c0"], ctx0, "10.0.0.1", TLS_PORT, 1, 8, r0))
        sim.run_until_complete(p0, timeout=600)
        p1 = hosts["c1"].spawn(secure_request_client(
            hosts["c1"], ctx1, "10.0.0.1", TLS_PORT, 1, 8, r1))
        sim.run_until_complete(p1, timeout=600)
        assert r0.error is None and r1.error is None
        assert stats["redirected"] == 2

    def test_three_concurrent_clients(self):
        sim, hosts, stats, _sched = self._world(handlers=3)
        reports = []
        processes = []
        for index in range(3):
            ctx = IsslContext(UNIX_FULL, CipherRng(b"cc%d" % index),
                              psk=DEMO_PSK)
            report = ClientReport(f"c{index}")
            reports.append(report)
            processes.append(hosts[f"c{index}"].spawn(secure_request_client(
                hosts[f"c{index}"], ctx, "10.0.0.1", TLS_PORT, 2, 8, report)))
        for process in processes:
            sim.run_until_complete(process, timeout=600)
        assert all(r.error is None for r in reports)
        assert stats["redirected"] == 6


class TestClientReport:
    def test_throughput_computation(self):
        report = ClientReport("x")
        report.start, report.end = 1.0, 3.0
        report.bytes_sent, report.bytes_received = 1000, 1000
        assert report.total_time == 2.0
        assert report.throughput_bps == pytest.approx(8000.0)

    def test_zero_duration(self):
        report = ClientReport("x")
        assert report.throughput_bps == 0.0
