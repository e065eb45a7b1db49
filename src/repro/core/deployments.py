"""The port, as a library (DESIGN.md: ``repro.core``).

The paper's primary artifact is not an algorithm but a *pair of
deployments* of the same service: the Unix original and the RMC2000
port.  This module packages each as a one-call constructor over the
simulation substrates, so a user can stand up either world -- or both,
side by side -- and drive them with the same clients:

    deployment = build_unix_deployment()     # or build_rmc2000_deployment()
    report = deployment.run_client(requests=10, request_size=128)

Everything the port changed -- fork vs costatements, BSD vs Dynamic C
sockets, RSA vs PSK, file vs circular logging, dynamic vs static
allocation -- is selected by which constructor you call; the client-side
API is identical.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.crypto.demokeys import DEMO_PSK, demo_rsa_key
from repro.crypto.prng import CipherRng
from repro.issl import (
    CipherSuite,
    FileLogger,
    IsslContext,
    RMC2000_ASM,
    UNIX_FULL,
    WORKSTATION,
)
from repro.issl.costmodel import CryptoCostModel
from repro.net.host import Host, build_lan
from repro.net.sim import Simulator
from repro.services import (
    ClientReport,
    TLS_PORT,
    backend_line_server,
    build_redirector_world,
    secure_request_client,
    unix_secure_redirector,
)
from repro.unixsim.host import UnixHost


@dataclass
class Deployment:
    """A running secure-redirector world: sim, hosts, server context."""

    name: str
    sim: Simulator
    server_host: Host
    backend_host: Host
    client_hosts: list[Host]
    server_context: IsslContext
    suites: tuple[CipherSuite, ...]
    stats: dict = field(default_factory=dict)
    _next_client: int = 0

    def run_client(self, requests: int = 5, request_size: int = 64,
                   timeout: float = 3600.0) -> ClientReport:
        """Run one secure client against the deployment; blocks until done."""
        return self.run_clients(1, requests, request_size, timeout)[0]

    def run_clients(self, count: int, requests: int = 5,
                    request_size: int = 64,
                    timeout: float = 3600.0) -> list[ClientReport]:
        """Run ``count`` clients concurrently; returns all reports.

        Raises :class:`RuntimeError` before spawning any client when
        fewer than ``count`` client hosts are left.
        """
        start = self._next_client
        if start + count > len(self.client_hosts):
            raise RuntimeError("deployment out of client hosts")
        self._next_client += count
        reports = []
        processes = []
        for host in self.client_hosts[start:self._next_client]:
            report = ClientReport(host.name)
            reports.append(report)
            client_context = IsslContext(
                UNIX_FULL,
                CipherRng(b"client:" + host.name.encode()),
                psk=self.server_context.psk,
            )
            processes.append(host.spawn(secure_request_client(
                host, client_context, str(self.server_host.ip_address),
                TLS_PORT, requests, request_size, report,
            )))
        for process in processes:
            self.sim.run_until_complete(process, timeout=timeout)
        return reports


def build_unix_deployment(clients: int = 4,
                          cost_model: CryptoCostModel = WORKSTATION,
                          suites: tuple[CipherSuite, ...] | None = None,
                          ) -> Deployment:
    """The original: fork-per-connection issl service on a Unix host."""
    sim = Simulator()
    segment, _hosts = build_lan(sim, [])
    server = UnixHost(sim, "unix-server", _ip(1))
    server.attach(segment)
    backend = Host(sim, "backend", _ip(2))
    backend.attach(segment)
    client_hosts = []
    for index in range(clients):
        client = Host(sim, f"client{index}", _ip(10 + index))
        client.attach(segment)
        client_hosts.append(client)
    context = IsslContext(
        UNIX_FULL.with_cost_model(cost_model),
        CipherRng(b"unix-server"),
        logger=FileLogger(server.fs),
        rsa_key=demo_rsa_key(),
        psk=DEMO_PSK,
    )
    stats: dict = {}
    backend.spawn(backend_line_server(backend, stats=stats))
    server.spawn_process(
        unix_secure_redirector(server, context, str(backend.ip_address),
                               stats=stats),
        name="issl-redirector",
    )
    return Deployment(
        name="unix-original",
        sim=sim,
        server_host=server,
        backend_host=backend,
        client_hosts=client_hosts,
        server_context=context,
        suites=suites or (CipherSuite.RSA_AES128,),
        stats=stats,
    )


def build_rmc2000_deployment(clients: int = 4, handlers: int = 3,
                             cost_model: CryptoCostModel = RMC2000_ASM,
                             ) -> Deployment:
    """The port: Figure 3's costatement service on the RMC2000."""
    world = build_redirector_world(
        b"rmc-server", clients=clients, cost_model=cost_model,
        logger_capacity=32, handlers=handlers,
    )
    hosts = world.hosts
    return Deployment(
        name="rmc2000-port",
        sim=world.sim,
        server_host=hosts["rmc"],
        backend_host=hosts["backend"],
        client_hosts=[hosts[f"c{i}"] for i in range(clients)],
        server_context=world.context,
        suites=(CipherSuite.PSK_AES128,),
        stats=world.stats,
    )


def _ip(last_octet: int):
    from repro.net.addresses import Ipv4Address

    return Ipv4Address.parse(f"10.0.0.{last_octet}")
