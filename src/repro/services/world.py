"""One RMC2000 deployment: Figure 3's redirector on a simulated LAN.

Every world that runs the ported redirector -- the fault matrix, the
scaling curve, the instrumented obs scenario, E4, E5 and
:func:`repro.core.build_rmc2000_deployment` -- is stood up by
:func:`build_redirector_world`.  Those worlds differ only in data (LAN
shape, cost model, seeds, logger, xmem, the wiring and its hardening
knobs), so the steps and their order live here once.  Clients stay
with the callers: each spawns its own on the ``c0``..``cN-1`` hosts.
"""

from __future__ import annotations

from dataclasses import dataclass
from dataclasses import replace as dc_replace

from repro.crypto.demokeys import DEMO_PSK
from repro.crypto.prng import CipherRng
from repro.dync.runtime.costate import CostateScheduler
from repro.dync.runtime.xalloc import XmemAllocator, XmemBufferPool
from repro.issl import CircularLogger, IsslContext, RMC2000_PORT
from repro.issl.costmodel import CryptoCostModel
from repro.net.bsd import LISTENQ
from repro.net.dynctcp import DyncTcpStack
from repro.net.host import build_lan
from repro.net.link import EthernetSegment
from repro.net.sim import Simulator
from repro.services.redirector import (
    PLAIN_PORT,
    SLOT_BUFFER_BYTES,
    TLS_PORT,
    backend_line_server,
    build_pooled_redirector,
    build_rmc_redirector,
)


@dataclass
class RedirectorWorld:
    """A started redirector deployment and every handle on it."""

    sim: Simulator
    obs: object
    lan: EthernetSegment
    hosts: dict
    stack: DyncTcpStack
    context: IsslContext
    scheduler: CostateScheduler
    stats: dict
    logger: CircularLogger | None
    xmem: XmemAllocator | None
    buffer_pool: XmemBufferPool | None


def build_redirector_world(server_seed: bytes, *, clients: int, obs=None,
                           bandwidth_bps: float = 10_000_000,
                           latency_s: float = 50e-6,
                           cost_model: CryptoCostModel | None = None,
                           max_sessions: int | None = None,
                           logger_capacity: int | None = None,
                           xmem_capacity: int | None = None,
                           xmem: XmemAllocator | None = None,
                           buffer_pool: bool = False,
                           backend: bool = True,
                           handlers: int = 3,
                           pooled: bool = False,
                           admission: bool = True,
                           secure: bool = True,
                           **knobs) -> RedirectorWorld:
    """Build and start the redirector world on hosts ``rmc``, ``backend``
    and ``c0``..``c{clients-1}`` (created in that order: host MACs come
    from a process-wide counter).

    ``obs=None`` runs uninstrumented.  The server profile is
    :data:`RMC2000_PORT` with ``cost_model`` and ``max_sessions``
    overriding its own when given; ``server_seed`` seeds its RNG.
    ``logger_capacity`` adds a :class:`CircularLogger`.  ``xmem`` (or a
    fresh allocator of ``xmem_capacity`` bytes) is the device's no-free
    pool; ``buffer_pool=True`` carves one :data:`SLOT_BUFFER_BYTES`
    record buffer per handler from it.  ``backend=False`` leaves the
    backend host silent.  ``handlers`` static costatements (or, with
    ``pooled``, slots of one pooled costatement with or without
    ``admission``) serve TLS, or plaintext when ``secure`` is false;
    ``knobs`` (the hardening timeouts and retries, ``pass_overhead_s``)
    go to the redirector builder unchanged.
    """
    sim = Simulator(obs=obs)
    obs = sim.obs
    names = ["rmc", "backend"] + [f"c{i}" for i in range(clients)]
    lan, hosts = build_lan(sim, names, bandwidth_bps=bandwidth_bps,
                           latency_s=latency_s)
    stack = DyncTcpStack(hosts["rmc"])
    logger = None
    if logger_capacity is not None:
        logger = CircularLogger(capacity=logger_capacity, obs=obs)
    profile = RMC2000_PORT
    if cost_model is not None:
        profile = profile.with_cost_model(cost_model)
    if max_sessions is not None:
        profile = dc_replace(profile, max_sessions=max_sessions)
    context = IsslContext(profile, CipherRng(server_seed), logger=logger,
                          psk=DEMO_PSK, obs=obs)
    if xmem is None and xmem_capacity is not None:
        xmem = XmemAllocator(capacity=xmem_capacity, obs=obs)
    pool = None
    if buffer_pool:
        pool = XmemBufferPool(xmem, handlers, SLOT_BUFFER_BYTES, obs=obs)
    if backend:
        # Backlog sized to the deployment: a dynamic pool can open one
        # backend connection per slot in the same burst.
        hosts["backend"].spawn(backend_line_server(
            hosts["backend"], backlog=max(LISTENQ, handlers)
        ))
    stats: dict = {}
    wiring = dict(listen_port=TLS_PORT if secure else PLAIN_PORT,
                  secure=secure, stats=stats, buffer_pool=pool,
                  **knobs)
    backend_ip = hosts["backend"].ip_address
    if pooled:
        scheduler = build_pooled_redirector(
            stack, context, backend_ip, slots=handlers, admission=admission,
            **wiring,
        )
    else:
        scheduler = build_rmc_redirector(
            stack, context, backend_ip, handlers=handlers, **wiring,
        )
    scheduler.start()
    return RedirectorWorld(
        sim=sim, obs=obs, lan=lan, hosts=hosts, stack=stack,
        context=context, scheduler=scheduler, stats=stats, logger=logger,
        xmem=xmem, buffer_pool=pool,
    )
