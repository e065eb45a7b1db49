"""Named end-to-end fault scenarios against the reproduced services.

Every scenario builds a fresh simulated LAN, runs the ported redirector
(or the Figure-2 echo server) under one specific fault, and returns a
verdict dict::

    {"name": ..., "ok": bool, "sim_seconds": ..., "checks": [...],
     "counters": {...}, "clients": [...]}

Checks assert two things at once: the fault actually fired
(``faults.injected.*``) and the layer under test recovered -- TCP
retransmitted, the handshake timed out cleanly, the handler refused and
re-listened, the MAC failure tore the session down instead of limping.
All randomness flows from the scenario seed, so a verdict (and the JSON
report built from it) is reproducible byte for byte.

Each scenario is a plain function of the seed: :func:`build_world`,
the fault, clients started by :func:`_spawn`, :func:`_finish`, then the
checks that are its own (counters through :func:`_count`), handed to
:meth:`World.verdict`, which appends the closing checks every scenario
owes: ``sessions_released``, and ``buffers_released`` when the world
has a buffer pool.  :func:`_serve`, :func:`_rude_peer` and
:func:`_late_comer` start and finish the clients of the three families.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import eq, ge

from repro.crypto.demokeys import DEMO_PSK
from repro.crypto.prng import CipherRng
from repro.dync.runtime.xalloc import XmemAllocator
from repro.faults import injectors as inj
from repro.faults.clients import (
    bitflip_client,
    half_handshake_client,
    silent_client,
    stalling_client,
)
from repro.issl import IsslContext, UNIX_FULL
from repro.issl.record import CT_APPLICATION_DATA
from repro.net.dynctcp import DyncTcpStack
from repro.net.host import build_lan
from repro.net.sim import SimulationError, Simulator
from repro.obs import (
    DEFAULT_TAIL,
    FlightRecorder,
    NullTelemetryStore,
    NullTracer,
    Obs,
)
from repro.services import (
    ClientReport,
    RedirectorWorld,
    TLS_PORT,
    build_redirector_world,
    delayed,
    dync_echo_costate,
    echo_client,
    secure_request_client,
)
from repro.services.redirector import _tick_driver

#: Hardening defaults for fault worlds -- tight enough that scenarios
#: finish in simulated seconds, loose enough for fault-free traffic.
_HANDSHAKE_TIMEOUT_S = 1.0
_CONN_DEADLINE_S = 2.0
_BACKEND_TIMEOUT_S = 2.0

#: A well-behaved client's request size; the simulated seconds a client
#: may run before its scenario counts as wedged; the settle after them.
_REQUEST_SIZE = 32
_CLIENT_TIMEOUT_S = 600.0
_SETTLE_S = 2.0


@dataclass
class World(RedirectorWorld):
    """One redirector deployment plus the scenario's seed and the
    clients spawned on it (processes and reports, in spawn order)."""

    seed: int
    reports: list = field(default_factory=list)
    processes: list = field(default_factory=list)

    def counters(self) -> dict:
        return dict(self.obs.metrics.snapshot()["counters"])

    def verdict(self, name: str, checks: list[dict]) -> dict:
        """The scenario's verdict: ``checks`` and the closing quiescence
        checks, plus this world's counters and one row per client."""
        return _verdict(name, checks + _check_quiescent(self), self.obs,
                        self.sim.now, [
            {
                "name": report.name,
                "ok": report.error is None,
                "requests": len(report.request_times),
                "error": report.error,
            }
            for report in self.reports
        ])


def _seed_bytes(seed: int, label: str) -> bytes:
    return f"faults:{seed}:{label}".encode()


def build_world(seed: int, *, client_hosts: int = 4, handlers: int = 3,
                max_sessions: int | None = None,
                backend_timeout_s: float = _BACKEND_TIMEOUT_S,
                buffer_pool: bool = False,
                xmem: XmemAllocator | None = None,
                with_backend: bool = True,
                pooled: bool = False,
                recorder_capacity: int = 256) -> World:
    """One hardened redirector deployment on a fresh simulated LAN.

    ``pooled=True`` swaps Figure 3's static handler costatements for
    the dynamic connection-slot pool at the same capacity
    (``handlers`` slots), whose admission control refuses
    (``redirector.refused.slots``) when every slot is busy.
    Verdicts read metrics and the flight recorder only, so the world
    runs without a tracer or telemetry.
    """
    obs = Obs(tracer=NullTracer(),
              recorder=FlightRecorder(capacity=recorder_capacity),
              telemetry=NullTelemetryStore())
    world = build_redirector_world(
        _seed_bytes(seed, "server"), clients=client_hosts, obs=obs,
        max_sessions=max_sessions, logger_capacity=64,
        xmem_capacity=64 * 1024, xmem=xmem, buffer_pool=buffer_pool,
        backend=with_backend, handlers=handlers, pooled=pooled,
        handshake_timeout_s=_HANDSHAKE_TIMEOUT_S, handshake_retries=1,
        conn_deadline_s=_CONN_DEADLINE_S,
        backend_timeout_s=backend_timeout_s,
    )
    return World(**vars(world), seed=seed)


def _client_context(world: World, label: str) -> IsslContext:
    return IsslContext(
        UNIX_FULL, CipherRng(_seed_bytes(world.seed, label)),
        psk=DEMO_PSK, obs=world.obs,
    )


def _secure_client(host, context: IsslContext, server_ip: str, port: int,
                   report: ClientReport, requests: int = 2):
    """:func:`secure_request_client` in the misbehaving clients' shape."""
    return secure_request_client(host, context, server_ip, port, requests,
                                 _REQUEST_SIZE, report)


def _spawn(world: World, index: int, client=_secure_client, *,
           start_s: float = 0.0, name: str | None = None,
           **client_args) -> ClientReport:
    """Start ``client`` on host ``c<index>`` against the redirector,
    ``start_s`` simulated seconds from now, as process
    ``faults:<name>`` (default ``client<index>``).  Its report joins the
    verdict and its process joins the ones :func:`_finish` waits for."""
    host = world.hosts[f"c{index}"]
    report = ClientReport(f"client{index}")
    world.reports.append(report)
    server = (str(world.hosts["rmc"].ip_address), TLS_PORT)
    if client is not silent_client:  # the silent peer speaks no issl
        server = (_client_context(world, report.name), *server)
    world.processes.append(host.spawn(
        delayed(start_s, client(host, *server, report=report,
                                **client_args)),
        name=f"faults:{name or report.name}",
    ))
    return report


def _finish(world: World) -> bool:
    """Drive the sim until every spawned client is done; returns False
    on a wedge (deadlock/timeout) instead of raising, so the verdict can
    carry it as a failed check."""
    try:
        for process in world.processes:
            world.sim.run_until_complete(process, timeout=_CLIENT_TIMEOUT_S)
        world.sim.run(until=world.sim.now + _SETTLE_S)
    except SimulationError:
        return False
    finally:
        world.scheduler.stop()
    return True


#: Verdict counters keep these prefixes only: enough to assert every
#: fault and recovery, small enough that reports diff readably.
_COUNTER_PREFIXES = (
    "faults.",
    "redirector.",
    "issl.handshakes.",
    "issl.records.mac_failures",
    "tcp.segments.retransmitted",
    "xalloc.",
)

#: How observed recovery actions map into the ``faults.recovered.*``
#: namespace the campaign reports.
_RECOVERY_SOURCES = {
    "faults.recovered.tcp_retransmit": "tcp.segments.retransmitted",
    "faults.recovered.handshake_error": "redirector.errors.handshake",
    "faults.recovered.handshake_timeout": "issl.handshakes.timeouts",
    "faults.recovered.handshake_retry": "issl.handshakes.retries",
    "faults.recovered.deadline": "redirector.deadline.expired",
    "faults.recovered.session_refusal": "redirector.refused.sessions",
    "faults.recovered.memory_refusal": "redirector.refused.memory",
    "faults.recovered.slot_refusal": "redirector.refused.slots",
    "faults.recovered.mac_teardown": "issl.records.mac_failures",
    "faults.recovered.backend_error": "redirector.errors.backend",
    "faults.recovered.handler": "redirector.recovered",
}


def _report_counters(obs) -> dict:
    """Publish the ``faults.recovered.*`` counters, then return the
    counters a report carries: those under ``_COUNTER_PREFIXES``."""
    counters = obs.metrics.snapshot()["counters"]
    for target, source in _RECOVERY_SOURCES.items():
        value = counters.get(source, 0)
        if value:
            obs.metrics.counter(target).inc(value)
    return {
        key: value
        for key, value in sorted(obs.metrics.snapshot()["counters"].items())
        if key.startswith(_COUNTER_PREFIXES)
    }


def _verdict(name: str, checks: list[dict], obs, now: float,
             clients: list[dict]) -> dict:
    counters = _report_counters(obs)
    ok = all(check["ok"] for check in checks)
    verdict = {
        "name": name,
        "ok": ok,
        "sim_seconds": round(now, 6),
        "checks": checks,
        "counters": counters,
        "clients": clients,
    }
    if not ok:
        # Failed scenarios carry the flight-recorder tail; passing ones
        # stay byte-identical to the pre-recorder reports.
        verdict["events"] = obs.recorder.dump(last=DEFAULT_TAIL)
    # Side channel for run_matrix: the full per-world registry state,
    # merged across scenarios (in scenario order) into the report's
    # ``metrics`` section, then popped -- never rendered per verdict.
    verdict["_registry"] = obs.metrics.to_state()
    return verdict


def _check(name: str, ok: bool, detail: str = "") -> dict:
    return {"name": name, "ok": bool(ok), "detail": detail}


def _count(counters: dict, name: str, key: str, test, bound, label: str,
           note: str = "") -> dict:
    """Check ``test(counters.get(key, 0), bound)``; detail ``label=value``."""
    value = counters.get(key, 0)
    return _check(name, test(value, bound), f"{label}={value}{note}")


def _check_clients_ok(world: World, expected_ok: int | None = None) -> dict:
    ok_count = sum(1 for r in world.reports if r.error is None)
    expected = len(world.reports) if expected_ok is None else expected_ok
    return _check("clients_ok", ok_count >= expected,
                  f"{ok_count}/{len(world.reports)} ok (needed {expected})")


def _check_quiescent(world: World) -> list:
    """Every fault scenario must end with all static resources returned."""
    checks = [_check(
        "sessions_released", world.context.sessions_active == 0,
        f"sessions_active={world.context.sessions_active}",
    )]
    if world.buffer_pool is not None:
        checks.append(_check(
            "buffers_released", world.buffer_pool.in_use == 0,
            f"pool in_use={world.buffer_pool.in_use}",
        ))
    return checks


def _serve(world: World, clients: int = 2,
           requests: int = 2) -> tuple[list, dict]:
    """``clients`` well-behaved clients, all to be served: the
    ``completed`` and ``clients_ok`` checks and the counters after."""
    for index in range(clients):
        _spawn(world, index, requests=requests)
    return ([_check("completed", _finish(world)), _check_clients_ok(world)],
            world.counters())


def _rude_peer(world: World, client, healthy_start_s: float,
               **client_args) -> tuple[list, dict]:
    """``client`` on ``c0`` (report ``world.reports[0]``), a healthy one on
    ``c1`` ``healthy_start_s`` later: ``completed`` and the counters."""
    _spawn(world, 0, client, **client_args)
    _spawn(world, 1, start_s=healthy_start_s)
    return [_check("completed", _finish(world))], world.counters()


def _late_comer(world: World, first_wave: int, start_s: float,
                requests: int = 2) -> tuple[list, dict]:
    """``first_wave`` clients, then one more ``start_s`` later (report
    ``world.reports[-1]``): ``completed`` and the counters after."""
    for index in range(first_wave):
        _spawn(world, index, requests=requests)
    _spawn(world, first_wave, requests=requests, start_s=start_s)
    return [_check("completed", _finish(world))], world.counters()


def _late_served(world: World, name: str) -> dict:
    late = world.reports[-1]
    return _check(name, late.error is None,
                  f"late client error={late.error!r}")


def _others_served(world: World) -> dict:
    ok = sum(1 for r in world.reports[:3] if r.error is None)
    return _check("others_served", ok >= 2,
                  f"{ok}/3 first-wave clients ok")


# ---------------------------------------------------------------------------
# Scenarios
# ---------------------------------------------------------------------------

def scenario_baseline(seed: int) -> dict:
    """No faults: the yardstick every fault verdict is read against."""
    world = build_world(seed)
    for index in range(3):
        _spawn(world, index)
    done = _finish(world)
    return world.verdict("baseline", [
        _check("completed", done, "all clients ran to completion"),
        _check_clients_ok(world),
        _count(world.stats, "all_requests_redirected", "redirected", eq, 6,
               "redirected", " (expected 6)"),
    ])


def scenario_syn_loss(seed: int) -> dict:
    """Drop the very first SYN; TCP's RTO must carry the connect."""
    world = build_world(seed)
    inj.install(world.lan, inj.DropFrames(
        inj.match_nth(0, inj.is_tcp_syn), obs=world.obs))
    checks, counters = _serve(world)
    return world.verdict("syn-loss", checks + [
        _count(counters, "syn_dropped", "faults.injected.drop", eq, 1,
               "injected"),
        _count(counters, "tcp_retransmitted", "tcp.segments.retransmitted",
               ge, 1, "retransmits"),
    ])


def scenario_hello_loss(seed: int) -> dict:
    """Drop the first data segment -- the ClientHello itself."""
    world = build_world(seed)
    inj.install(world.lan, inj.DropFrames(
        inj.match_nth(0, inj.has_tcp_payload), obs=world.obs))
    checks, counters = _serve(world)
    return world.verdict("hello-loss", checks + [
        _count(counters, "hello_dropped", "faults.injected.drop", eq, 1,
               "injected"),
        _count(counters, "tcp_retransmitted", "tcp.segments.retransmitted",
               ge, 1, "retransmits"),
    ])


def scenario_data_loss(seed: int) -> dict:
    """Periodic loss of data segments mid-session."""
    world = build_world(seed)
    inj.install(world.lan, inj.DropFrames(
        inj.match_every(4, inj.has_tcp_payload, start=2, limit=3),
        obs=world.obs,
    ))
    checks, counters = _serve(world, requests=3)
    drops = counters["faults.injected.drop"]
    return world.verdict("data-loss", checks + [
        _count(counters, "frames_dropped", "faults.injected.drop", ge, 2,
               "injected"),
        _count(counters, "tcp_retransmitted", "tcp.segments.retransmitted",
               ge, drops, "retransmits", f" >= drops={drops}"),
    ])


def scenario_duplicate(seed: int) -> dict:
    """Deliver every third TCP segment twice; dedup must hold."""
    world = build_world(seed)
    inj.install(world.lan, inj.DuplicateFrames(
        inj.match_every(3, inj.is_tcp, limit=8), obs=world.obs))
    checks, counters = _serve(world)
    return world.verdict("duplicate", checks + [
        _count(counters, "frames_duplicated", "faults.injected.duplicate",
               ge, 4, "injected"),
        _count(world.stats, "all_requests_redirected", "redirected", eq, 4,
               "redirected"),
    ])


def scenario_reorder(seed: int) -> dict:
    """Hold one data segment back past the RTO: reordering plus a
    spurious retransmit the receiver must deduplicate."""
    world = build_world(seed)
    inj.install(world.lan, inj.DelayFrames(
        inj.match_nth(4, inj.has_tcp_payload), extra_s=0.3, obs=world.obs))
    checks, counters = _serve(world)
    return world.verdict("reorder", checks + [
        _count(counters, "frame_delayed", "faults.injected.delay", eq, 1,
               "injected"),
        _count(counters, "tcp_retransmitted", "tcp.segments.retransmitted",
               ge, 1, "retransmits"),
    ])


def scenario_corrupt_app_record(seed: int) -> dict:
    """Flip a ciphertext bit on the wire: the server's MAC check must
    fail closed (teardown + alert), and the next client must be served."""
    world = build_world(seed)
    inj.install(world.lan, inj.CorruptFrames(
        inj.match_nth(
            0, inj.tcp_payload_prefix(bytes([CT_APPLICATION_DATA]))
        ),
        byte_offset=8, obs=world.obs,
    ))
    checks, counters = _rude_peer(world, _secure_client, 1.0)
    first = world.reports[0]
    return world.verdict("corrupt-app-record", checks + [
        _count(counters, "record_corrupted", "faults.injected.corrupt", eq,
               1, "injected"),
        _count(counters, "mac_failure_detected", "issl.records.mac_failures",
               ge, 1, "mac_failures"),
        _check("corrupted_client_failed", first.error is not None,
               f"error={first.error!r}"),
        _check_clients_ok(world, expected_ok=1),
    ])


def scenario_record_bitflip(seed: int) -> dict:
    """Flip a bit inside the client's inbound record 3 (the first
    protected response): the client MAC-fails, sends a fatal alert, and
    both ends tear down cleanly."""
    world = build_world(seed)
    checks, counters = _rude_peer(world, bitflip_client, 1.0,
                                  name="bitflip", record_index=3)
    flaky = world.reports[0]
    return world.verdict("record-bitflip", checks + [
        _count(counters, "record_corrupted", "faults.injected.record", eq, 1,
               "injected"),
        _count(counters, "mac_failure_detected", "issl.records.mac_failures",
               ge, 1, "mac_failures"),
        _check("bitflip_client_failed", flaky.error is not None,
               f"error={flaky.error!r}"),
        _check_clients_ok(world, expected_ok=1),
    ])


def _midhandshake_scenario(name: str, teardown: str, seed: int) -> dict:
    world = build_world(seed)
    checks, counters = _rude_peer(world, half_handshake_client, 1.5,
                                  name=teardown, teardown=teardown)
    return world.verdict(name, checks + [
        _count(counters, "handshake_failed_cleanly",
               "redirector.errors.handshake", ge, 1, "errors.handshake"),
        _count(counters, "handler_recovered", "redirector.recovered", ge, 1,
               "recovered"),
        _check_clients_ok(world, expected_ok=1),
    ])


def scenario_rst_midhandshake(seed: int) -> dict:
    """ClientHello, then RST while the server awaits ClientKeyExchange."""
    return _midhandshake_scenario("rst-midhandshake", "rst", seed)


def scenario_fin_midhandshake(seed: int) -> dict:
    """ClientHello, then FIN: EOF mid-handshake instead of a reset."""
    return _midhandshake_scenario("fin-midhandshake", "fin", seed)


def scenario_silent_peer(seed: int) -> dict:
    """A peer that connects and never speaks: the handshake timeout
    (with one retry) must free the handler."""
    world = build_world(seed)
    checks, counters = _rude_peer(world, silent_client, 4.0, name="silent",
                                  hold_s=6.0)
    return world.verdict("silent-peer", checks + [
        _count(counters, "handshake_timed_out", "issl.handshakes.timeouts",
               ge, 2, "timeouts", " (first attempt + 1 retry)"),
        _count(counters, "handshake_retried", "issl.handshakes.retries", eq,
               1, "retries"),
        _count(counters, "handler_recovered", "redirector.errors.handshake",
               ge, 1, "errors.handshake"),
        _check_clients_ok(world, expected_ok=1),
    ])


def scenario_stalled_peer(seed: int) -> dict:
    """An established session that sends half a line and stalls: the
    per-connection deadline must abort it, not pin the handler."""
    world = build_world(seed)
    checks, counters = _rude_peer(world, stalling_client, 4.0,
                                  name="staller", stall_s=8.0)
    served = len(world.reports[0].request_times)
    return world.verdict("stalled-peer", checks + [
        _count(counters, "deadline_expired", "redirector.deadline.expired",
               ge, 1, "expired"),
        _check("staller_served_before_stall", served == 1,
               f"requests={served}"),
        _check_clients_ok(world, expected_ok=1),
    ])


def scenario_slot_exhaustion(seed: int) -> dict:
    """Three concurrent clients against two session slots: one must be
    refused (counted), the others served, and a late-comer served after
    a slot frees -- Figure 3's ceiling as graceful degradation."""
    world = build_world(seed, max_sessions=2, client_hosts=4)
    checks, counters = _late_comer(world, 3, 2.0)
    return world.verdict("slot-exhaustion", checks + [
        _count(counters, "session_refused", "redirector.refused.sessions",
               ge, 1, "refused"),
        _check("ceiling_respected", world.context.sessions_peak <= 2,
               f"peak={world.context.sessions_peak}"),
        _others_served(world),
        _late_served(world, "slot_recycled"),
    ])


def scenario_xalloc_exhaustion(seed: int) -> dict:
    """The record-buffer pool hits injected xmem exhaustion on its third
    carve: one client refused with a counter, buffers recycled after."""
    xmem = inj.ExhaustingXmemAllocator(capacity=64 * 1024, fail_at=3)
    world = build_world(seed, buffer_pool=True, xmem=xmem, client_hosts=4)
    xmem._fault_counter = world.obs.metrics.counter("faults.injected.xalloc")
    checks, counters = _late_comer(world, 3, 2.0)
    return world.verdict("xalloc-exhaustion", checks + [
        _check("exhaustion_injected", xmem.allocations == 2,
               f"allocations={xmem.allocations} (third carve refused)"),
        _count(counters, "memory_refused", "redirector.refused.memory", ge,
               1, "refused"),
        _others_served(world),
        _late_served(world, "buffer_recycled"),
    ])


def scenario_starved_loop(seed: int) -> dict:
    """A greedy costatement burns 1 ms per pass: everything slows, but
    the cooperative loop still serves every client."""
    world = build_world(seed)
    world.scheduler.add(
        inj.starving_costate(passes=1500, busy_s=1e-3, obs=world.obs),
        name="starver",
    )
    checks, counters = _serve(world)
    return world.verdict("starved-loop", checks + [
        _count(counters, "starvation_injected", "faults.injected.starve",
               ge, 100, "starve passes"),
    ])


def scenario_backend_outage(seed: int) -> dict:
    """Handshake succeeds but the backend never answers: the bounded
    backend connect must fail the connection without wedging."""
    world = build_world(seed, with_backend=False, backend_timeout_s=1.0)
    report = _spawn(world, 0)
    done = _finish(world)
    counters = world.counters()
    return world.verdict("backend-outage", [
        _check("completed", done),
        _count(counters, "backend_error_counted", "redirector.errors.backend",
               ge, 1, "errors.backend"),
        _check("client_saw_clean_eof", len(report.request_times) == 0,
               f"error={report.error!r}"),
    ])


def scenario_echo_loss(seed: int) -> dict:
    """Figure 2(b)'s echo server under data loss: the Dynamic C socket
    API rides the same retransmitting TCP."""
    obs = Obs()
    sim = Simulator(obs=obs)
    lan, hosts = build_lan(sim, ["rmc", "c0"])
    stack = DyncTcpStack(hosts["rmc"])
    inj.install(lan, inj.DropFrames(
        inj.match_every(3, inj.has_tcp_payload, limit=2), obs=obs))
    from repro.dync.runtime.costate import CostateScheduler

    scheduler = CostateScheduler(sim, name="echo")
    stack.sock_init()
    scheduler.add(dync_echo_costate(stack, 7, once=True), name="echo")
    scheduler.add(_tick_driver(stack), name="tick-driver")
    scheduler.start()
    results: dict = {}
    client = hosts["c0"].spawn(echo_client(
        hosts["c0"], str(hosts["rmc"].ip_address), 7, b"ping", results
    ))
    wedged = False
    try:
        sim.run_until_complete(client, timeout=_CLIENT_TIMEOUT_S)
    except SimulationError:
        wedged = True
    scheduler.stop()
    counters = dict(obs.metrics.snapshot()["counters"])
    echo = results.get("echo")
    checks = [
        _check("completed", not wedged),
        _count(counters, "frames_dropped", "faults.injected.drop", ge, 1,
               "injected"),
        _check("echo_intact", echo == b"ping\n", f"echo={echo!r}"),
        _count(counters, "tcp_retransmitted", "tcp.segments.retransmitted",
               ge, 1, "retransmits"),
    ]
    return _verdict("echo-loss", checks, obs, sim.now, [{
        "name": "echo-client",
        "ok": echo == b"ping\n",
        "requests": 1 if echo else 0,
        "error": None if echo else "no echo",
    }])


def scenario_drop_filter_compat(seed: int) -> dict:
    """The legacy ``set_drop_filter`` hook composing with a duplicator
    in the same chain -- the regression the injector refactor must not
    introduce."""
    world = build_world(seed)
    world.lan.set_drop_filter(
        lambda frame, index: inj.is_tcp_syn(frame) and index < 5
    )
    inj.install(world.lan, inj.DuplicateFrames(
        inj.match_every(5, inj.is_tcp, limit=4), obs=world.obs))
    checks, counters = _serve(world, clients=1)
    return world.verdict("drop-filter-compat", checks + [
        _check("drop_filter_fired", world.lan.frames_dropped >= 1,
               f"frames_dropped={world.lan.frames_dropped}"),
        _count(counters, "chain_composed", "faults.injected.duplicate", ge,
               1, "duplicated"),
    ])


def _scenario_pool_burst(seed: int, slots: int) -> dict:
    """Shared body for the pool-burst-N scenarios: ``slots + 3``
    simultaneous connections against a dynamic pool of ``slots`` slots.
    The three surplus connections must be refused with clean
    ``redirector.refused.slots`` accounting (one flight-recorder event
    each), the loop must not deadlock, and after the burst drains a
    late-comer must be served normally."""
    first_wave = slots + 3
    # Deeper flight recorder for the bigger deployments: a 32-slot
    # burst writes ~20 TCP teardown events per connection, and the
    # refusal events must survive long enough to be counted.
    world = build_world(seed, pooled=True, handlers=slots,
                        max_sessions=slots,
                        client_hosts=first_wave + 1,
                        recorder_capacity=max(256, 32 * slots))
    checks, counters = _late_comer(world, first_wave, 5.0, requests=1)
    refused = counters.get("redirector.refused.slots", 0)
    failed_first_wave = sum(
        1 for r in world.reports[:first_wave] if r.error is not None
    )
    refusal_events = sum(
        1 for event in world.obs.recorder.dump()
        if event["msg"] == "refused: no idle slot"
    )
    gauges = world.obs.metrics.snapshot()["gauges"]
    occupied = gauges.get("redirector.slots.occupied", {})
    peak = occupied.get("high_water", 0.0)
    occupancy = occupied.get("value", 0.0)
    return world.verdict(f"pool-burst-{slots}", checks + [
        _count(counters, "slots_refused", "redirector.refused.slots", ge, 1,
               "refused.slots"),
        _check("refusals_account_for_failures", failed_first_wave == refused,
               f"failed={failed_first_wave} refused={refused}"),
        _check("refusal_events_recorded", refusal_events == refused,
               f"recorder events={refusal_events} refused={refused}"),
        _check("pool_ceiling_respected", peak <= slots,
               f"peak occupancy={peak} slots={slots}"),
        _check("pool_drained", occupancy == 0,
               f"occupancy={occupancy} after settle"),
        _late_served(world, "recovered_after_burst"),
    ])


def scenario_pool_burst_3(seed: int) -> dict:
    """Burst against the smallest pool: Figure 3's capacity, dynamic."""
    return _scenario_pool_burst(seed, 3)


def scenario_pool_burst_8(seed: int) -> dict:
    """Burst against the gate-pinned 8-slot pool."""
    return _scenario_pool_burst(seed, 8)


def scenario_pool_burst_32(seed: int) -> dict:
    """Burst against the largest measured pool."""
    return _scenario_pool_burst(seed, 32)


#: name -> (runner, description).  Order is report order.
SCENARIOS: dict = {
    "baseline": (scenario_baseline,
                 "no faults; the yardstick for every other verdict"),
    "syn-loss": (scenario_syn_loss,
                 "first SYN dropped; TCP RTO must carry the connect"),
    "hello-loss": (scenario_hello_loss,
                   "ClientHello segment dropped; retransmit recovers"),
    "data-loss": (scenario_data_loss,
                  "periodic data-segment loss mid-session"),
    "duplicate": (scenario_duplicate,
                  "every third TCP segment delivered twice"),
    "reorder": (scenario_reorder,
                "a data segment held past the RTO (reorder + dup)"),
    "corrupt-app-record": (scenario_corrupt_app_record,
                           "ciphertext bit flipped on the wire; server "
                           "MAC check must fail closed"),
    "record-bitflip": (scenario_record_bitflip,
                       "client's inbound record corrupted; client MAC "
                       "check must fail closed"),
    "rst-midhandshake": (scenario_rst_midhandshake,
                         "peer resets after ClientHello"),
    "fin-midhandshake": (scenario_fin_midhandshake,
                         "peer closes after ClientHello"),
    "silent-peer": (scenario_silent_peer,
                    "peer connects and never speaks; handshake timeout "
                    "+ retry frees the handler"),
    "stalled-peer": (scenario_stalled_peer,
                     "half a request then silence; per-connection "
                     "deadline aborts it"),
    "slot-exhaustion": (scenario_slot_exhaustion,
                        "more clients than session slots; refuse, "
                        "count, recycle"),
    "xalloc-exhaustion": (scenario_xalloc_exhaustion,
                          "record-buffer pool hits injected xmem "
                          "exhaustion; refuse and recycle"),
    "starved-loop": (scenario_starved_loop,
                     "a greedy costatement slows the big loop"),
    "backend-outage": (scenario_backend_outage,
                       "backend down; bounded connect fails cleanly"),
    "echo-loss": (scenario_echo_loss,
                  "Figure 2(b) echo server under data loss"),
    "drop-filter-compat": (scenario_drop_filter_compat,
                           "legacy set_drop_filter composing with the "
                           "injector chain"),
    "pool-burst-3": (scenario_pool_burst_3,
                     "burst of slots+3 connections against a 3-slot "
                     "dynamic pool; refuse, count, recover"),
    "pool-burst-8": (scenario_pool_burst_8,
                     "burst of slots+3 connections against an 8-slot "
                     "dynamic pool; refuse, count, recover"),
    "pool-burst-32": (scenario_pool_burst_32,
                      "burst of slots+3 connections against a 32-slot "
                      "dynamic pool; refuse, count, recover"),
}
