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
"""

from __future__ import annotations

from dataclasses import dataclass, field

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


@dataclass
class World(RedirectorWorld):
    """One redirector deployment plus the scenario's seed and the
    reports of the clients spawned on it."""

    seed: int
    reports: list = field(default_factory=list)

    def counters(self) -> dict:
        return dict(self.obs.metrics.snapshot()["counters"])


def _seed_bytes(seed: int, label: str) -> bytes:
    return f"faults:{seed}:{label}".encode()


def build_world(seed: int, *, client_hosts: int = 4, handlers: int = 3,
                max_sessions: int | None = None,
                backend_timeout_s: float = _BACKEND_TIMEOUT_S,
                buffer_pool: bool = False,
                xmem: XmemAllocator | None = None,
                with_backend: bool = True,
                pooled: bool = False,
                pool_admission: bool = False,
                recorder_capacity: int = 256) -> World:
    """One hardened redirector deployment on a fresh simulated LAN.

    ``pooled=True`` swaps Figure 3's static handler costatements for
    the dynamic connection-slot pool at the same capacity
    (``handlers`` slots).  With ``pool_admission=False`` the slots run
    the classic listen/serve body -- the differential tests pin that
    its ``redirector.*`` accounting matches the static build exactly;
    with ``pool_admission=True`` the pool adds admission control and
    refuses (``redirector.refused.slots``) when every slot is busy.
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
        admission=pool_admission,
        handshake_timeout_s=_HANDSHAKE_TIMEOUT_S, handshake_retries=1,
        conn_deadline_s=_CONN_DEADLINE_S,
        backend_timeout_s=backend_timeout_s,
    )
    return World(**vars(world), seed=seed)


def _client_context(world: World, index: int) -> IsslContext:
    return IsslContext(
        UNIX_FULL, CipherRng(_seed_bytes(world.seed, f"client{index}")),
        psk=DEMO_PSK, obs=world.obs,
    )


def _spawn_secure_client(world: World, index: int, *, requests: int = 2,
                         request_size: int = 32, start_s: float = 0.0):
    host = world.hosts[f"c{index}"]
    report = ClientReport(f"client{index}")
    world.reports.append(report)
    process = host.spawn(delayed(start_s, secure_request_client(
        host, _client_context(world, index),
        str(world.hosts["rmc"].ip_address), TLS_PORT,
        requests, request_size, report,
    )), name=f"faults:client{index}")
    return process, report


def _finish(world: World, processes, *, timeout: float = 600.0,
            settle_s: float = 2.0) -> bool:
    """Drive the sim until every client process is done; returns False
    on a wedge (deadlock/timeout) instead of raising, so the verdict can
    carry it as a failed check."""
    try:
        for process in processes:
            world.sim.run_until_complete(process, timeout=timeout)
        world.sim.run(until=world.sim.now + settle_s)
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


def _publish_recovery_counters(world_or_obs) -> None:
    obs = getattr(world_or_obs, "obs", world_or_obs)
    counters = dict(obs.metrics.snapshot()["counters"])
    for target, source in _RECOVERY_SOURCES.items():
        value = counters.get(source, 0)
        if value:
            obs.metrics.counter(target).inc(value)


def _verdict(name: str, world: World, checks: list[dict]) -> dict:
    _publish_recovery_counters(world)
    counters = {
        key: value for key, value in sorted(world.counters().items())
        if key.startswith(_COUNTER_PREFIXES)
    }
    ok = all(check["ok"] for check in checks)
    verdict = {
        "name": name,
        "ok": ok,
        "sim_seconds": round(world.sim.now, 6),
        "checks": checks,
        "counters": counters,
        "clients": [
            {
                "name": report.name,
                "ok": report.error is None,
                "requests": len(report.request_times),
                "error": report.error,
            }
            for report in world.reports
        ],
    }
    if not ok:
        # Failed scenarios carry the flight-recorder tail; passing ones
        # stay byte-identical to the pre-recorder reports.
        verdict["events"] = world.obs.recorder.dump(last=DEFAULT_TAIL)
    # Side channel for run_matrix: the full per-world registry state,
    # merged across scenarios (in scenario order) into the report's
    # ``metrics`` section, then popped -- never rendered per verdict.
    verdict["_registry"] = world.obs.metrics.to_state()
    return verdict


def _check(name: str, ok: bool, detail: str = "") -> dict:
    return {"name": name, "ok": bool(ok), "detail": detail}


def _check_clients_ok(world: World, expected_ok: int | None = None) -> list:
    ok_count = sum(1 for r in world.reports if r.error is None)
    expected = len(world.reports) if expected_ok is None else expected_ok
    return [_check(
        "clients_ok", ok_count >= expected,
        f"{ok_count}/{len(world.reports)} ok (needed {expected})",
    )]


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


# ---------------------------------------------------------------------------
# Scenarios
# ---------------------------------------------------------------------------

def scenario_baseline(seed: int) -> dict:
    """No faults: the yardstick every fault verdict is read against."""
    world = build_world(seed)
    processes = [
        _spawn_secure_client(world, i)[0] for i in range(3)
    ]
    done = _finish(world, processes)
    checks = [_check("completed", done, "all clients ran to completion")]
    checks += _check_clients_ok(world)
    checks.append(_check(
        "all_requests_redirected",
        world.stats.get("redirected", 0) == 6,
        f"redirected={world.stats.get('redirected', 0)} (expected 6)",
    ))
    checks += _check_quiescent(world)
    return _verdict("baseline", world, checks)


def scenario_syn_loss(seed: int) -> dict:
    """Drop the very first SYN; TCP's RTO must carry the connect."""
    world = build_world(seed)
    drop = inj.DropFrames(inj.match_nth(0, inj.is_tcp_syn), obs=world.obs)
    inj.install(world.lan, drop)
    processes = [_spawn_secure_client(world, i)[0] for i in range(2)]
    done = _finish(world, processes)
    counters = world.counters()
    checks = [_check("completed", done)]
    checks += _check_clients_ok(world)
    checks.append(_check("syn_dropped", drop.injected == 1,
                         f"injected={drop.injected}"))
    checks.append(_check(
        "tcp_retransmitted",
        counters.get("tcp.segments.retransmitted", 0) >= 1,
        f"retransmits={counters.get('tcp.segments.retransmitted', 0)}",
    ))
    checks += _check_quiescent(world)
    return _verdict("syn-loss", world, checks)


def scenario_hello_loss(seed: int) -> dict:
    """Drop the first data segment -- the ClientHello itself."""
    world = build_world(seed)
    drop = inj.DropFrames(inj.match_nth(0, inj.has_tcp_payload),
                          obs=world.obs)
    inj.install(world.lan, drop)
    processes = [_spawn_secure_client(world, i)[0] for i in range(2)]
    done = _finish(world, processes)
    counters = world.counters()
    checks = [_check("completed", done)]
    checks += _check_clients_ok(world)
    checks.append(_check("hello_dropped", drop.injected == 1,
                         f"injected={drop.injected}"))
    checks.append(_check(
        "tcp_retransmitted",
        counters.get("tcp.segments.retransmitted", 0) >= 1,
        f"retransmits={counters.get('tcp.segments.retransmitted', 0)}",
    ))
    checks += _check_quiescent(world)
    return _verdict("hello-loss", world, checks)


def scenario_data_loss(seed: int) -> dict:
    """Periodic loss of data segments mid-session."""
    world = build_world(seed)
    drop = inj.DropFrames(
        inj.match_every(4, inj.has_tcp_payload, start=2, limit=3),
        obs=world.obs,
    )
    inj.install(world.lan, drop)
    processes = [_spawn_secure_client(world, i, requests=3)[0]
                 for i in range(2)]
    done = _finish(world, processes)
    counters = world.counters()
    checks = [_check("completed", done)]
    checks += _check_clients_ok(world)
    checks.append(_check("frames_dropped", drop.injected >= 2,
                         f"injected={drop.injected}"))
    checks.append(_check(
        "tcp_retransmitted",
        counters.get("tcp.segments.retransmitted", 0) >= drop.injected,
        f"retransmits={counters.get('tcp.segments.retransmitted', 0)} "
        f">= drops={drop.injected}",
    ))
    checks += _check_quiescent(world)
    return _verdict("data-loss", world, checks)


def scenario_duplicate(seed: int) -> dict:
    """Deliver every third TCP segment twice; dedup must hold."""
    world = build_world(seed)
    duplicate = inj.DuplicateFrames(
        inj.match_every(3, inj.is_tcp, limit=8), obs=world.obs
    )
    inj.install(world.lan, duplicate)
    processes = [_spawn_secure_client(world, i)[0] for i in range(2)]
    done = _finish(world, processes)
    checks = [_check("completed", done)]
    checks += _check_clients_ok(world)
    checks.append(_check("frames_duplicated", duplicate.injected >= 4,
                         f"injected={duplicate.injected}"))
    checks.append(_check(
        "all_requests_redirected",
        world.stats.get("redirected", 0) == 4,
        f"redirected={world.stats.get('redirected', 0)}",
    ))
    checks += _check_quiescent(world)
    return _verdict("duplicate", world, checks)


def scenario_reorder(seed: int) -> dict:
    """Hold one data segment back past the RTO: reordering plus a
    spurious retransmit the receiver must deduplicate."""
    world = build_world(seed)
    delay = inj.DelayFrames(
        inj.match_nth(4, inj.has_tcp_payload), extra_s=0.3, obs=world.obs
    )
    inj.install(world.lan, delay)
    processes = [_spawn_secure_client(world, i)[0] for i in range(2)]
    done = _finish(world, processes)
    counters = world.counters()
    checks = [_check("completed", done)]
    checks += _check_clients_ok(world)
    checks.append(_check("frame_delayed", delay.injected == 1,
                         f"injected={delay.injected}"))
    checks.append(_check(
        "tcp_retransmitted",
        counters.get("tcp.segments.retransmitted", 0) >= 1,
        f"retransmits={counters.get('tcp.segments.retransmitted', 0)}",
    ))
    checks += _check_quiescent(world)
    return _verdict("reorder", world, checks)


def scenario_corrupt_app_record(seed: int) -> dict:
    """Flip a ciphertext bit on the wire: the server's MAC check must
    fail closed (teardown + alert), and the next client must be served."""
    world = build_world(seed)
    corrupt = inj.CorruptFrames(
        inj.match_nth(
            0, inj.tcp_payload_prefix(bytes([CT_APPLICATION_DATA]))
        ),
        byte_offset=8, obs=world.obs,
    )
    inj.install(world.lan, corrupt)
    first, first_report = _spawn_secure_client(world, 0)
    second, _ = _spawn_secure_client(world, 1, start_s=1.0)
    done = _finish(world, [first, second])
    counters = world.counters()
    checks = [_check("completed", done)]
    checks.append(_check("record_corrupted", corrupt.injected == 1,
                         f"injected={corrupt.injected}"))
    checks.append(_check(
        "mac_failure_detected",
        counters.get("issl.records.mac_failures", 0) >= 1,
        f"mac_failures={counters.get('issl.records.mac_failures', 0)}",
    ))
    checks.append(_check(
        "corrupted_client_failed", first_report.error is not None,
        f"error={first_report.error!r}",
    ))
    checks += _check_clients_ok(world, expected_ok=1)
    checks += _check_quiescent(world)
    return _verdict("corrupt-app-record", world, checks)


def scenario_record_bitflip(seed: int) -> dict:
    """Flip a bit inside the client's inbound record 3 (the first
    protected response): the client MAC-fails, sends a fatal alert, and
    both ends tear down cleanly."""
    world = build_world(seed)
    host = world.hosts["c0"]
    report = ClientReport("client0")
    world.reports.append(report)
    flaky = host.spawn(bitflip_client(
        host, _client_context(world, 0),
        str(world.hosts["rmc"].ip_address), TLS_PORT,
        record_index=3, report=report,
    ), name="faults:bitflip")
    healthy, _ = _spawn_secure_client(world, 1, start_s=1.0)
    done = _finish(world, [flaky, healthy])
    counters = world.counters()
    checks = [_check("completed", done)]
    checks.append(_check(
        "record_corrupted",
        counters.get("faults.injected.record", 0) == 1,
        f"injected={counters.get('faults.injected.record', 0)}",
    ))
    checks.append(_check(
        "mac_failure_detected",
        counters.get("issl.records.mac_failures", 0) >= 1,
        f"mac_failures={counters.get('issl.records.mac_failures', 0)}",
    ))
    checks.append(_check("bitflip_client_failed", report.error is not None,
                         f"error={report.error!r}"))
    checks += _check_clients_ok(world, expected_ok=1)
    checks += _check_quiescent(world)
    return _verdict("record-bitflip", world, checks)


def _midhandshake_scenario(name: str, teardown: str, seed: int) -> dict:
    world = build_world(seed)
    host = world.hosts["c0"]
    report = ClientReport("client0")
    world.reports.append(report)
    rude = host.spawn(half_handshake_client(
        host, _client_context(world, 0),
        str(world.hosts["rmc"].ip_address), TLS_PORT, report,
        teardown=teardown,
    ), name=f"faults:{teardown}")
    healthy, _ = _spawn_secure_client(world, 1, start_s=1.5)
    done = _finish(world, [rude, healthy])
    counters = world.counters()
    checks = [_check("completed", done)]
    checks.append(_check(
        "handshake_failed_cleanly",
        counters.get("redirector.errors.handshake", 0) >= 1,
        f"errors.handshake={counters.get('redirector.errors.handshake', 0)}",
    ))
    checks.append(_check(
        "handler_recovered",
        counters.get("redirector.recovered", 0) >= 1,
        f"recovered={counters.get('redirector.recovered', 0)}",
    ))
    checks += _check_clients_ok(world, expected_ok=1)
    checks += _check_quiescent(world)
    return _verdict(name, world, checks)


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
    host = world.hosts["c0"]
    report = ClientReport("client0")
    world.reports.append(report)
    mute = host.spawn(silent_client(
        host, str(world.hosts["rmc"].ip_address), TLS_PORT,
        hold_s=6.0, report=report,
    ), name="faults:silent")
    healthy, _ = _spawn_secure_client(world, 1, start_s=4.0)
    done = _finish(world, [mute, healthy])
    counters = world.counters()
    checks = [_check("completed", done)]
    checks.append(_check(
        "handshake_timed_out",
        counters.get("issl.handshakes.timeouts", 0) >= 2,
        f"timeouts={counters.get('issl.handshakes.timeouts', 0)} "
        f"(first attempt + 1 retry)",
    ))
    checks.append(_check(
        "handshake_retried",
        counters.get("issl.handshakes.retries", 0) == 1,
        f"retries={counters.get('issl.handshakes.retries', 0)}",
    ))
    checks.append(_check(
        "handler_recovered",
        counters.get("redirector.errors.handshake", 0) >= 1,
        f"errors.handshake={counters.get('redirector.errors.handshake', 0)}",
    ))
    checks += _check_clients_ok(world, expected_ok=1)
    checks += _check_quiescent(world)
    return _verdict("silent-peer", world, checks)


def scenario_stalled_peer(seed: int) -> dict:
    """An established session that sends half a line and stalls: the
    per-connection deadline must abort it, not pin the handler."""
    world = build_world(seed)
    host = world.hosts["c0"]
    report = ClientReport("client0")
    world.reports.append(report)
    staller = host.spawn(stalling_client(
        host, _client_context(world, 0),
        str(world.hosts["rmc"].ip_address), TLS_PORT, report,
        stall_s=8.0,
    ), name="faults:staller")
    healthy, _ = _spawn_secure_client(world, 1, start_s=4.0)
    done = _finish(world, [staller, healthy])
    counters = world.counters()
    checks = [_check("completed", done)]
    checks.append(_check(
        "deadline_expired",
        counters.get("redirector.deadline.expired", 0) >= 1,
        f"expired={counters.get('redirector.deadline.expired', 0)}",
    ))
    checks.append(_check(
        "staller_served_before_stall", len(report.request_times) == 1,
        f"requests={len(report.request_times)}",
    ))
    checks += _check_clients_ok(world, expected_ok=1)
    checks += _check_quiescent(world)
    return _verdict("stalled-peer", world, checks)


def scenario_slot_exhaustion(seed: int) -> dict:
    """Three concurrent clients against two session slots: one must be
    refused (counted), the others served, and a late-comer served after
    a slot frees -- Figure 3's ceiling as graceful degradation."""
    world = build_world(seed, max_sessions=2, client_hosts=4)
    processes = [_spawn_secure_client(world, i)[0] for i in range(3)]
    late, late_report = _spawn_secure_client(world, 3, start_s=2.0)
    done = _finish(world, processes + [late])
    counters = world.counters()
    ok_first_wave = sum(
        1 for r in world.reports[:3] if r.error is None
    )
    checks = [_check("completed", done)]
    checks.append(_check(
        "session_refused",
        counters.get("redirector.refused.sessions", 0) >= 1,
        f"refused={counters.get('redirector.refused.sessions', 0)}",
    ))
    checks.append(_check(
        "ceiling_respected", world.context.sessions_peak <= 2,
        f"peak={world.context.sessions_peak}",
    ))
    checks.append(_check(
        "others_served", ok_first_wave >= 2,
        f"{ok_first_wave}/3 first-wave clients ok",
    ))
    checks.append(_check(
        "slot_recycled", late_report.error is None,
        f"late client error={late_report.error!r}",
    ))
    checks += _check_quiescent(world)
    return _verdict("slot-exhaustion", world, checks)


def scenario_xalloc_exhaustion(seed: int) -> dict:
    """The record-buffer pool hits injected xmem exhaustion on its third
    carve: one client refused with a counter, buffers recycled after."""
    xmem = inj.ExhaustingXmemAllocator(capacity=64 * 1024, fail_at=3)
    world = build_world(seed, buffer_pool=True, xmem=xmem, client_hosts=4)
    xmem._fault_counter = world.obs.metrics.counter("faults.injected.xalloc")
    processes = [_spawn_secure_client(world, i)[0] for i in range(3)]
    late, late_report = _spawn_secure_client(world, 3, start_s=2.0)
    done = _finish(world, processes + [late])
    counters = world.counters()
    ok_first_wave = sum(
        1 for r in world.reports[:3] if r.error is None
    )
    checks = [_check("completed", done)]
    checks.append(_check(
        "exhaustion_injected", xmem.allocations == 2,
        f"allocations={xmem.allocations} (third carve refused)",
    ))
    checks.append(_check(
        "memory_refused",
        counters.get("redirector.refused.memory", 0) >= 1,
        f"refused={counters.get('redirector.refused.memory', 0)}",
    ))
    checks.append(_check(
        "others_served", ok_first_wave >= 2,
        f"{ok_first_wave}/3 first-wave clients ok",
    ))
    checks.append(_check(
        "buffer_recycled", late_report.error is None,
        f"late client error={late_report.error!r}",
    ))
    checks += _check_quiescent(world)
    return _verdict("xalloc-exhaustion", world, checks)


def scenario_starved_loop(seed: int) -> dict:
    """A greedy costatement burns 1 ms per pass: everything slows, but
    the cooperative loop still serves every client."""
    world = build_world(seed)
    world.scheduler.add(
        inj.starving_costate(passes=1500, busy_s=1e-3, obs=world.obs),
        name="starver",
    )
    processes = [_spawn_secure_client(world, i)[0] for i in range(2)]
    done = _finish(world, processes)
    counters = world.counters()
    checks = [_check("completed", done)]
    checks += _check_clients_ok(world)
    checks.append(_check(
        "starvation_injected",
        counters.get("faults.injected.starve", 0) >= 100,
        f"starve passes={counters.get('faults.injected.starve', 0)}",
    ))
    checks += _check_quiescent(world)
    return _verdict("starved-loop", world, checks)


def scenario_backend_outage(seed: int) -> dict:
    """Handshake succeeds but the backend never answers: the bounded
    backend connect must fail the connection without wedging."""
    world = build_world(seed, with_backend=False, backend_timeout_s=1.0)
    process, report = _spawn_secure_client(world, 0)
    done = _finish(world, [process])
    counters = world.counters()
    checks = [_check("completed", done)]
    checks.append(_check(
        "backend_error_counted",
        counters.get("redirector.errors.backend", 0) >= 1,
        f"errors.backend={counters.get('redirector.errors.backend', 0)}",
    ))
    checks.append(_check(
        "client_saw_clean_eof", len(report.request_times) == 0,
        f"error={report.error!r}",
    ))
    checks += _check_quiescent(world)
    return _verdict("backend-outage", world, checks)


def scenario_echo_loss(seed: int) -> dict:
    """Figure 2(b)'s echo server under data loss: the Dynamic C socket
    API rides the same retransmitting TCP."""
    obs = Obs()
    sim = Simulator(obs=obs)
    lan, hosts = build_lan(sim, ["rmc", "c0"])
    stack = DyncTcpStack(hosts["rmc"])
    drop = inj.DropFrames(
        inj.match_every(3, inj.has_tcp_payload, limit=2), obs=obs
    )
    inj.install(lan, drop)
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
        sim.run_until_complete(client, timeout=600)
    except SimulationError:
        wedged = True
    scheduler.stop()
    counters = dict(obs.metrics.snapshot()["counters"])
    checks = [
        _check("completed", not wedged),
        _check("frames_dropped", drop.injected >= 1,
               f"injected={drop.injected}"),
        _check("echo_intact", results.get("echo") == b"ping\n",
               f"echo={results.get('echo')!r}"),
        _check(
            "tcp_retransmitted",
            counters.get("tcp.segments.retransmitted", 0) >= 1,
            f"retransmits={counters.get('tcp.segments.retransmitted', 0)}",
        ),
    ]
    _publish_recovery_counters(obs)
    counters = dict(obs.metrics.snapshot()["counters"])
    ok = all(check["ok"] for check in checks)
    verdict = {
        "name": "echo-loss",
        "ok": ok,
        "sim_seconds": round(sim.now, 6),
        "checks": checks,
        "counters": {
            key: value for key, value in sorted(counters.items())
            if key.startswith(_COUNTER_PREFIXES)
        },
        "clients": [{
            "name": "echo-client",
            "ok": results.get("echo") == b"ping\n",
            "requests": 1 if results.get("echo") else 0,
            "error": None if results.get("echo") else "no echo",
        }],
    }
    if not ok:
        verdict["events"] = obs.recorder.dump(last=DEFAULT_TAIL)
    verdict["_registry"] = obs.metrics.to_state()
    return verdict


def scenario_drop_filter_compat(seed: int) -> dict:
    """The legacy ``set_drop_filter`` hook composing with a duplicator
    in the same chain -- the regression the injector refactor must not
    introduce."""
    world = build_world(seed)
    world.lan.set_drop_filter(
        lambda frame, index: inj.is_tcp_syn(frame) and index < 5
    )
    duplicate = inj.DuplicateFrames(
        inj.match_every(5, inj.is_tcp, limit=4), obs=world.obs
    )
    inj.install(world.lan, duplicate)
    process, _report = _spawn_secure_client(world, 0)
    done = _finish(world, [process])
    counters = world.counters()
    checks = [_check("completed", done)]
    checks += _check_clients_ok(world)
    checks.append(_check(
        "drop_filter_fired", world.lan.frames_dropped >= 1,
        f"frames_dropped={world.lan.frames_dropped}",
    ))
    checks.append(_check(
        "chain_composed", duplicate.injected >= 1,
        f"duplicated={duplicate.injected}",
    ))
    checks += _check_quiescent(world)
    return _verdict("drop-filter-compat", world, checks)


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
    world = build_world(seed, pooled=True, pool_admission=True,
                        handlers=slots, max_sessions=slots,
                        client_hosts=first_wave + 1,
                        recorder_capacity=max(256, 32 * slots))
    processes = [
        _spawn_secure_client(world, i, requests=1)[0]
        for i in range(first_wave)
    ]
    late, late_report = _spawn_secure_client(
        world, first_wave, requests=1, start_s=5.0
    )
    done = _finish(world, processes + [late])
    counters = world.counters()
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
    checks = [_check("completed", done)]
    checks.append(_check(
        "slots_refused", refused >= 1,
        f"refused.slots={refused}",
    ))
    checks.append(_check(
        "refusals_account_for_failures", failed_first_wave == refused,
        f"failed={failed_first_wave} refused={refused}",
    ))
    checks.append(_check(
        "refusal_events_recorded", refusal_events == refused,
        f"recorder events={refusal_events} refused={refused}",
    ))
    checks.append(_check(
        "pool_ceiling_respected",
        occupied.get("high_water", 0.0) <= slots,
        f"peak occupancy={occupied.get('high_water', 0.0)} slots={slots}",
    ))
    checks.append(_check(
        "pool_drained", occupied.get("value", 0.0) == 0,
        f"occupancy={occupied.get('value', 0.0)} after settle",
    ))
    checks.append(_check(
        "recovered_after_burst", late_report.error is None,
        f"late client error={late_report.error!r}",
    ))
    checks += _check_quiescent(world)
    return _verdict(f"pool-burst-{slots}", world, checks)


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
