"""E5: the three-connection ceiling (paper, Section 5.3 / Figure 3).

"to handle multiple connections and processes, we split the application
into four processes: three processes to handle requests (allowing a
maximum of three connections), and one to drive the TCP stack. ... We
could easily increase the number of processes (and hence simultaneous
connections) by adding more costatements, but the program would have to
be re-compiled."

M clients connect at once, each running a fixed request load.  With 3
handler costatements at most 3 sessions are ever live concurrently; a
4th client waits for a slot, which shows up as a completion-time step.
"Recompiling" with 5 costatements removes the step.
"""

from __future__ import annotations

from repro.crypto.demokeys import DEMO_PSK
from repro.crypto.prng import CipherRng
from repro.experiments.harness import ExperimentResult
from repro.issl import FREE, IsslContext, UNIX_FULL
from repro.services import (
    ClientReport,
    TLS_PORT,
    build_redirector_world,
    secure_request_client,
)


def run_scenario(clients: int, handlers: int, requests: int = 20,
                 request_size: int = 256):
    """All ``clients`` connect at t=0 against ``handlers`` costatements.

    Returns (reports, server_context); crypto cost is zeroed so the
    measured delays are pure slot queueing.
    """
    # Fast LAN: the experiment isolates handler-slot queueing, so the
    # wire must not be the bottleneck (E4 owns the bandwidth story).
    world = build_redirector_world(
        b"e5", clients=clients, bandwidth_bps=100_000_000, cost_model=FREE,
        max_sessions=handlers, handlers=handlers,
    )
    hosts = world.hosts
    reports = []
    processes = []
    for index in range(clients):
        host = hosts[f"c{index}"]
        report = ClientReport(f"c{index}")
        reports.append(report)
        client_context = IsslContext(
            UNIX_FULL, CipherRng(b"e5c%d" % index), psk=DEMO_PSK
        )
        processes.append(host.spawn(secure_request_client(
            host, client_context, str(hosts["rmc"].ip_address), TLS_PORT,
            requests, request_size, report,
        )))
    for process in processes:
        world.sim.run_until_complete(process, timeout=3600)
    return reports, world.context


def run_e5(max_clients: int = 5) -> ExperimentResult:
    rows = []
    peaks = {}
    max_waits = {}
    served_all = True
    for clients in range(1, max_clients + 1):
        reports, context = run_scenario(clients, handlers=3)
        finished = [r for r in reports if not r.error]
        completion = max(r.end for r in reports)
        # A queued client's ClientHello sits unanswered until a handler
        # slot frees, so its handshake time *is* its queueing delay.
        max_wait = max(r.handshake_time for r in reports)
        peaks[clients] = context.sessions_peak
        max_waits[clients] = max_wait
        rows.append({
            "clients": clients,
            "handlers": 3,
            "served": len(finished),
            "peak concurrent sessions": context.sessions_peak,
            "worst handshake wait (ms)": round(max_wait * 1000, 2),
            "all done (s)": round(completion, 3),
        })
        if len(finished) != clients:
            served_all = False
    # "Recompile with more costatements": same 5-client load, 5 handlers.
    wide_reports, wide_context = run_scenario(max_clients, handlers=5)
    wide_completion = max(r.end for r in wide_reports)
    wide_wait = max(r.handshake_time for r in wide_reports)
    rows.append({
        "clients": max_clients,
        "handlers": 5,
        "served": len([r for r in wide_reports if not r.error]),
        "peak concurrent sessions": wide_context.sessions_peak,
        "worst handshake wait (ms)": round(wide_wait * 1000, 2),
        "all done (s)": round(wide_completion, 3),
    })
    ceiling_respected = all(
        peaks[m] <= min(m, 3) for m in peaks
    ) and peaks[max_clients] == 3
    wide_peak_rises = wide_context.sessions_peak > 3
    # 4th/5th clients wait a full service turn; with 5 handlers they don't.
    queue_step = max_waits[4] / max(max_waits[3], 1e-9)
    recompile_relief = max_waits[max_clients] / max(wide_wait, 1e-9)
    reproduced = (
        served_all
        and ceiling_respected
        and wide_peak_rises
        and queue_step > 3.0
        and recompile_relief > 3.0
    )
    metrics = {
        "peak_sessions_3_handlers": peaks[max_clients],
        "peak_sessions_5_handlers": wide_context.sessions_peak,
        "queue_step_ratio": queue_step,
        "recompile_relief_ratio": recompile_relief,
        "worst_wait_ms_at_ceiling": max_waits[max_clients] * 1000,
        "worst_wait_ms_5_handlers": wide_wait * 1000,
        "clients_tested": max_clients,
    }
    return ExperimentResult(
        experiment_id="E5",
        title="Connection concurrency ceiling of the costatement structure",
        metrics=metrics,
        paper_claim=(
            "three handler costatements allow a maximum of three "
            "connections; more requires recompiling with more costatements"
        ),
        rows=rows,
        summary=(
            f"peak concurrency pinned at 3 with 3 handlers; worst "
            f"handshake wait jumps {queue_step:.1f}x when the 4th client "
            f"arrives; recompiling with 5 handlers cuts that wait "
            f"{recompile_relief:.1f}x and lifts peak concurrency to "
            f"{wide_context.sessions_peak}"
        ),
        reproduced=reproduced,
        notes="crypto cost zeroed so the measured delay is pure queueing",
    )
