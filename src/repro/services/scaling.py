"""The concurrency scaling curve: offered connections vs the pool.

Figure 3 concedes "a maximum of three connections" because the port
hardcodes three request costatements.  :func:`run_scaling_curve`
measures what replacing them with the dynamic connection-slot pool
(:func:`repro.services.redirector.build_rmc_redirector` with
``pooled=True``) buys: the same fixed client workload offered to the
static 3-costatement build and to pools of {3, 8, 16, 32} slots on one
device, recording completed-request throughput, p50/p95/p99 request
latency (a :class:`repro.obs.metrics.QuantileSketch`), the refusal
rate, and the xmem budget accounting per point.

Everything is simulated and seeded, so the whole section is
byte-identical between runs and between ``--jobs 1`` and ``--jobs 2``
(the fan-out worker is module-level and points merge in task order).
The section lands in the bench snapshot as ``redirector_scaling`` and
the gate claims pin its summary: a pool of >= 8 slots strictly beats
the static build's throughput, with zero xmem budget violations and
monotone throughput / refusal-rate curves across pool sizes.
"""

from __future__ import annotations

from repro.crypto.demokeys import DEMO_PSK
from repro.crypto.prng import CipherRng
from repro.fanout import ordered_map
from repro.issl import IsslContext, RMC2000_ASM, UNIX_FULL
from repro.obs import NullTelemetryStore, NullTracer, Obs
from repro.obs.metrics import QuantileSketch
from repro.services.client import (
    ClientReport,
    delayed,
    secure_request_client,
)
from repro.services.redirector import TLS_PORT
from repro.services.world import build_redirector_world

#: The pool sizes the paper-breaking curve is measured at.
SCALING_POOL_SIZES = (3, 8, 16, 32)

#: Default scaling workload: enough offered connections to saturate the
#: largest pool without dwarfing the smallest.
DEFAULT_CLIENTS = 24
DEFAULT_REQUESTS = 2
DEFAULT_REQUEST_SIZE = 64
DEFAULT_SEED = 2000

#: One device's xmem budget for the whole curve: every point runs on
#: the same allocator capacity, so a pool sized past it would have to
#: refuse (``redirector.refused.memory``), never allocate past it.
XMEM_CAPACITY = 192 * 1024

#: LAN shape: enough propagation delay that handshake round trips
#: dominate a connection's lifetime -- the regime where concurrency
#: (not CPU) is the bottleneck Figure 3's static trio leaves on the
#: table.
_BANDWIDTH_BPS = 10_000_000
_LATENCY_S = 10e-3

#: Refused clients retry with a short deterministic backoff (plus a
#: per-client stagger so retries never re-collide in lockstep).
_RETRY_BACKOFF_S = 0.05
_RETRY_STAGGER_S = 0.002


def _seed_bytes(seed: int, label: str) -> bytes:
    return f"scaling:{seed}:{label}".encode()


def _retrying_client(host, server_ip, port, requests, request_size,
                     reports, index, seed, retry_limit, backoff_s):
    """Generator: run the secure client until it completes its requests,
    retrying (fresh issl context, deterministic backoff) after a refusal.

    A refused connection surfaces client-side as a reset mid-handshake;
    each attempt gets its own context so a torn attempt can never leak
    a client session slot into the next one.
    """
    attempt = 0
    while True:
        report = ClientReport(f"client{index}.a{attempt}")
        reports.append(report)
        context = IsslContext(
            UNIX_FULL,
            CipherRng(_seed_bytes(seed, f"client{index}.a{attempt}")),
            psk=DEMO_PSK, obs=host.sim.obs,
        )
        yield from secure_request_client(
            host, context, server_ip, port, requests, request_size, report,
        )
        if report.error is None and len(report.request_times) == requests:
            return report
        attempt += 1
        if attempt > retry_limit:
            return report
        yield backoff_s * attempt + index * _RETRY_STAGGER_S


def run_scaling_point(*, variant: str, slots: int,
                      clients: int = DEFAULT_CLIENTS,
                      requests: int = DEFAULT_REQUESTS,
                      request_size: int = DEFAULT_REQUEST_SIZE,
                      seed: int = DEFAULT_SEED,
                      retry_limit: int | None = None,
                      backoff_s: float = _RETRY_BACKOFF_S) -> dict:
    """One point on the curve: ``variant`` is ``"static"`` (Figure 3's
    three costatements) or ``"pool"`` (the dynamic slot pool at
    ``slots``).  Returns a plain insertion-ordered dict of metrics.
    """
    if variant not in ("static", "pool"):
        raise ValueError(f"variant must be static/pool, got {variant!r}")
    if retry_limit is None:
        # Worst case every surplus connection retries against the
        # smallest pool; leave comfortable headroom.
        retry_limit = 2 * clients // max(1, slots) + 4
    # The curve reads metrics only: no tracer, no telemetry.
    world = build_redirector_world(
        _seed_bytes(seed, "server"), clients=clients,
        obs=Obs(tracer=NullTracer(), telemetry=NullTelemetryStore()),
        bandwidth_bps=_BANDWIDTH_BPS, latency_s=_LATENCY_S,
        cost_model=RMC2000_ASM, max_sessions=slots, logger_capacity=64,
        xmem_capacity=XMEM_CAPACITY, buffer_pool=True, handlers=slots,
        pooled=variant == "pool", handshake_timeout_s=5.0,
        handshake_retries=1, conn_deadline_s=10.0, backend_timeout_s=5.0,
    )
    sim, obs, hosts, xmem = world.sim, world.obs, world.hosts, world.xmem
    reports: list[ClientReport] = []
    finals: list[ClientReport | None] = [None] * clients
    processes = []
    server_ip = str(hosts["rmc"].ip_address)

    def client_process(index):
        final = yield from delayed(
            index * _RETRY_STAGGER_S,
            _retrying_client(hosts[f"c{index}"], server_ip, TLS_PORT,
                             requests, request_size, reports, index, seed,
                             retry_limit, backoff_s),
        )
        finals[index] = final

    for index in range(clients):
        processes.append(hosts[f"c{index}"].spawn(
            client_process(index), name=f"scaling:client{index}"
        ))
    for process in processes:
        sim.run_until_complete(process, timeout=600)
    sim.run(until=sim.now + 2.0)
    world.scheduler.stop()
    counters = dict(obs.metrics.snapshot()["counters"])
    gauges = obs.metrics.snapshot()["gauges"]
    sketch = QuantileSketch("redirector.request_latency_s")
    for report in reports:
        for latency in report.request_times:
            sketch.observe(latency)
    completed = world.stats.get("redirected", 0)
    attempts = len(reports)
    refused_slots = counters.get("redirector.refused.slots", 0)
    refused_sessions = counters.get("redirector.refused.sessions", 0)
    refused_memory = counters.get("redirector.refused.memory", 0)
    refused = refused_slots + refused_sessions + refused_memory
    makespan = max((f.end for f in finals if f is not None), default=0.0)
    latency = sketch.percentiles()
    occupied = gauges.get("redirector.slots.occupied", {})
    return {
        "variant": variant,
        "slots": slots,
        "clients": clients,
        "requests_per_client": requests,
        "attempts": attempts,
        "completed_requests": completed,
        "clients_completed": sum(
            1 for f in finals if f is not None and f.error is None
        ),
        "refused_connections": refused,
        "refused_slots": refused_slots,
        "refused_sessions": refused_sessions,
        "refused_memory": refused_memory,
        "refusal_rate": round(refused / attempts, 6) if attempts else 0.0,
        "makespan_s": round(makespan, 6),
        "throughput_rps": (
            round(completed / makespan, 6) if makespan > 0 else 0.0
        ),
        "latency_s": {
            "p50": round(latency["p50"], 6),
            "p95": round(latency["p95"], 6),
            "p99": round(latency["p99"], 6),
        },
        "peak_slots_occupied": occupied.get("high_water", 0.0),
        "xmem_used_bytes": xmem.used,
        "xmem_capacity_bytes": xmem.capacity,
        "xmem_budget_violations": int(xmem.used > xmem.capacity),
    }


def _scaling_worker(task: tuple) -> dict:
    """Run one point; module-level so multiprocessing can pickle it."""
    variant, slots, kwargs = task
    return run_scaling_point(variant=variant, slots=slots, **kwargs)


def _non_decreasing(values: list[float]) -> int:
    return int(all(b >= a - 1e-9 for a, b in zip(values, values[1:])))


def _non_increasing(values: list[float]) -> int:
    return int(all(b <= a + 1e-9 for a, b in zip(values, values[1:])))


def run_scaling_curve(*, pool_sizes: tuple = SCALING_POOL_SIZES,
                      clients: int = DEFAULT_CLIENTS,
                      requests: int = DEFAULT_REQUESTS,
                      request_size: int = DEFAULT_REQUEST_SIZE,
                      seed: int = DEFAULT_SEED,
                      jobs: int = 1) -> dict:
    """The full curve: the static-3 baseline plus every pool size under
    one fixed offered workload.  Returns the ``redirector_scaling``
    snapshot section."""
    # dict.fromkeys, not a set: simulation-tree code never iterates sets.
    sizes = sorted(dict.fromkeys(pool_sizes))
    kwargs = dict(clients=clients, requests=requests,
                  request_size=request_size, seed=seed)
    tasks = [("static", 3, kwargs)] + [("pool", n, kwargs) for n in sizes]
    points = ordered_map(_scaling_worker, tasks, jobs)
    static3 = points[0]
    pools = {str(n): point for n, point in zip(sizes, points[1:])}
    rps = [pools[str(n)]["throughput_rps"] for n in sizes]
    refusal = [pools[str(n)]["refusal_rate"] for n in sizes]
    violations = sum(p["xmem_budget_violations"] for p in points)
    summary = {
        "throughput_rps_static3": static3["throughput_rps"],
        "monotone_throughput": _non_decreasing(rps),
        "monotone_refusal_rate": _non_increasing(refusal),
        "xmem_budget_violations": violations,
    }
    if "8" in pools and static3["throughput_rps"] > 0:
        summary["speedup_8_vs_static3"] = round(
            pools["8"]["throughput_rps"] / static3["throughput_rps"], 6
        )
    return {
        "workload": {
            "clients": clients,
            "requests_per_client": requests,
            "request_size": request_size,
            "seed": seed,
            "pool_sizes": list(sizes),
            "xmem_capacity_bytes": XMEM_CAPACITY,
        },
        "static3": static3,
        "pools": pools,
        "summary": summary,
    }
