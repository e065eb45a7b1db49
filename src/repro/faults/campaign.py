"""Campaign runner: scenarios -> verdicts -> reproducible JSON reports.

Three entry points, mirrored by ``python -m repro.faults``:

* :func:`run_scenario` -- one named scenario, one verdict.  Unhandled
  exceptions anywhere in issl/the redirector/the stack are themselves a
  failed check (``no_unhandled_exception``), never a crash: the whole
  point of the campaign is that the port fails *closed*.
* :func:`run_matrix` -- every (or a chosen subset of) scenario, one
  report with a top-level PASS/FAIL verdict.
* :func:`run_soak` -- the redirector under sustained mixed faults for N
  simulated minutes: waves of well-behaved clients interleaved with a
  rotating misbehaving one, over a lossy/duplicating/delaying link.
  Checks at the end are about exhaustion, not throughput: no wedged
  wave, every session slot and xmem buffer back home, allocation count
  flat (the no-free allocator must not grow), request accounting exact.

Reports contain no wall-clock timestamps -- only simulated time and
counters -- so the same seed yields byte-identical JSON (the property
``tests/faults/test_cli.py`` pins).
"""

from __future__ import annotations

import gc
import json
import random

from repro.fanout import ordered_map
from repro.faults import injectors as inj
from repro.faults.clients import (
    half_handshake_client,
    silent_client,
    stalling_client,
)
from repro.faults.scenarios import (
    _check,
    _check_quiescent,
    _client_context,
    _report_counters,
    SCENARIOS,
    build_world,
)
from repro.net.sim import SimulationError
from repro.services import ClientReport, TLS_PORT, secure_request_client

#: Bump when report structure changes; consumers (repro.bench) key on it.
REPORT_SCHEMA_VERSION = 1

#: Arbitrary but fixed: campaigns are reproducible, not random.
DEFAULT_SEED = 2000


def scenario_names() -> list[str]:
    """All named scenarios, in report order."""
    return list(SCENARIOS)


def scenario_descriptions() -> dict:
    return {name: desc for name, (_fn, desc) in SCENARIOS.items()}


def _crash_verdict(name: str, exc: BaseException) -> dict:
    return {
        "name": name,
        "ok": False,
        "sim_seconds": None,
        "checks": [_check(
            "no_unhandled_exception", False,
            f"{type(exc).__name__}: {exc}",
        )],
        "counters": {},
        "clients": [],
    }


def run_scenario(name: str, seed: int = DEFAULT_SEED) -> dict:
    """Run one named scenario; always returns a verdict, never raises
    (an escaped exception becomes a failed ``no_unhandled_exception``
    check -- that IS the acceptance criterion)."""
    if name not in SCENARIOS:
        raise KeyError(
            f"unknown scenario {name!r}; known: {', '.join(SCENARIOS)}"
        )
    runner, description = SCENARIOS[name]
    # The world holds reference cycles (events and processes point back
    # at the simulator, services at their host), so only the collector
    # frees it.  Collect it before returning: left to the generational
    # collector it can outlive later scenarios, and a matrix's peak
    # memory would depend on collection timing, not on one world's size.
    # Freezing what existed before the runner keeps that collection to
    # the scenario's own objects.  A caller's freeze already does so, and
    # unfreeze would thaw the caller's objects too: leave it alone.
    freeze = gc.get_freeze_count() == 0
    if freeze:
        gc.freeze()
    try:
        verdict = runner(seed)
    except Exception as exc:  # noqa: BLE001 -- escaped == verdict, by design
        verdict = _crash_verdict(name, exc)
    finally:
        gc.collect()
        if freeze:
            gc.unfreeze()
    verdict["description"] = description
    return verdict


def _scenario_worker(task: tuple[str, int]) -> dict:
    """Module-level so multiprocessing can pickle it."""
    name, seed = task
    return run_scenario(name, seed)


def run_matrix(names: list[str] | None = None,
               seed: int = DEFAULT_SEED, jobs: int = 1) -> dict:
    """Run the full matrix (or ``names``) and wrap it in a report.

    ``jobs > 1`` fans the scenarios out over worker processes; the
    report is merged in scenario order and is byte-identical to the
    sequential run.
    """
    chosen = list(names) if names is not None else scenario_names()
    unknown = [n for n in chosen if n not in SCENARIOS]
    if unknown:
        raise KeyError(
            f"unknown scenario(s) {', '.join(unknown)}; "
            f"known: {', '.join(SCENARIOS)}"
        )
    verdicts = ordered_map(_scenario_worker, [(n, seed) for n in chosen],
                           jobs)
    # Merge the per-scenario registries (popped side channel) in scenario
    # order: the merged section is byte-identical whether the scenarios
    # ran sequentially or fanned out, because the merge inputs and order
    # are the same either way.
    from repro.obs.metrics import MetricsRegistry

    merged = MetricsRegistry()
    for verdict in verdicts:
        state = verdict.pop("_registry", None)
        if state is not None:
            merged.merge_state(state)
    passed = sum(1 for v in verdicts if v["ok"])
    return {
        "schema": REPORT_SCHEMA_VERSION,
        "kind": "matrix",
        "seed": seed,
        "scenarios": verdicts,
        "metrics": merged.snapshot(),
        "total": len(verdicts),
        "passed": passed,
        "failed": len(verdicts) - passed,
        "verdict": "PASS" if passed == len(verdicts) else "FAIL",
    }


# ---------------------------------------------------------------------------
# Soak
# ---------------------------------------------------------------------------

#: One misbehaving peer per wave, round-robin.
_SOAK_MISCHIEF = ("silent", "rst", "stall", "fin")


def _spawn_mischief(world, wave: int):
    """Spawn this wave's misbehaving peer on host ``c2``."""
    kind = _SOAK_MISCHIEF[wave % len(_SOAK_MISCHIEF)]
    host = world.hosts["c2"]
    rmc_ip = str(world.hosts["rmc"].ip_address)
    report = ClientReport(f"wave{wave}-{kind}")
    if kind == "silent":
        gen = silent_client(host, rmc_ip, TLS_PORT, hold_s=3.0,
                            report=report)
    elif kind == "stall":
        gen = stalling_client(host, _client_context(world, f"soak:{wave}:2"),
                              rmc_ip, TLS_PORT, report, stall_s=3.0)
    else:  # "rst" / "fin"
        gen = half_handshake_client(
            host, _client_context(world, f"soak:{wave}:2"), rmc_ip,
            TLS_PORT, report, teardown=kind,
        )
    return host.spawn(gen, name=f"soak:{kind}:{wave}"), report, kind


def run_soak(sim_minutes: float = 1.0, seed: int = DEFAULT_SEED) -> dict:
    """Sustained mixed-fault campaign against one redirector deployment.

    Link faults are probabilistic but seeded; every wave is two
    well-behaved clients plus one misbehaving peer.  Runs until
    ``sim_minutes`` of simulated time have elapsed.
    """
    if sim_minutes <= 0:
        raise ValueError(f"sim_minutes must be positive, got {sim_minutes}")
    world = build_world(seed, client_hosts=3, buffer_pool=True)
    pool = world.buffer_pool
    rng = random.Random(seed)
    link_faults = inj.install(
        world.lan,
        inj.DropFrames(
            inj.match_probability(0.02, rng, inj.is_tcp), obs=world.obs
        ),
        inj.DuplicateFrames(
            inj.match_probability(0.02, rng, inj.is_tcp), obs=world.obs
        ),
        inj.DelayFrames(
            inj.match_probability(0.02, rng, inj.is_tcp),
            extra_s=0.05, obs=world.obs,
        ),
    )
    sim = world.sim
    rmc_ip = str(world.hosts["rmc"].ip_address)
    horizon = sim_minutes * 60.0
    waves = 0
    wedged_wave = None
    mischief_kinds: dict = {}
    good_reports: list[ClientReport] = []
    while sim.now < horizon and wedged_wave is None:
        processes = []
        for index in range(2):
            host = world.hosts[f"c{index}"]
            report = ClientReport(f"wave{waves}-client{index}")
            good_reports.append(report)
            processes.append(host.spawn(secure_request_client(
                host, _client_context(world, f"soak:{waves}:{index}"),
                rmc_ip, TLS_PORT, 2, 32, report,
            ), name=f"soak:client{index}:{waves}"))
        process, report, kind = _spawn_mischief(world, waves)
        processes.append(process)
        mischief_kinds[kind] = mischief_kinds.get(kind, 0) + 1
        if kind == "stall":
            good_reports.append(report)  # its one good request counts
        try:
            for proc in processes:
                sim.run_until_complete(proc, timeout=600)
        except SimulationError:
            wedged_wave = waves
        waves += 1
    if wedged_wave is None:
        sim.run(until=sim.now + 5.0)
    world.scheduler.stop()

    requests_ok = sum(len(r.request_times) for r in good_reports)
    clients_ok = sum(
        1 for r in good_reports
        if r.error is None or r.name.endswith("stall")
    )
    redirected = world.stats.get("redirected", 0)
    injected = sum(f.injected for f in link_faults)
    checks = [
        _check("no_wedged_wave", wedged_wave is None,
               "all waves completed" if wedged_wave is None
               else f"wave {wedged_wave} deadlocked or timed out"),
        *_check_quiescent(world),
        _check(
            "xalloc_flat", world.xmem.allocations <= pool.max_slots,
            f"allocations={world.xmem.allocations} <= {pool.max_slots} slots "
            f"(no-free allocator must not grow)",
        ),
        _check(
            "request_accounting_exact", redirected == requests_ok,
            f"redirected={redirected} == client-confirmed={requests_ok}",
        ),
        _check("faults_fired", injected > 0,
               f"{injected} link faults injected"),
        _check("served_under_fire", requests_ok > 0,
               f"{requests_ok} requests completed"),
    ]
    passed = sum(1 for check in checks if check["ok"])
    return {
        "schema": REPORT_SCHEMA_VERSION,
        "kind": "soak",
        "seed": seed,
        "sim_minutes": sim_minutes,
        "sim_seconds": round(sim.now, 6),
        "waves": waves,
        "mischief": dict(sorted(mischief_kinds.items())),
        "clients": len(good_reports),
        "clients_ok": clients_ok,
        "requests_ok": requests_ok,
        "checks": checks,
        "counters": _report_counters(world.obs),
        "total": len(checks),
        "passed": passed,
        "failed": len(checks) - passed,
        "verdict": "PASS" if passed == len(checks) else "FAIL",
    }


def render_report(report: dict) -> str:
    """The canonical byte-stable JSON encoding of a report."""
    return json.dumps(report, indent=1, sort_keys=True) + "\n"
