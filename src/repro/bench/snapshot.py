"""Build one benchmark snapshot: experiments + obs detail + wall clock.

``build_snapshot`` runs the E1..E10 battery through the results-as-data
harness (:class:`repro.experiments.harness.ExperimentResult`), then the
two instrumented obs scenarios for the detail the tables alone don't
carry: per-routine cycle attribution from
:class:`repro.obs.profile.CycleProfiler` for both AES implementations,
and the E4-scenario :class:`repro.obs.MetricsRegistry` counters, gauge
high-waters, and histogram percentiles from the redirector under load.

Everything simulated is deterministic, so those numbers diff exactly
between runs; the snapshot also records how long each piece took on the
host's wall clock, so a regression in the *simulator's* performance is
visible too (with a loose tolerance band -- see
:mod:`repro.bench.compare`).

The ``quick`` workload shrinks every knob for tests; quick and full
snapshots are never compared against each other (the ``workload`` field
guards it).
"""

from __future__ import annotations

import platform
import sys
import time

from repro.bench.schema import SCHEMA_VERSION
from repro.experiments import RUNNERS
from repro.fanout import ordered_map

FULL_WORKLOAD = "full"
QUICK_WORKLOAD = "quick"

#: Per-experiment runner kwargs for the shrunken test workload.  Absent
#: ids run with their defaults in both workloads.
_QUICK_KWARGS: dict[str, dict] = {
    "E1": {"keys": 1, "blocks_per_key": 1},
    "E2": {"keys": 1, "blocks_per_key": 1},
    "E4": {"requests": 3, "request_size": 128},
    "E5": {"max_clients": 4},
    "E10": {"widths": (2, 3)},
}

_QUICK_OBS_KWARGS = {
    "aes": {"keys": 1, "blocks_per_key": 1},
    "redirector": {"clients": 2, "requests": 2, "request_size": 64},
}

#: Fault scenarios in the quick workload -- a fast cross-section (one
#: link fault, one transport fault) next to the yardstick.  The full
#: workload runs the entire matrix.
_QUICK_FAULTS_SCENARIOS = ["baseline", "syn-loss", "rst-midhandshake"]

#: The quick scaling curve keeps pool 8 -- dropping it would turn the
#: gate's speedup_8_vs_static3 claim into a missing metric, which
#: counts as violated.
_QUICK_SCALING_KWARGS = {
    "pool_sizes": (3, 8),
    "clients": 6,
    "requests": 1,
}


def _runner_kwargs(experiment_id: str, workload: str) -> dict:
    if workload == QUICK_WORKLOAD:
        return dict(_QUICK_KWARGS.get(experiment_id, {}))
    return {}


def _harness_info() -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": sys.platform,
        "machine": platform.machine(),
    }


def _collect_obs_detail(workload: str) -> tuple[dict, dict]:
    """Run the instrumented scenarios; returns ``(obs_section, wall)``."""
    from repro.obs.scenarios import run_aes_scenario, run_redirector_scenario

    aes_kwargs = (
        _QUICK_OBS_KWARGS["aes"] if workload == QUICK_WORKLOAD else {}
    )
    redirector_kwargs = (
        _QUICK_OBS_KWARGS["redirector"] if workload == QUICK_WORKLOAD else {}
    )
    obs_section: dict = {"aes_profile": {}}
    wall: dict = {}
    for implementation in ("c", "asm"):
        start = time.time()  # dclint: allow(PY105)
        result = run_aes_scenario(
            implementation=implementation, **aes_kwargs
        )
        wall[f"aes_{implementation}"] = round(time.time() - start, 3)  # dclint: allow(PY105)
        profiler = result["profiler"]
        obs_section["aes_profile"][implementation] = {
            "total_cycles": profiler.total_cycles,
            "blocks": result["blocks"],
            "routines": profiler.report_rows(),
            "telemetry": result["obs"].telemetry.snapshot(),
        }
    start = time.time()  # dclint: allow(PY105)
    result = run_redirector_scenario(**redirector_kwargs)
    wall["redirector"] = round(time.time() - start, 3)  # dclint: allow(PY105)
    # Same scenario with the flight recorder disabled: the pair of wall
    # clocks is what the gate's OBS_RECORDER_OVERHEAD_PCT warn-only
    # claim reads.  Only the timing differs -- the deterministic metric
    # content comes from the recorder-on run above.
    from repro.obs import NullFlightRecorder, Obs

    start = time.time()  # dclint: allow(PY105)
    run_redirector_scenario(
        obs=Obs(recorder=NullFlightRecorder()), **redirector_kwargs
    )
    wall["redirector_norec"] = round(time.time() - start, 3)  # dclint: allow(PY105)
    from repro.obs import DEFAULT_TAIL

    metrics = result["obs"].metrics.snapshot()
    obs_section["redirector"] = {
        "counters": metrics["counters"],
        "gauges": metrics["gauges"],
        "histograms": metrics["histograms"],
        "clients_ok": sum(
            1 for report in result["reports"] if report.error is None
        ),
        # Forensics payload: the simulated-time series and the flight
        # recorder's last events, both deterministic, so a failing
        # compare/gate can attach *when* without re-running anything.
        "telemetry": result["obs"].telemetry.snapshot(),
        "recorder_tail": result["obs"].recorder.dump(last=DEFAULT_TAIL),
    }
    return obs_section, wall


def _counters_by_prefix(counters: dict, prefix: str) -> dict:
    cut = len(prefix)
    return {
        name[cut:]: value for name, value in sorted(counters.items())
        if name.startswith(prefix)
    }


def _collect_faults_detail(workload: str,
                           jobs: int = 1) -> tuple[dict, float]:
    """Run the fault matrix; returns ``(faults_section, wall_seconds)``.

    The section keeps what the gate needs per scenario: the verdict and
    the injected/recovered counters, so a hardening regression (a fault
    that stops being recovered) fails the drift gate even when tier-1
    tests stay green.
    """
    from repro.faults.campaign import DEFAULT_SEED, run_matrix

    names = (
        _QUICK_FAULTS_SCENARIOS if workload == QUICK_WORKLOAD else None
    )
    start = time.time()  # dclint: allow(PY105)
    report = run_matrix(names, seed=DEFAULT_SEED, jobs=jobs)
    wall = round(time.time() - start, 3)  # dclint: allow(PY105)
    scenarios = {}
    for verdict in report["scenarios"]:
        counters = verdict.get("counters", {})
        scenarios[verdict["name"]] = {
            "ok": int(verdict["ok"]),
            "sim_seconds": verdict.get("sim_seconds"),
            "injected": _counters_by_prefix(counters, "faults.injected."),
            "recovered": _counters_by_prefix(counters, "faults.recovered."),
        }
    section = {
        "seed": report["seed"],
        "total": report["total"],
        "passed": report["passed"],
        "failed": report["failed"],
        "scenarios": scenarios,
    }
    return section, wall


def _collect_redirector_scaling(workload: str,
                                jobs: int = 1) -> tuple[dict, float]:
    """Run the connection-slot-pool scaling curve; returns
    ``(section, wall_seconds)``.  The section's deterministic content is
    exactly :func:`repro.services.scaling.run_scaling_curve`."""
    from repro.services.scaling import run_scaling_curve

    kwargs = (
        dict(_QUICK_SCALING_KWARGS) if workload == QUICK_WORKLOAD else {}
    )
    start = time.time()  # dclint: allow(PY105)
    section = run_scaling_curve(jobs=jobs, **kwargs)
    wall = round(time.time() - start, 3)  # dclint: allow(PY105)
    return section, wall


def _experiment_worker(task: tuple[str, dict]) -> tuple[str, dict, float]:
    """Run one experiment; module-level so multiprocessing can pickle it.

    The wall clock is measured inside the worker so per-experiment
    timings stay meaningful under fan-out.
    """
    experiment_id, kwargs = task
    start = time.time()  # dclint: allow(PY105)
    result = RUNNERS[experiment_id](**kwargs)
    return experiment_id, result.to_dict(), round(time.time() - start, 3)  # dclint: allow(PY105)


def build_snapshot(tag: str, *, workload: str = FULL_WORKLOAD,
                   experiments: list[str] | None = None,
                   include_obs: bool = True,
                   include_faults: bool = True,
                   include_scaling: bool = True,
                   jobs: int = 1,
                   progress=None) -> dict:
    """Run the battery and return a schema-versioned snapshot document.

    ``experiments`` restricts the run to a subset of ids (for tests and
    targeted comparisons); ``include_obs=False`` skips the instrumented
    scenarios, ``include_faults=False`` the fault-injection matrix, and
    ``include_scaling=False`` the connection-slot-pool scaling curve.
    ``jobs > 1`` fans the experiments, the fault matrix and the scaling
    curve out over worker processes (:func:`repro.fanout.ordered_map`);
    every record is already seeded and deterministic, and results are
    merged in task order, so the snapshot's non-wall-clock content is
    byte-identical to a sequential run.
    ``progress`` is an optional ``callable(str)`` used by the CLI to
    narrate long runs.
    """
    if workload not in (FULL_WORKLOAD, QUICK_WORKLOAD):
        raise ValueError(f"workload must be full/quick, got {workload!r}")
    wanted = [e.upper() for e in experiments] if experiments else list(RUNNERS)
    unknown = [e for e in wanted if e not in RUNNERS]
    if unknown:
        raise ValueError(
            f"unknown experiment ids: {unknown}; known: {list(RUNNERS)}"
        )
    say = progress if progress is not None else (lambda message: None)
    total_start = time.time()  # dclint: allow(PY105)
    experiment_records: dict = {}
    experiment_wall: dict = {}
    tasks = [(eid, _runner_kwargs(eid, workload)) for eid in wanted]
    say(f"running {', '.join(wanted)} (jobs={jobs}) ...")
    for experiment_id, record, wall in ordered_map(_experiment_worker,
                                                   tasks, jobs):
        experiment_wall[experiment_id] = wall
        experiment_records[experiment_id] = record
    obs_section: dict = {}
    obs_wall: dict = {}
    if include_obs:
        say("running instrumented obs scenarios ...")
        obs_section, obs_wall = _collect_obs_detail(workload)
    faults_section: dict = {}
    faults_wall = 0.0
    if include_faults:
        say("running fault-injection matrix ...")
        faults_section, faults_wall = _collect_faults_detail(workload,
                                                             jobs=jobs)
    scaling_section: dict = {}
    scaling_wall = 0.0
    if include_scaling:
        say("running redirector scaling curve ...")
        scaling_section, scaling_wall = _collect_redirector_scaling(
            workload, jobs=jobs
        )
    created = time.time()  # dclint: allow(PY105)
    wall_seconds = {
        "experiments": experiment_wall,
        "obs": obs_wall,
        "total": round(time.time() - total_start, 3),  # dclint: allow(PY105)
    }
    if include_faults:
        wall_seconds["faults"] = faults_wall
    if include_scaling:
        wall_seconds["redirector_scaling"] = scaling_wall
    document = {
        "schema_version": SCHEMA_VERSION,
        "tag": tag,
        "workload": workload,
        "created_unix": round(created, 3),
        "created_iso": time.strftime(
            "%Y-%m-%dT%H:%M:%SZ", time.gmtime(created)
        ),
        "harness": _harness_info(),
        "experiments": experiment_records,
        "obs": obs_section,
        "faults": faults_section,
        "wall_seconds": wall_seconds,
    }
    if include_scaling:
        document["redirector_scaling"] = scaling_section
    return document
