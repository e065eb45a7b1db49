"""Snapshot schema: versioning, validation, atomic I/O, flattening.

A snapshot is one JSON document::

    {
      "schema_version": 2,
      "tag": "baseline",
      "workload": "full" | "quick",
      "created_unix": 1754460000.0,
      "created_iso": "2026-08-06T...Z",
      "harness": {"python": "3.12.3", "platform": "linux", ...},
      "experiments": {"E1": <ExperimentResult.to_dict()>, ...},
      "obs": {"aes_profile": {...}, "redirector": {...}},
      "faults": {"seed": ..., "scenarios": {"baseline": {...}, ...}}
    }

Apart from the ``created_*`` stamp and the ``harness`` description,
every value is simulated and seed-determined; the document holds no
host timings.

The ``faults`` section (fault-injection matrix verdicts and
injected/recovered counters) and the ``redirector_scaling`` section
(the dynamic connection-slot pool's concurrency scaling curve) are
optional, so a run that skips them still validates.

``experiments`` entries are exactly
:meth:`repro.experiments.harness.ExperimentResult.to_dict`, so every
table the text CLI prints is regenerable from a committed snapshot.
Saves are atomic: the document is written to ``<path>.tmp`` and
renamed, so a crashed run never leaves a torn ``BENCH_*.json`` (the
``.tmp`` suffix is gitignored).
"""

from __future__ import annotations

import json
import os
import pathlib

#: Bump on any structural change; ``load_snapshot`` refuses mismatches
#: so a gate never silently compares incompatible documents.
SCHEMA_VERSION = 2

#: Snapshot files live at the repo root as ``BENCH_<tag>.json``.
SNAPSHOT_PREFIX = "BENCH_"

_REQUIRED_TOP_LEVEL = (
    "schema_version", "tag", "workload", "created_unix", "harness",
    "experiments", "obs",
)

_REQUIRED_EXPERIMENT_KEYS = (
    "experiment_id", "title", "paper_claim", "reproduced", "metrics",
)


class BenchSchemaError(ValueError):
    """A snapshot document is missing, torn, or from another schema."""


def default_snapshot_path(tag: str,
                          directory: str | os.PathLike = ".") -> pathlib.Path:
    """``BENCH_<tag>.json`` under ``directory`` (default: cwd)."""
    safe = tag.replace("/", "_")
    return pathlib.Path(directory) / f"{SNAPSHOT_PREFIX}{safe}.json"


def validate_snapshot(document: dict) -> dict:
    """Check shape and version; returns the document for chaining."""
    if not isinstance(document, dict):
        raise BenchSchemaError(
            f"snapshot must be a JSON object, got {type(document).__name__}"
        )
    missing = [key for key in _REQUIRED_TOP_LEVEL if key not in document]
    if missing:
        raise BenchSchemaError(f"snapshot missing top-level keys: {missing}")
    version = document["schema_version"]
    if version != SCHEMA_VERSION:
        raise BenchSchemaError(
            f"snapshot schema_version {version!r} != supported "
            f"{SCHEMA_VERSION}; re-run `python -m repro.bench run`"
        )
    for experiment_id, record in document["experiments"].items():
        bad = [k for k in _REQUIRED_EXPERIMENT_KEYS if k not in record]
        if bad:
            raise BenchSchemaError(
                f"experiment {experiment_id} missing keys: {bad}"
            )
    return document


def save_snapshot(document: dict,
                  path: str | os.PathLike) -> pathlib.Path:
    """Validate and atomically write ``document`` to ``path``."""
    validate_snapshot(document)
    path = pathlib.Path(path)
    tmp = path.with_name(path.name + ".tmp")
    # No sort_keys: row dicts are ordered table columns, and insertion
    # order is deterministic, so the file still diffs cleanly.
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(document, fh, indent=1)
        fh.write("\n")
    os.replace(tmp, path)
    return path


def load_snapshot(path: str | os.PathLike) -> dict:
    """Read and validate one snapshot document."""
    path = pathlib.Path(path)
    try:
        with open(path, encoding="utf-8") as fh:
            document = json.load(fh)
    except FileNotFoundError:
        raise BenchSchemaError(
            f"no snapshot at {path}; run `python -m repro.bench run "
            f"--tag <tag>` first"
        ) from None
    except json.JSONDecodeError as exc:
        raise BenchSchemaError(f"snapshot {path} is not valid JSON: {exc}")
    return validate_snapshot(document)


def flatten_metrics(document: dict) -> dict:
    """One flat ``dotted-name -> scalar`` map of every deterministic
    metric in a snapshot: experiment headline metrics plus obs detail
    (per-routine cycles, counters, gauge high-waters, histogram counts
    and percentiles).
    """
    flat: dict = {}
    for experiment_id, record in sorted(document["experiments"].items()):
        for name, value in sorted(record.get("metrics", {}).items()):
            flat[f"{experiment_id}.{name}"] = value
        flat[f"{experiment_id}.reproduced"] = int(record["reproduced"])
    obs = document.get("obs", {})
    for implementation, profile in sorted(
        obs.get("aes_profile", {}).items()
    ):
        base = f"obs.aes.{implementation}"
        flat[f"{base}.total_cycles"] = profile["total_cycles"]
        flat[f"{base}.blocks"] = profile["blocks"]
        for row in profile.get("routines", []):
            flat[f"{base}.routine.{row['routine']}.self_cycles"] = (
                row["self cycles"]
            )
        for name, series in sorted(profile.get("telemetry", {}).items()):
            flat[f"{base}.telemetry.{name}.samples"] = series["n"]
            flat[f"{base}.telemetry.{name}.last"] = series["last"]
    redirector = obs.get("redirector", {})
    for name, value in sorted(redirector.get("counters", {}).items()):
        flat[f"obs.redirector.counter.{name}"] = value
    for name, series in sorted(redirector.get("telemetry", {}).items()):
        base = f"obs.redirector.telemetry.{name}"
        flat[f"{base}.samples"] = series["n"]
        flat[f"{base}.max"] = series["max"]
    for name, gauge in sorted(redirector.get("gauges", {}).items()):
        flat[f"obs.redirector.gauge.{name}.high_water"] = (
            gauge["high_water"]
        )
    for name, histogram in sorted(redirector.get("histograms", {}).items()):
        base = f"obs.redirector.histogram.{name}"
        flat[f"{base}.count"] = histogram["count"]
        for quantile in ("p50", "p95", "p99"):
            flat[f"{base}.{quantile}"] = histogram[quantile]
    faults = document.get("faults", {})
    for name, scenario in sorted(faults.get("scenarios", {}).items()):
        base = f"faults.{name}"
        flat[f"{base}.ok"] = scenario["ok"]
        for kind, count in sorted(scenario.get("injected", {}).items()):
            flat[f"{base}.injected.{kind}"] = count
        for kind, count in sorted(scenario.get("recovered", {}).items()):
            flat[f"{base}.recovered.{kind}"] = count
    scaling = document.get("redirector_scaling", {})
    points = [("static3", scaling.get("static3"))] + [
        (f"pool{slots}", point)
        for slots, point in sorted(
            scaling.get("pools", {}).items(), key=lambda kv: int(kv[0])
        )
    ]
    for label, point in points:
        if point is None:
            continue
        base = f"scaling.{label}"
        for name in ("attempts", "completed_requests", "clients_completed",
                     "refused_connections", "refused_slots",
                     "refusal_rate", "makespan_s", "throughput_rps",
                     "peak_slots_occupied", "xmem_used_bytes",
                     "xmem_budget_violations"):
            flat[f"{base}.{name}"] = point[name]
        for quantile in ("p50", "p95", "p99"):
            flat[f"{base}.latency_s.{quantile}"] = (
                point["latency_s"][quantile]
            )
    for name, value in sorted(scaling.get("summary", {}).items()):
        flat[f"scaling.summary.{name}"] = value
    return flat

