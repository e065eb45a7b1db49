"""repro.bench: machine-readable benchmark snapshots and a perf gate.

The paper's evaluation is a handful of hard-won numbers (the 25x AES
asm/C ratio, the ~20% optimization sweep, the 3-connection ceiling, the
order-of-magnitude TLS throughput loss).  PR 2 built the instruments;
this package makes the measurements durable: every run of the E1..E10
battery plus obs-derived detail (per-routine cycle attribution, issl
counters, latency-histogram percentiles) is captured as a
schema-versioned ``BENCH_<tag>.json`` at the repo root, so the repo's
perf trajectory is diffable PR over PR and a regression in any headline
claim fails CI instead of shipping silently.

* :mod:`repro.bench.schema` -- the snapshot format: versioning,
  validation, atomic save, load, metric flattening.
* :mod:`repro.bench.snapshot` -- runs the battery + obs scenarios and
  builds a snapshot (simulated, seed-determined content only).
* :mod:`repro.bench.compare` -- per-metric diffs under one tight
  tolerance band for the deterministic metrics.
* :mod:`repro.bench.gate` -- paper-claim assertions + drift gating
  against the committed baseline; non-zero exit on regression.
* :mod:`repro.bench.trend` -- the trajectory across all ``BENCH_*``
  snapshots as a text/markdown report.
* :mod:`repro.bench.cli` -- ``python -m repro.bench
  {run,compare,trend,gate,show}``.
"""

from __future__ import annotations

from repro.bench.compare import (
    DETERMINISTIC_BAND,
    CompareReport,
    MetricDiff,
    ToleranceBand,
    compare_snapshots,
)
from repro.bench.gate import CLAIMS, Claim, GateReport, evaluate_gate
from repro.bench.schema import (
    SCHEMA_VERSION,
    BenchSchemaError,
    default_snapshot_path,
    flatten_metrics,
    list_snapshots,
    load_snapshot,
    save_snapshot,
    validate_snapshot,
)
from repro.bench.snapshot import QUICK_WORKLOAD, build_snapshot
from repro.bench.trend import trend_rows

__all__ = [
    "CLAIMS",
    "Claim",
    "CompareReport",
    "DETERMINISTIC_BAND",
    "GateReport",
    "MetricDiff",
    "QUICK_WORKLOAD",
    "SCHEMA_VERSION",
    "BenchSchemaError",
    "ToleranceBand",
    "build_snapshot",
    "compare_snapshots",
    "default_snapshot_path",
    "evaluate_gate",
    "flatten_metrics",
    "list_snapshots",
    "load_snapshot",
    "save_snapshot",
    "trend_rows",
    "validate_snapshot",
]
