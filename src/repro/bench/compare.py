"""Snapshot comparison: per-metric diffs under one tolerance band.

Every metric comes off the simulator, which is bit-for-bit
deterministic, so any drift means the *code* changed.  Under :data:`DETERMINISTIC_BAND`, sub-0.1% drift
passes (float rounding in derived ratios), up to 2% warns (an
intentional change that should come with a baseline refresh), beyond
that fails.

A metric present on only one side is reported (``added``/``removed``)
at warn level: schema drift should be visible, but growing the metric
set must not break the gate retroactively.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.bench.schema import BenchSchemaError, flatten_metrics

PASS = "pass"
WARN = "warn"
FAIL = "fail"
ADDED = "added"
REMOVED = "removed"


@dataclass(frozen=True)
class ToleranceBand:
    """Relative-drift thresholds for a metric diff."""

    #: Relative drift beyond which the diff is a WARN.
    warn_rel: float
    #: Relative drift beyond which the diff is a FAIL.
    fail_rel: float
    #: Absolute drift at or below this always passes, whatever the
    #: relative looks like (guards division around zero).
    abs_floor: float = 1e-9


DETERMINISTIC_BAND = ToleranceBand(warn_rel=0.001, fail_rel=0.02)


@dataclass
class MetricDiff:
    """One metric's baseline-vs-current verdict."""

    name: str
    baseline: float | None
    current: float | None
    status: str
    rel_drift: float = 0.0

    @property
    def delta(self) -> float | None:
        if self.baseline is None or self.current is None:
            return None
        return self.current - self.baseline

    def row(self) -> dict:
        return {
            "metric": self.name,
            "baseline": self.baseline,
            "current": self.current,
            "delta": self.delta,
            "drift": f"{self.rel_drift * 100:+.2f}%"
            if self.baseline is not None and self.current is not None
            else "-",
            "status": self.status.upper(),
        }


def _classify(value_delta: float, baseline: float,
              band: ToleranceBand) -> tuple[str, float]:
    magnitude = abs(value_delta)
    rel = magnitude / max(abs(baseline), band.abs_floor)
    signed_rel = rel if value_delta >= 0 else -rel
    if magnitude <= band.abs_floor:
        return PASS, signed_rel
    if rel > band.fail_rel:
        return FAIL, signed_rel
    if rel > band.warn_rel:
        return WARN, signed_rel
    return PASS, signed_rel


def _diff_maps(baseline: dict, current: dict,
               band: ToleranceBand) -> list[MetricDiff]:
    diffs = []
    for name in sorted(set(baseline) | set(current)):
        if name not in current:
            diffs.append(MetricDiff(name, baseline[name], None, REMOVED))
        elif name not in baseline:
            diffs.append(MetricDiff(name, None, current[name], ADDED))
        else:
            status, rel = _classify(
                current[name] - baseline[name], baseline[name], band
            )
            diffs.append(MetricDiff(name, baseline[name], current[name],
                                    status, rel))
    return diffs


@dataclass
class CompareReport:
    """Every metric diff between two snapshots, plus the verdict."""

    baseline_tag: str
    current_tag: str
    diffs: list[MetricDiff] = field(default_factory=list)
    #: Regression-forensics text (:func:`repro.obs.diff.forensics_text`)
    #: attached by :func:`compare_snapshots` whenever any diff warns or
    #: fails: top routine cycle deltas, the first simulated-time
    #: telemetry divergence, the flight-recorder tail.  None when every
    #: metric passed.
    forensics: str | None = None

    def _with_status(self, *statuses: str) -> list[MetricDiff]:
        return [d for d in self.diffs if d.status in statuses]

    @property
    def failures(self) -> list[MetricDiff]:
        return self._with_status(FAIL)

    @property
    def warnings(self) -> list[MetricDiff]:
        return self._with_status(WARN, ADDED, REMOVED)

    @property
    def ok(self) -> bool:
        return not self.failures

    def counts(self) -> dict:
        counts = {PASS: 0, WARN: 0, FAIL: 0, ADDED: 0, REMOVED: 0}
        for diff in self.diffs:
            counts[diff.status] += 1
        return counts

    def format(self, verbose: bool = False) -> str:
        from repro.experiments.harness import format_table

        shown = self.diffs if verbose else self._with_status(
            FAIL, WARN, ADDED, REMOVED
        )
        counts = self.counts()
        lines = [
            f"compare: baseline={self.baseline_tag} "
            f"current={self.current_tag}",
            f"  {counts[PASS]} pass, {counts[WARN]} warn, "
            f"{counts[FAIL]} fail, {counts[ADDED]} added, "
            f"{counts[REMOVED]} removed",
        ]
        if shown:
            lines.append(format_table([d.row() for d in shown]))
        elif not verbose:
            lines.append("  all metrics within tolerance")
        if self.forensics:
            lines.append(self.forensics)
        return "\n".join(lines)


def compare_snapshots(baseline: dict, current: dict) -> CompareReport:
    """Diff every metric of two snapshot documents.

    Raises :class:`BenchSchemaError` when the snapshots ran different
    workloads -- quick and full runs measure different work and must
    never be drift-gated against each other.
    """
    if baseline.get("workload") != current.get("workload"):
        raise BenchSchemaError(
            f"cannot compare workloads "
            f"{baseline.get('workload')!r} vs {current.get('workload')!r}; "
            f"re-run the snapshot with the matching workload"
        )
    report = CompareReport(
        baseline_tag=baseline.get("tag", "?"),
        current_tag=current.get("tag", "?"),
        diffs=_diff_maps(flatten_metrics(baseline), flatten_metrics(current),
                         DETERMINISTIC_BAND),
    )
    if report.failures or report.warnings:
        # Lazy import: obs.diff is pure data -> text and tolerates
        # snapshots without embedded telemetry/recorder sections, so
        # forensics attach to any warn/fail without re-running anything.
        from repro.obs.diff import forensics_text

        report.forensics = forensics_text(baseline, current)
    return report
