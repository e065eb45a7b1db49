"""Snapshot comparison: every flat metric against the baseline, exactly.

Every metric comes off the simulator, which is bit-for-bit
deterministic, so a metric passes only if it equals the baseline; any
change fails.  A change made on purpose refreshes the committed
baseline in the same change.

A metric present on only one side is reported (``added``/``removed``)
at warn level: schema drift should be visible, but growing the metric
set must not break the gate retroactively, and ``--only``/``--no-*``
runs drop whole sections.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.bench.schema import BenchSchemaError, flatten_metrics

PASS = "pass"
FAIL = "fail"
ADDED = "added"
REMOVED = "removed"


@dataclass
class MetricDiff:
    """One metric's baseline-vs-current verdict."""

    name: str
    baseline: float | None
    current: float | None
    status: str

    @property
    def delta(self) -> float | None:
        if self.baseline is None or self.current is None:
            return None
        return self.current - self.baseline

    def row(self) -> dict:
        """Table row with every number at full precision (``repr``):
        a one-ulp change must not render as two equal cells."""
        def exact(value) -> str:
            return "-" if value is None else repr(value)

        return {
            "metric": self.name,
            "baseline": exact(self.baseline),
            "current": exact(self.current),
            "delta": exact(self.delta),
            "status": self.status.upper(),
        }


def _diff_maps(baseline: dict, current: dict) -> list[MetricDiff]:
    diffs = []
    for name in sorted(set(baseline) | set(current)):
        if name not in current:
            status = REMOVED
        elif name not in baseline:
            status = ADDED
        else:
            status = PASS if current[name] == baseline[name] else FAIL
        diffs.append(MetricDiff(name, baseline.get(name), current.get(name),
                                status))
    return diffs


@dataclass
class CompareReport:
    """Every metric diff between two snapshots, plus the verdict."""

    baseline_tag: str
    current_tag: str
    diffs: list[MetricDiff] = field(default_factory=list)
    #: Regression-forensics text (:func:`repro.obs.diff.forensics_text`)
    #: attached by :func:`compare_snapshots` whenever any metric changed
    #: or exists on one side only: top routine cycle deltas, the first
    #: simulated-time telemetry divergence, the flight-recorder tail.
    #: None when every metric passed.
    forensics: str | None = None

    def _with_status(self, *statuses: str) -> list[MetricDiff]:
        return [d for d in self.diffs if d.status in statuses]

    @property
    def failures(self) -> list[MetricDiff]:
        return self._with_status(FAIL)

    @property
    def warnings(self) -> list[MetricDiff]:
        return self._with_status(ADDED, REMOVED)

    @property
    def ok(self) -> bool:
        return not self.failures

    def counts(self) -> dict:
        counts = {PASS: 0, FAIL: 0, ADDED: 0, REMOVED: 0}
        for diff in self.diffs:
            counts[diff.status] += 1
        return counts

    def format(self, verbose: bool = False) -> str:
        from repro.experiments.harness import format_table

        shown = self.diffs if verbose else self._with_status(
            FAIL, ADDED, REMOVED
        )
        counts = self.counts()
        lines = [
            f"compare: baseline={self.baseline_tag} "
            f"current={self.current_tag}",
            f"  {counts[PASS]} pass, {counts[FAIL]} fail, "
            f"{counts[ADDED]} added, {counts[REMOVED]} removed",
        ]
        if shown:
            lines.append(format_table([d.row() for d in shown]))
        elif not verbose:
            lines.append("  every metric equals the baseline")
        if self.forensics:
            lines.append(self.forensics)
        return "\n".join(lines)


def compare_snapshots(baseline: dict, current: dict) -> CompareReport:
    """Diff every metric of two snapshot documents.

    Raises :class:`BenchSchemaError` when the snapshots ran different
    workloads -- quick and full runs measure different work and must
    never be gated against each other.
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
        diffs=_diff_maps(flatten_metrics(baseline), flatten_metrics(current)),
    )
    if report.failures or report.warnings:
        # Lazy import: obs.diff is pure data -> text and tolerates
        # snapshots without embedded telemetry/recorder sections, so
        # forensics attach to any change without re-running anything.
        from repro.obs.diff import forensics_text

        report.forensics = forensics_text(baseline, current)
    return report
