"""The regression gate: paper claims + drift against the baseline.

Two layers of defense, failed independently:

1. **Claims** -- absolute assertions lifted straight from the paper's
   findings (E1 ratio at least an order of magnitude, the E5 ceiling
   pinned at three, ...).  These hold whatever the baseline says; a
   snapshot that violates one no longer reproduces the paper.
2. **Drift** -- every deterministic metric compared against the
   committed baseline snapshot under
   :data:`repro.bench.compare.DETERMINISTIC_BAND`.  Catches silent
   regressions that stay on the right side of the claims (an AES
   "optimization" that doubles cycles/block but keeps the ratio over
   10x still fails here).

``evaluate_gate`` returns a :class:`GateReport`; the CLI exits non-zero
unless ``report.ok``.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field

from repro.bench.compare import CompareReport, compare_snapshots

_OPS = {
    ">=": operator.ge,
    ">": operator.gt,
    "<=": operator.le,
    "<": operator.lt,
    "==": operator.eq,
    "!=": operator.ne,
}

OK = "ok"
VIOLATED = "violated"
SKIPPED = "skipped"
MISSING = "missing-metric"


@dataclass(frozen=True)
class Claim:
    """One paper-level assertion on a snapshot metric.

    ``section`` picks the snapshot top-level the claim reads.  The
    default, ``"experiments"``, is keyed by ``experiment_id`` with the
    value under ``metrics``; any other section is a plain dict whose
    value lives under ``summary`` (the ``redirector_scaling`` shape).
    A snapshot without the section skips the claim -- quick snapshots
    may omit optional sections entirely -- but a present section with
    the metric missing is a violation, as for experiment claims.
    """

    experiment_id: str
    metric: str
    op: str
    threshold: float
    description: str
    section: str = "experiments"

    def evaluate(self, document: dict) -> "ClaimResult":
        if self.section == "experiments":
            record = document["experiments"].get(self.experiment_id)
        else:
            record = document.get(self.section)
        if record is None:
            return ClaimResult(self, None, SKIPPED)
        if self.section == "experiments":
            value = record.get("metrics", {}).get(self.metric)
        else:
            value = record.get("summary", {}).get(self.metric)
        if value is None:
            return ClaimResult(self, None, MISSING)
        holds = _OPS[self.op](value, self.threshold)
        return ClaimResult(self, value, OK if holds else VIOLATED)


@dataclass
class ClaimResult:
    claim: Claim
    value: float | None
    status: str

    def row(self) -> dict:
        claim = self.claim
        return {
            "experiment": claim.experiment_id,
            "claim": f"{claim.metric} {claim.op} {claim.threshold:g}",
            "value": self.value,
            "status": self.status.upper(),
            "paper finding": claim.description,
        }


#: The headline findings the gate refuses to lose (paper Sections 2-6).
CLAIMS: tuple[Claim, ...] = (
    Claim("E1", "asm_over_c_speed_ratio", ">=", 10.0,
          "assembly faster than the C port by an order of magnitude"),
    Claim("E2", "combined_gain_pct", ">=", 10.0,
          "C optimizations combined stay in the tens of percent"),
    Claim("E2", "combined_gain_pct", "<=", 45.0,
          "...and nowhere near the assembly's order of magnitude"),
    Claim("E2", "max_individual_gain_pct", "<", 30.0,
          "no single C knob approaches the assembly speedup"),
    Claim("E3", "asm_speed_ratio", ">=", 5.0,
          "smaller assembly still vastly faster (size != speed)"),
    Claim("E3", "pearson_r_size_cycles", "<", 0.5,
          "code size uncorrelated with execution speed"),
    Claim("E3", "asm_size_delta_pct", ">", 0.0,
          "assembly smaller than the release C build"),
    Claim("E4", "plain_over_secure_asm_ratio", ">=", 5.0,
          "TLS costs the redirector an order of magnitude of throughput"),
    Claim("E5", "peak_sessions_3_handlers", "==", 3.0,
          "three handler costatements pin concurrency at three"),
    Claim("E5", "peak_sessions_5_handlers", ">", 3.0,
          "recompiling with more costatements lifts the ceiling"),
    Claim("E6", "api_overlap_calls", "==", 0.0,
          "BSD and Dynamic C servers share no socket API calls"),
    Claim("E6", "payloads_identical", "==", 1.0,
          "equivalent behaviour despite the different API"),
    Claim("E7", "port_fits", "==", 1.0,
          "the fully static port fits the RMC2000 memory budget"),
    Claim("E7", "xalloc_churn_connections", "<", 100.0,
          "an allocate-only xalloc port dies under connection churn"),
    Claim("E8", "isr_latency_max_cycles", "<=", 30.0,
          "serial ISR entry stays within tens of cycles"),
    Claim("E9", "paper_named_symbols_missing", "==", 0.0,
          "every porting problem the paper names is found in the census"),
    Claim("E10", "rsa512_naive_seconds", ">", 300.0,
          "RSA-512 private op takes minutes on the Rabbit (RSA dropped)"),
    Claim("E10", "rsa512_asm_seconds", ">", 10.0,
          "...still unshippable even granting the full assembly speedup"),
)

#: The post-paper claims on the dynamic connection-slot pool: the
#: ``redirector_scaling`` snapshot section must show the pool breaking
#: Figure 3's three-connection ceiling without breaking anything else.
#: Kept separate from :data:`CLAIMS` -- that table is pinned to the
#: paper's ten experiments -- and keyed by section, not experiment.
SCALING_CLAIMS: tuple[Claim, ...] = (
    Claim("SCALING", "speedup_8_vs_static3", ">", 1.0,
          "a dynamic pool of >= 8 slots strictly beats the static "
          "3-costatement build's throughput",
          section="redirector_scaling"),
    Claim("SCALING", "xmem_budget_violations", "==", 0.0,
          "no point on the curve allocates past the xmem budget",
          section="redirector_scaling"),
    Claim("SCALING", "monotone_throughput", "==", 1.0,
          "throughput is monotone non-decreasing in pool size",
          section="redirector_scaling"),
    Claim("SCALING", "monotone_refusal_rate", "==", 1.0,
          "refusal rate is monotone non-increasing in pool size",
          section="redirector_scaling"),
)

@dataclass
class GateReport:
    """Everything the gate checked, and the verdict."""

    tag: str
    claim_results: list[ClaimResult] = field(default_factory=list)
    not_reproduced: list[str] = field(default_factory=list)
    faults_failed: list[str] = field(default_factory=list)
    compare: CompareReport | None = None
    #: Declarative objectives (:mod:`repro.obs.slo`); an error-severity
    #: rule that is not met fails the gate alongside claims and drift.
    slo: object | None = None

    @property
    def violated_claims(self) -> list[ClaimResult]:
        return [r for r in self.claim_results
                if r.status in (VIOLATED, MISSING)]

    @property
    def ok(self) -> bool:
        if (self.violated_claims or self.not_reproduced
                or self.faults_failed):
            return False
        if self.slo is not None and not self.slo.ok:
            return False
        return self.compare.ok if self.compare is not None else True

    def format(self, verbose: bool = False) -> str:
        from repro.experiments.harness import format_table

        lines = [f"gate: snapshot={self.tag}"]
        shown = (self.claim_results if verbose
                 else self.violated_claims)
        checked = len([r for r in self.claim_results
                       if r.status != SKIPPED])
        lines.append(
            f"  claims: {checked} checked, "
            f"{len(self.violated_claims)} violated"
        )
        if shown:
            lines.append(format_table([r.row() for r in shown]))
        if self.not_reproduced:
            lines.append(
                "  experiments no longer reproducing: "
                + ", ".join(self.not_reproduced)
            )
        if self.faults_failed:
            lines.append(
                "  fault scenarios no longer recovering: "
                + ", ".join(self.faults_failed)
            )
        if self.slo is not None:
            lines.append(self.slo.format(verbose=verbose))
        if self.compare is not None:
            lines.append(self.compare.format(verbose=verbose))
        lines.append(f"  verdict: {'PASS' if self.ok else 'FAIL'}")
        return "\n".join(lines)


def evaluate_gate(current: dict,
                  baseline: dict | None = None,
                  slo_rules: list | None = None) -> GateReport:
    """Check claims and reproduced flags on ``current``; when a
    ``baseline`` snapshot is given, also drift-gate against it; when
    ``slo_rules`` (:class:`repro.obs.slo.SloRule`) are given, evaluate
    them against ``current`` and fold error-severity misses into the
    verdict."""
    report = GateReport(tag=current.get("tag", "?"))
    report.claim_results = [
        claim.evaluate(current) for claim in CLAIMS + SCALING_CLAIMS
    ]
    report.not_reproduced = [
        experiment_id
        for experiment_id, record in sorted(current["experiments"].items())
        if not record.get("reproduced")
    ]
    report.faults_failed = [
        name
        for name, scenario in sorted(
            current.get("faults", {}).get("scenarios", {}).items()
        )
        if not scenario.get("ok")
    ]
    if slo_rules is not None:
        from repro.obs.slo import evaluate_slo

        report.slo = evaluate_slo(slo_rules, current)
    if baseline is not None:
        report.compare = compare_snapshots(baseline, current)
    return report
