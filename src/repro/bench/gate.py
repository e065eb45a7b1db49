"""The regression gate: paper rules + drift against the baseline.

Two layers of defense, failed independently:

1. **Rules** -- absolute assertions lifted straight from the paper's
   findings (E1 ratio at least an order of magnitude, the E5 ceiling
   pinned at three, ...), from the slot pool's scaling curve, and from
   the instrumented redirector run (no handshake fails on a clean link,
   concurrency never passes three).  These hold whatever the baseline
   says; a snapshot that violates one no longer reproduces the paper.
2. **Drift** -- every deterministic metric compared exactly against
   the committed baseline snapshot (:mod:`repro.bench.compare`).
   Catches silent regressions that stay on the right side of the rules
   (an AES "optimization" that adds cycles per block but keeps the
   ratio over 10x still fails here).

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

ERROR = "error"
WARN = "warn"


def _lookup(node: object, path: str) -> object:
    """Walk a "/"-separated key path; ``None`` where it leaves the dicts."""
    for key in path.split("/"):
        if not isinstance(node, dict) or key not in node:
            return None
        node = node[key]
    return node


@dataclass(frozen=True)
class Rule:
    """One assertion on a snapshot value.

    ``record`` is the "/"-path of the snapshot record the rule reads
    (``experiments/E1``, ``redirector_scaling``, ``obs/redirector``) and
    ``key`` the "/"-path of the value inside it.  A snapshot without
    the record skips the rule -- ``--quick``, ``--only`` and the
    ``--no-*`` runs omit whole records -- but a present record with the
    key absent is a violation: the schema drifted under the rule.  Only
    an ``error`` rule that is violated fails the gate; ``warn`` reports.
    """

    name: str
    record: str
    key: str
    op: str
    threshold: float
    finding: str
    severity: str = ERROR

    def evaluate(self, document: dict) -> "RuleResult":
        record = _lookup(document, self.record)
        if not isinstance(record, dict):
            return RuleResult(self, None, SKIPPED)
        value = _lookup(record, self.key)
        if not isinstance(value, (int, float)):
            return RuleResult(self, None, MISSING)
        holds = _OPS[self.op](value, self.threshold)
        return RuleResult(self, value, OK if holds else VIOLATED)


@dataclass(frozen=True)
class RuleResult:
    rule: Rule
    value: float | None
    status: str

    @property
    def violated(self) -> bool:
        return self.status in (VIOLATED, MISSING)

    @property
    def failing(self) -> bool:
        """Does this result sink the gate (violated at error severity)?"""
        return self.violated and self.rule.severity == ERROR

    def row(self) -> dict:
        rule = self.rule
        return {
            "rule": rule.name,
            "check": f"{rule.record}: {rule.key} {rule.op} "
                     f"{rule.threshold:g}",
            "value": self.value,
            "status": self.status.upper(),
            "severity": rule.severity,
            "paper finding": rule.finding,
        }


#: Everything the gate refuses to lose: the paper's headline findings
#: (Sections 2-6, rules on every experiment E1..E10), the slot pool
#: breaking Figure 3's three-connection ceiling without breaking
#: anything else, and the instrumented redirector run staying clean.
RULES: tuple[Rule, ...] = (
    Rule("asm-order-of-magnitude",
         "experiments/E1", "metrics/asm_over_c_speed_ratio", ">=", 10.0,
         "assembly faster than the C port by an order of magnitude"),
    Rule("c-opts-tens-of-percent",
         "experiments/E2", "metrics/combined_gain_pct", ">=", 10.0,
         "C optimizations combined stay in the tens of percent"),
    Rule("c-opts-below-asm",
         "experiments/E2", "metrics/combined_gain_pct", "<=", 45.0,
         "...and nowhere near the assembly's order of magnitude"),
    Rule("no-single-c-knob",
         "experiments/E2", "metrics/max_individual_gain_pct", "<", 30.0,
         "no single C knob approaches the assembly speedup"),
    Rule("small-asm-still-fast",
         "experiments/E3", "metrics/asm_speed_ratio", ">=", 5.0,
         "smaller assembly still vastly faster (size != speed)"),
    Rule("size-not-speed",
         "experiments/E3", "metrics/pearson_r_size_cycles", "<", 0.5,
         "code size uncorrelated with execution speed"),
    Rule("asm-smaller-than-c",
         "experiments/E3", "metrics/asm_size_delta_pct", ">", 0.0,
         "assembly smaller than the release C build"),
    Rule("tls-costs-order-of-magnitude",
         "experiments/E4", "metrics/plain_over_secure_asm_ratio", ">=", 5.0,
         "TLS costs the redirector an order of magnitude of throughput"),
    Rule("three-handler-ceiling",
         "experiments/E5", "metrics/peak_sessions_3_handlers", "==", 3.0,
         "three handler costatements pin concurrency at three"),
    Rule("more-handlers-lift-ceiling",
         "experiments/E5", "metrics/peak_sessions_5_handlers", ">", 3.0,
         "recompiling with more costatements lifts the ceiling"),
    Rule("no-shared-socket-calls",
         "experiments/E6", "metrics/api_overlap_calls", "==", 0.0,
         "BSD and Dynamic C servers share no socket API calls"),
    Rule("same-payloads",
         "experiments/E6", "metrics/payloads_identical", "==", 1.0,
         "equivalent behaviour despite the different API"),
    Rule("static-port-fits",
         "experiments/E7", "metrics/port_fits", "==", 1.0,
         "the fully static port fits the RMC2000 memory budget"),
    Rule("xalloc-dies-under-churn",
         "experiments/E7", "metrics/xalloc_churn_connections", "<", 100.0,
         "an allocate-only xalloc port dies under connection churn"),
    Rule("isr-latency-tens-of-cycles",
         "experiments/E8", "metrics/isr_latency_max_cycles", "<=", 30.0,
         "serial ISR entry stays within tens of cycles"),
    Rule("named-problems-found",
         "experiments/E9", "metrics/paper_named_symbols_missing", "==", 0.0,
         "every porting problem the paper names is found in the census"),
    Rule("rsa-takes-minutes",
         "experiments/E10", "metrics/rsa512_naive_seconds", ">", 300.0,
         "RSA-512 private op takes minutes on the Rabbit (RSA dropped)"),
    Rule("rsa-asm-still-unshippable",
         "experiments/E10", "metrics/rsa512_asm_seconds", ">", 10.0,
         "...still unshippable even granting the full assembly speedup"),
    Rule("pool8-beats-static3",
         "redirector_scaling", "summary/speedup_8_vs_static3", ">", 1.0,
         "a dynamic pool of >= 8 slots strictly beats the static "
         "3-costatement build's throughput"),
    Rule("pool-within-xmem",
         "redirector_scaling", "summary/xmem_budget_violations", "==", 0.0,
         "no point on the curve allocates past the xmem budget"),
    Rule("throughput-monotone",
         "redirector_scaling", "summary/monotone_throughput", "==", 1.0,
         "throughput is monotone non-decreasing in pool size"),
    Rule("refusals-monotone",
         "redirector_scaling", "summary/monotone_refusal_rate", "==", 1.0,
         "refusal rate is monotone non-increasing in pool size"),
    Rule("clean-load-handshakes",
         "obs/redirector", "counters/issl.handshakes.failed", "==", 0.0,
         "no handshake fails under fault-free client load"),
    Rule("no-record-protection-failures",
         "obs/redirector", "counters/issl.records.mac_failures", "==", 0.0,
         "record protection never trips on a clean link"),
    Rule("session-ceiling-respected",
         "obs/redirector", "gauges/issl.sessions.active/high_water",
         "<=", 3.0,
         "concurrency never exceeds the three handler costatements"),
    Rule("bigloop-gap-p99",
         "obs/redirector", "histograms/costate.gap_s/p99", "<=", 0.1,
         "big-loop starvation stays under 100 ms at the tail", WARN),
)


@dataclass
class GateReport:
    """Everything the gate checked, and the verdict."""

    tag: str
    results: list[RuleResult] = field(default_factory=list)
    not_reproduced: list[str] = field(default_factory=list)
    faults_failed: list[str] = field(default_factory=list)
    compare: CompareReport | None = None
    #: The snapshot's flight-recorder tail, attached when an error rule
    #: fails: the last events before the run ended, so the report
    #: carries *when* things went wrong next to *what* rule failed.
    #: Left empty when the compare's forensics already print it
    #: (:func:`repro.obs.diff.forensics_tail`).
    recorder_tail: list = field(default_factory=list)

    @property
    def violated(self) -> list[RuleResult]:
        return [r for r in self.results if r.violated]

    @property
    def failing(self) -> list[RuleResult]:
        return [r for r in self.results if r.failing]

    @property
    def ok(self) -> bool:
        if self.failing or self.not_reproduced or self.faults_failed:
            return False
        return self.compare.ok if self.compare is not None else True

    def format(self, verbose: bool = False) -> str:
        from repro.experiments.harness import format_table
        from repro.obs.diff import format_recorder_tail

        lines = [f"gate: snapshot={self.tag}"]
        shown = self.results if verbose else self.violated
        checked = len([r for r in self.results if r.status != SKIPPED])
        lines.append(
            f"  rules: {checked} checked, {len(self.violated)} violated"
        )
        if shown:
            lines.append(format_table([r.row() for r in shown]))
        if self.recorder_tail:
            lines.append(
                f"  flight recorder tail "
                f"(last {len(self.recorder_tail)} events):"
            )
            lines += format_recorder_tail(self.recorder_tail)
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
        if self.compare is not None:
            lines.append(self.compare.format(verbose=verbose))
        lines.append(f"  verdict: {'PASS' if self.ok else 'FAIL'}")
        return "\n".join(lines)


def evaluate_gate(current: dict,
                  baseline: dict | None = None) -> GateReport:
    """Check every rule and the reproduced flags on ``current``; when a
    ``baseline`` snapshot is given, also drift-gate against it."""
    from repro.obs.diff import forensics_tail

    report = GateReport(tag=current.get("tag", "?"))
    report.results = [rule.evaluate(current) for rule in RULES]
    if baseline is not None:
        report.compare = compare_snapshots(baseline, current)
    # The compare's forensics print the tail of a changed redirector run.
    printed = bool(report.compare and report.compare.forensics
                   and forensics_tail(baseline, current))
    if report.failing and not printed:
        tail = _lookup(current, "obs/redirector/recorder_tail")
        report.recorder_tail = tail if isinstance(tail, list) else []
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
    return report
