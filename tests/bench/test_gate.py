"""Gate logic: the rule table, reproduced flags, drift integration."""

import json
import pathlib

from repro.bench.gate import (
    MISSING,
    OK,
    RULES,
    SKIPPED,
    VIOLATED,
    WARN,
    Rule,
    evaluate_gate,
)

from tests.bench.conftest import make_snapshot

REPO = pathlib.Path(__file__).resolve().parent.parent.parent


def _result_for(report, record, key):
    for result in report.results:
        rule = result.rule
        if rule.record == record and rule.key == key:
            return result
    raise AssertionError(f"no rule {record}: {key}")


def _named(report, name):
    for result in report.results:
        if result.rule.name == name:
            return result
    raise AssertionError(f"no rule {name}")


def _redirector(snapshot):
    return snapshot["obs"]["redirector"]


class TestClaimEvaluation:
    def test_holding_claim_ok(self, snapshot):
        result = Rule("e1", "experiments/E1",
                      "metrics/asm_over_c_speed_ratio", ">=", 10.0,
                      "order of magnitude").evaluate(snapshot)
        assert result.status == OK
        assert result.value == 25.0

    def test_violated_claim(self, snapshot):
        snapshot["experiments"]["E1"]["metrics"][
            "asm_over_c_speed_ratio"
        ] = 4.0
        result = Rule("e1", "experiments/E1",
                      "metrics/asm_over_c_speed_ratio", ">=", 10.0,
                      "order of magnitude").evaluate(snapshot)
        assert result.status == VIOLATED

    def test_absent_experiment_skipped(self, snapshot):
        result = Rule("e5", "experiments/E5",
                      "metrics/peak_sessions_3_handlers", "==", 3.0,
                      "ceiling").evaluate(snapshot)
        assert result.status == SKIPPED

    def test_absent_metric_is_missing(self, snapshot):
        result = Rule("e1", "experiments/E1", "metrics/not_a_metric",
                      ">=", 1.0, "schema drift").evaluate(snapshot)
        assert result.status == MISSING

    def test_claim_table_covers_all_ten_experiments_but_skips_none_extra(
        self,
    ):
        claimed = {rule.record for rule in RULES
                   if rule.record.startswith("experiments/")}
        assert claimed == {f"experiments/E{i}" for i in range(1, 11)}


class TestRuleTable:
    """The one table every gate verdict comes from."""

    def test_every_rule_reads_a_value_on_the_committed_baseline(self):
        """A mistyped record or key reads as skipped or missing here."""
        baseline = json.loads(
            (REPO / "BENCH_baseline.json").read_text(encoding="utf-8")
        )
        report = evaluate_gate(baseline)
        assert len(report.results) == len(RULES) == 26
        for result in report.results:
            assert result.status == OK, result.row()
        assert report.ok

    def test_names_are_unique(self):
        names = [rule.name for rule in RULES]
        assert len(names) == len(set(names))

    def test_only_the_big_loop_gap_warns(self):
        assert [rule.name for rule in RULES
                if rule.severity == WARN] == ["bigloop-gap-p99"]


class TestResolution:
    def test_path_walks_nested_keys(self, snapshot):
        _redirector(snapshot)["histograms"]["costate.gap_s"]["p99"] = 0.04
        result = _named(evaluate_gate(snapshot), "bigloop-gap-p99")
        assert result.status == OK
        assert result.value == 0.04
        ceiling = _named(evaluate_gate(snapshot),
                         "session-ceiling-respected")
        assert ceiling.value == 3.0

    def test_booleans_resolve_as_numbers(self, snapshot):
        snapshot["experiments"]["E1"]["metrics"]["flag"] = True
        result = Rule("flag", "experiments/E1", "metrics/flag", "==", 1.0,
                      "booleans compare as 0/1").evaluate(snapshot)
        assert result.status == OK

    def test_absent_or_non_scalar_is_none(self, snapshot):
        absent = Rule("absent", "obs/redirector", "counters/nope", "==",
                      0.0, "").evaluate(snapshot)
        assert (absent.value, absent.status) == (None, MISSING)
        not_scalar = Rule("dict", "obs/redirector", "counters", "==", 0.0,
                          "").evaluate(snapshot)
        assert (not_scalar.value, not_scalar.status) == (None, MISSING)
        no_record = Rule("record", "obs/nowhere", "counters/x", "==", 0.0,
                         "").evaluate(snapshot)
        assert (no_record.value, no_record.status) == (None, SKIPPED)


class TestEvaluation:
    def test_statuses_and_values(self, snapshot):
        report = evaluate_gate(snapshot)
        assert _named(report, "asm-order-of-magnitude").value == 25.0
        assert _named(report, "asm-order-of-magnitude").status == OK
        assert _named(report, "three-handler-ceiling").status == SKIPPED
        gap = _named(report, "bigloop-gap-p99")
        assert (gap.value, gap.status) == (0.005, OK)

    def test_missing_key_fails_at_error_severity(self, snapshot):
        del _redirector(snapshot)["counters"]["issl.handshakes.failed"]
        report = evaluate_gate(snapshot)
        assert not report.ok
        (failure,) = report.failing
        assert failure.rule.name == "clean-load-handshakes"
        assert failure.status == MISSING

    def test_missing_key_at_warn_severity_only_reports(self, snapshot):
        del _redirector(snapshot)["histograms"]["costate.gap_s"]["p99"]
        report = evaluate_gate(snapshot)
        assert report.ok
        assert [r.rule.name for r in report.violated] == ["bigloop-gap-p99"]

    def test_error_violation_fails(self, snapshot):
        _redirector(snapshot)["gauges"]["issl.sessions.active"][
            "high_water"
        ] = 4.0
        report = evaluate_gate(snapshot)
        assert not report.ok
        (failure,) = report.failing
        assert failure.rule.name == "session-ceiling-respected"
        assert failure.status == VIOLATED

    def test_warn_violation_does_not_fail(self, snapshot):
        _redirector(snapshot)["histograms"]["costate.gap_s"]["p99"] = 0.5
        report = evaluate_gate(snapshot)
        assert report.ok
        assert report.failing == []
        assert [r.rule.name for r in report.violated] == ["bigloop-gap-p99"]

    def test_format_has_per_rule_lines_and_verdict(self, snapshot):
        _redirector(snapshot)["counters"]["issl.handshakes.failed"] = 2
        _redirector(snapshot)["histograms"]["costate.gap_s"]["p99"] = 0.5
        text = evaluate_gate(snapshot).format(verbose=True)
        assert "rules: 5 checked, 2 violated" in text
        lines = {line.split()[0]: line.split()
                 for line in text.splitlines() if line.strip()}
        assert "VIOLATED" in lines["clean-load-handshakes"]
        assert "error" in lines["clean-load-handshakes"]
        assert "VIOLATED" in lines["bigloop-gap-p99"]
        assert "warn" in lines["bigloop-gap-p99"]
        assert "OK" in lines["asm-order-of-magnitude"]
        assert "obs/redirector: counters/issl.handshakes.failed == 0" in text
        assert "no handshake fails under fault-free client load" in text
        assert text.endswith("verdict: FAIL")


class TestGateVerdict:
    def test_healthy_snapshot_passes(self, snapshot):
        report = evaluate_gate(snapshot)
        assert report.ok
        assert _result_for(report, "experiments/E1",
                           "metrics/asm_over_c_speed_ratio").status == OK
        # Rules on experiments this snapshot lacks are skipped, not
        # failed: subset snapshots stay gateable.
        assert _result_for(report, "experiments/E5",
                           "metrics/peak_sessions_3_handlers"
                           ).status == SKIPPED

    def test_violated_claim_fails_gate(self, snapshot):
        snapshot["experiments"]["E1"]["metrics"][
            "asm_over_c_speed_ratio"
        ] = 4.0
        report = evaluate_gate(snapshot)
        assert not report.ok
        assert report.violated

    def test_not_reproduced_fails_gate(self, snapshot):
        snapshot["experiments"]["E1"]["reproduced"] = False
        report = evaluate_gate(snapshot)
        assert not report.ok
        assert report.not_reproduced == ["E1"]

    def test_drift_against_baseline_fails_gate(self, snapshot):
        current = make_snapshot()
        current["experiments"]["E1"]["metrics"]["c_cycles_per_block"] *= 1.5
        report = evaluate_gate(current, baseline=snapshot)
        assert not report.ok
        assert report.compare is not None
        assert not report.compare.ok
        # The rules themselves still hold -- the drift is the failure.
        assert not report.violated

    def test_no_baseline_means_claims_only(self, snapshot):
        report = evaluate_gate(snapshot)
        assert report.compare is None
        assert report.ok


class TestGateRendering:
    def test_format_readable_on_failure(self, snapshot):
        snapshot["experiments"]["E1"]["metrics"][
            "asm_over_c_speed_ratio"
        ] = 4.0
        text = evaluate_gate(snapshot).format()
        assert "asm_over_c_speed_ratio >= 10" in text
        assert "VIOLATED" in text
        assert "verdict: FAIL" in text

    def test_format_pass(self, snapshot):
        text = evaluate_gate(snapshot).format()
        assert "verdict: PASS" in text

    def test_format_verbose_lists_ok_claims(self, snapshot):
        text = evaluate_gate(snapshot).format(verbose=True)
        assert "order of magnitude" in text


_TAIL_RECORD = {"seq": 5, "t": 0.125, "sev": "ERROR", "cat": "net.tcp",
                "tid": "tcp:rmc", "msg": "connection reset"}


class TestRecorderTailAttachment:
    def _with_tail(self, snapshot):
        _redirector(snapshot)["recorder_tail"] = [_TAIL_RECORD]
        return snapshot

    def test_error_violation_attaches_the_embedded_tail(self, snapshot):
        snapshot = self._with_tail(snapshot)
        _redirector(snapshot)["counters"]["issl.records.mac_failures"] = 2
        report = evaluate_gate(snapshot)
        assert not report.ok
        assert report.recorder_tail == [_TAIL_RECORD]
        text = report.format()
        assert "flight recorder tail (last 1 events):" in text
        assert "connection reset" in text

    def test_violated_paper_rule_attaches_the_tail_too(self, snapshot):
        snapshot = self._with_tail(snapshot)
        snapshot["experiments"]["E1"]["metrics"][
            "asm_over_c_speed_ratio"
        ] = 4.0
        assert evaluate_gate(snapshot).recorder_tail == [_TAIL_RECORD]

    def test_passing_report_attaches_nothing(self, snapshot):
        report = evaluate_gate(self._with_tail(snapshot))
        assert report.ok
        assert report.recorder_tail == []
        assert "flight recorder" not in report.format()

    def test_warn_severity_violation_attaches_nothing(self, snapshot):
        snapshot = self._with_tail(snapshot)
        _redirector(snapshot)["histograms"]["costate.gap_s"]["p99"] = 0.5
        report = evaluate_gate(snapshot)
        assert report.ok
        assert report.recorder_tail == []

    def test_document_without_a_tail_formats_cleanly(self, snapshot):
        del _redirector(snapshot)["recorder_tail"]
        _redirector(snapshot)["counters"]["issl.records.mac_failures"] = 2
        report = evaluate_gate(snapshot)
        assert not report.ok
        assert "flight recorder" not in report.format()


def _scaling_point(variant, slots, throughput, refusal_rate=0.0):
    return {
        "variant": variant, "slots": slots, "clients": 6,
        "requests_per_client": 1, "attempts": 6,
        "completed_requests": 6, "clients_completed": 6,
        "refused_connections": 0, "refused_slots": 0,
        "refused_sessions": 0, "refused_memory": 0,
        "refusal_rate": refusal_rate, "makespan_s": 1.0,
        "throughput_rps": throughput,
        "latency_s": {"p50": 0.1, "p95": 0.2, "p99": 0.3},
        "peak_slots_occupied": float(slots),
        "xmem_used_bytes": 4096, "xmem_capacity_bytes": 196608,
        "xmem_budget_violations": 0,
    }


def make_scaling_section(speedup=1.25) -> dict:
    static = _scaling_point("static", 3, 20.0)
    return {
        "workload": {"clients": 6, "requests_per_client": 1,
                     "request_size": 64, "seed": 2000,
                     "pool_sizes": [3, 8],
                     "xmem_capacity_bytes": 196608},
        "static3": static,
        "pools": {
            "3": _scaling_point("pool", 3, 15.0, refusal_rate=0.4),
            "8": _scaling_point("pool", 8, 20.0 * speedup),
        },
        "summary": {
            "throughput_rps_static3": 20.0,
            "monotone_throughput": 1,
            "monotone_refusal_rate": 1,
            "xmem_budget_violations": 0,
            "speedup_8_vs_static3": speedup,
        },
    }


SCALING_RULES = [rule for rule in RULES
                 if rule.record == "redirector_scaling"]


class TestScalingClaims:
    """The post-paper rules on the dynamic connection-slot pool."""

    def test_claim_table_still_pins_exactly_the_ten_experiments(self):
        # The scaling and redirector rules read their own records, so
        # the paper's experiment census stays E1..E10 exactly.
        records = {rule.record for rule in RULES}
        assert records == {f"experiments/E{i}" for i in range(1, 11)} | {
            "redirector_scaling", "obs/redirector",
        }
        assert len(SCALING_RULES) == 4

    def test_skipped_when_section_absent(self, snapshot):
        report = evaluate_gate(snapshot)
        assert report.ok
        result = _result_for(report, "redirector_scaling",
                             "summary/speedup_8_vs_static3")
        assert result.status == SKIPPED

    def test_healthy_section_passes_all_four_claims(self, snapshot):
        snapshot["redirector_scaling"] = make_scaling_section()
        report = evaluate_gate(snapshot)
        assert report.ok
        for rule in SCALING_RULES:
            result = _result_for(report, rule.record, rule.key)
            assert result.status == OK, rule.key

    def test_pool8_not_beating_static_fails_gate(self, snapshot):
        snapshot["redirector_scaling"] = make_scaling_section(speedup=0.95)
        report = evaluate_gate(snapshot)
        assert not report.ok
        result = _result_for(report, "redirector_scaling",
                             "summary/speedup_8_vs_static3")
        assert result.status == VIOLATED

    def test_budget_violation_fails_gate(self, snapshot):
        section = make_scaling_section()
        section["summary"]["xmem_budget_violations"] = 1
        snapshot["redirector_scaling"] = section
        report = evaluate_gate(snapshot)
        assert not report.ok

    def test_non_monotone_curve_fails_gate(self, snapshot):
        section = make_scaling_section()
        section["summary"]["monotone_throughput"] = 0
        snapshot["redirector_scaling"] = section
        report = evaluate_gate(snapshot)
        assert not report.ok

    def test_missing_summary_metric_is_violated(self, snapshot):
        section = make_scaling_section()
        del section["summary"]["speedup_8_vs_static3"]
        snapshot["redirector_scaling"] = section
        report = evaluate_gate(snapshot)
        result = _result_for(report, "redirector_scaling",
                             "summary/speedup_8_vs_static3")
        assert result.status == MISSING
        assert not report.ok
