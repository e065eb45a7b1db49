"""Gate logic: claim evaluation, reproduced flags, drift integration."""

from repro.bench.gate import (
    CLAIMS,
    OBS_RECORDER_OVERHEAD_PCT,
    SCALING_CLAIMS,
    Claim,
    evaluate_gate,
)

from tests.bench.conftest import make_snapshot


def _result_for(report, experiment_id, metric):
    for result in report.claim_results:
        claim = result.claim
        if claim.experiment_id == experiment_id and claim.metric == metric:
            return result
    raise AssertionError(f"no claim {experiment_id}.{metric}")


class TestClaimEvaluation:
    def test_holding_claim_ok(self, snapshot):
        result = Claim("E1", "asm_over_c_speed_ratio", ">=", 10.0,
                       "order of magnitude").evaluate(snapshot)
        assert result.status == "ok"
        assert result.value == 25.0

    def test_violated_claim(self, snapshot):
        snapshot["experiments"]["E1"]["metrics"][
            "asm_over_c_speed_ratio"
        ] = 4.0
        result = Claim("E1", "asm_over_c_speed_ratio", ">=", 10.0,
                       "order of magnitude").evaluate(snapshot)
        assert result.status == "violated"

    def test_absent_experiment_skipped(self, snapshot):
        result = Claim("E5", "peak_sessions_3_handlers", "==", 3.0,
                       "ceiling").evaluate(snapshot)
        assert result.status == "skipped"

    def test_absent_metric_is_missing(self, snapshot):
        result = Claim("E1", "not_a_metric", ">=", 1.0,
                       "schema drift").evaluate(snapshot)
        assert result.status == "missing-metric"

    def test_claim_table_covers_all_ten_experiments_but_skips_none_extra(
        self,
    ):
        claimed = {claim.experiment_id for claim in CLAIMS}
        assert claimed == {f"E{i}" for i in range(1, 11)}


class TestGateVerdict:
    def test_healthy_snapshot_passes(self, snapshot):
        report = evaluate_gate(snapshot)
        assert report.ok
        assert _result_for(report, "E1",
                           "asm_over_c_speed_ratio").status == "ok"
        # Claims for experiments this snapshot lacks are skipped, not
        # failed: subset snapshots stay gateable.
        assert _result_for(report, "E5",
                           "peak_sessions_3_handlers").status == "skipped"

    def test_violated_claim_fails_gate(self, snapshot):
        snapshot["experiments"]["E1"]["metrics"][
            "asm_over_c_speed_ratio"
        ] = 4.0
        report = evaluate_gate(snapshot)
        assert not report.ok
        assert report.violated_claims

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
        # The claims themselves still hold -- the drift is the failure.
        assert not report.violated_claims

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


class TestSpeedWarning:
    """The warn-only recorder-overhead claim: the same run measured with
    and without the flight recorder warns past the budget but never
    fails the gate."""

    def test_fast_full_run_has_no_warning(self, snapshot):
        report = evaluate_gate(snapshot)
        assert report.speed_warnings == []

    def test_recorder_over_budget_warns_without_failing(self, snapshot):
        norec = 0.2
        snapshot["wall_seconds"]["obs"] = {
            "redirector": norec * (1 + 2 * OBS_RECORDER_OVERHEAD_PCT / 100),
            "redirector_norec": norec,
        }
        report = evaluate_gate(snapshot)
        assert len(report.speed_warnings) == 1
        assert "flight recorder" in report.speed_warnings[0]
        assert report.ok  # warn-only: wall clock never fails the gate
        text = report.format()
        assert "warning (speed, non-fatal)" in text
        assert "verdict: PASS" in text

    def test_recorder_overhead_below_noise_floor_is_ignored(self, snapshot):
        snapshot["wall_seconds"]["obs"] = {
            "redirector": 0.04, "redirector_norec": 0.01,
        }
        assert evaluate_gate(snapshot).speed_warnings == []


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


class TestScalingClaims:
    """The post-paper claims on the dynamic connection-slot pool."""

    def test_claim_table_still_pins_exactly_the_ten_experiments(self):
        # SCALING_CLAIMS live in their own table so the paper's claim
        # census stays E1..E10 exactly.
        claimed = {claim.experiment_id for claim in CLAIMS}
        assert claimed == {f"E{i}" for i in range(1, 11)}
        assert all(claim.section == "redirector_scaling"
                   for claim in SCALING_CLAIMS)

    def test_skipped_when_section_absent(self, snapshot):
        report = evaluate_gate(snapshot)
        assert report.ok
        result = _result_for(report, "SCALING", "speedup_8_vs_static3")
        assert result.status == "skipped"

    def test_healthy_section_passes_all_four_claims(self, snapshot):
        snapshot["redirector_scaling"] = make_scaling_section()
        report = evaluate_gate(snapshot)
        assert report.ok
        for claim in SCALING_CLAIMS:
            result = _result_for(report, "SCALING", claim.metric)
            assert result.status == "ok", claim.metric

    def test_pool8_not_beating_static_fails_gate(self, snapshot):
        snapshot["redirector_scaling"] = make_scaling_section(speedup=0.95)
        report = evaluate_gate(snapshot)
        assert not report.ok
        result = _result_for(report, "SCALING", "speedup_8_vs_static3")
        assert result.status == "violated"

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
        result = _result_for(report, "SCALING", "speedup_8_vs_static3")
        assert result.status == "missing-metric"
        assert not report.ok
