"""Tolerance-band logic: pass / warn / fail, added/removed."""

import pytest

from repro.bench.compare import DETERMINISTIC_BAND, compare_snapshots
from repro.bench.schema import BenchSchemaError

from tests.bench.conftest import make_snapshot


def _with_metric(document, name, value):
    document["experiments"]["E1"]["metrics"][name] = value
    return document


def _diff(report, name):
    matches = [d for d in report.diffs if d.name == name]
    assert len(matches) == 1, f"{name} not in report"
    return matches[0]


class TestDeterministicBand:
    def test_identical_snapshots_all_pass(self, snapshot):
        report = compare_snapshots(snapshot, make_snapshot())
        assert report.ok
        assert report.failures == []
        counts = report.counts()
        assert counts["warn"] == counts["fail"] == 0
        assert counts["pass"] == len(report.diffs)

    def test_sub_band_drift_passes(self, snapshot):
        current = _with_metric(make_snapshot(), "c_cycles_per_block",
                               512000.0 * 1.0005)
        diff = _diff(compare_snapshots(snapshot, current),
                     "E1.c_cycles_per_block")
        assert diff.status == "pass"

    def test_mid_band_drift_warns(self, snapshot):
        current = _with_metric(make_snapshot(), "c_cycles_per_block",
                               512000.0 * 1.01)
        report = compare_snapshots(snapshot, current)
        diff = _diff(report, "E1.c_cycles_per_block")
        assert diff.status == "warn"
        assert report.ok  # warns alone never fail a compare
        assert diff in report.warnings

    def test_beyond_band_drift_fails(self, snapshot):
        current = _with_metric(make_snapshot(), "c_cycles_per_block",
                               512000.0 * 1.10)
        report = compare_snapshots(snapshot, current)
        diff = _diff(report, "E1.c_cycles_per_block")
        assert diff.status == "fail"
        assert not report.ok
        assert diff.rel_drift == pytest.approx(0.10)

    def test_negative_drift_fails_symmetrically(self, snapshot):
        current = _with_metric(make_snapshot(), "c_cycles_per_block",
                               512000.0 * 0.90)
        diff = _diff(compare_snapshots(snapshot, current),
                     "E1.c_cycles_per_block")
        assert diff.status == "fail"
        assert diff.rel_drift == pytest.approx(-0.10)

    def test_reproduced_flip_fails(self, snapshot):
        current = make_snapshot()
        current["experiments"]["E1"]["reproduced"] = False
        diff = _diff(compare_snapshots(snapshot, current), "E1.reproduced")
        assert diff.status == "fail"

    def test_zero_baseline_uses_abs_floor(self, snapshot):
        baseline = _with_metric(make_snapshot(), "new_zero", 0.0)
        current = _with_metric(make_snapshot(), "new_zero", 1.0)
        assert _diff(compare_snapshots(baseline, current),
                     "E1.new_zero").status == "fail"


class TestAddedRemoved:
    def test_added_metric_warns_not_fails(self, snapshot):
        current = _with_metric(make_snapshot(), "brand_new", 7.0)
        report = compare_snapshots(snapshot, current)
        diff = _diff(report, "E1.brand_new")
        assert diff.status == "added"
        assert diff.delta is None
        assert report.ok

    def test_removed_metric_warns_not_fails(self, snapshot):
        current = make_snapshot()
        del current["experiments"]["E1"]["metrics"]["c_cycles_per_block"]
        report = compare_snapshots(snapshot, current)
        assert _diff(report, "E1.c_cycles_per_block").status == "removed"
        assert report.ok


class TestWorkloadGuard:
    def test_workload_mismatch_raises(self, snapshot):
        with pytest.raises(BenchSchemaError, match="workload"):
            compare_snapshots(snapshot, make_snapshot(workload="quick"))


class TestReportRendering:
    def test_format_lists_failures(self, snapshot):
        current = _with_metric(make_snapshot(), "c_cycles_per_block",
                               700000.0)
        text = compare_snapshots(snapshot, current).format()
        assert "E1.c_cycles_per_block" in text
        assert "FAIL" in text

    def test_format_clean(self, snapshot):
        text = compare_snapshots(snapshot, make_snapshot()).format()
        assert "all metrics within tolerance" in text

    def test_format_verbose_shows_passes(self, snapshot):
        text = compare_snapshots(snapshot, make_snapshot()).format(
            verbose=True
        )
        assert "E1.asm_cycles_per_block" in text

    def test_band_constants(self):
        assert 0 < DETERMINISTIC_BAND.warn_rel < DETERMINISTIC_BAND.fail_rel


class TestForensicsAttachment:
    def test_clean_compare_attaches_no_forensics(self, snapshot):
        report = compare_snapshots(snapshot, make_snapshot())
        assert report.forensics is None
        assert "forensics:" not in report.format()

    def test_failing_compare_attaches_forensics(self, snapshot):
        current = make_snapshot()
        profile = current["obs"]["aes_profile"]["asm"]
        profile["routines"][0]["self cycles"] = 135000
        profile["total_cycles"] = 145000
        telemetry = profile["telemetry"]["cpu.cycles"]
        telemetry["values"][-1] = 145000.0
        telemetry["last"] = 145000.0
        report = compare_snapshots(snapshot, current)
        assert not report.ok
        assert report.forensics is not None
        text = report.format()
        assert "forensics:" in text
        assert "aes_encrypt" in report.forensics
        assert "+45000 cycles" in report.forensics
        assert ("first telemetry divergence: aes:asm/cpu.cycles "
                "at t=0.002000000s") in report.forensics
        # The synthetic snapshot embeds a one-event recorder tail.
        assert "flight recorder tail" in report.forensics
        assert "ESTABLISHED->CLOSE_WAIT" in report.forensics

    def test_warn_only_compare_also_attaches_forensics(self, snapshot):
        current = _with_metric(make_snapshot(), "c_cycles_per_block",
                               512000.0 * 1.01)
        report = compare_snapshots(snapshot, current)
        assert report.ok
        assert report.forensics is not None

    def test_snapshots_without_forensics_sections_still_compare(
        self, snapshot
    ):
        # Pre-v3 snapshots lack telemetry/recorder_tail; a failing
        # compare must still render, just with less detail.
        baseline = make_snapshot()
        current = _with_metric(make_snapshot(), "c_cycles_per_block",
                               700000.0)
        for document in (baseline, current):
            for profile in document["obs"]["aes_profile"].values():
                del profile["telemetry"]
            del document["obs"]["redirector"]["telemetry"]
            del document["obs"]["redirector"]["recorder_tail"]
        report = compare_snapshots(baseline, current)
        assert not report.ok
        assert "divergence: none" in report.forensics
