"""Regression forensics: aligning two runs and naming what moved.

These tests exercise the pure data->text layer on synthetic documents;
the CLI and bench integration get their own subprocess coverage.
"""

import pytest

from repro.bench.schema import SCHEMA_VERSION
from repro.obs.diff import (
    diff_documents,
    diff_routines,
    diff_telemetry,
    diff_trace_trees,
    forensics_text,
    snapshot_first_divergence,
)


def _rows(**cycles):
    return [{"routine": name, "self cycles": value}
            for name, value in cycles.items()]


class TestDiffRoutines:
    def test_largest_magnitude_first_with_signed_deltas(self):
        out = diff_routines(
            _rows(mix_columns=100, sub_bytes=50, add_round_key=10),
            _rows(mix_columns=150, sub_bytes=45, add_round_key=10),
        )
        assert [r["routine"] for r in out] == ["mix_columns", "sub_bytes"]
        assert out[0]["delta"] == 50
        assert out[0]["pct"] == pytest.approx(50.0)
        assert out[1]["delta"] == -5

    def test_added_and_removed_routines_diff_against_zero(self):
        out = diff_routines(_rows(old=10), _rows(new=30))
        assert [(r["routine"], r["delta"]) for r in out] == [
            ("new", 30), ("old", -10),
        ]
        assert out[0]["pct"] is None

    def test_identical_profiles_yield_nothing(self):
        assert diff_routines(_rows(f=5), _rows(f=5)) == []


class TestDiffTelemetry:
    def test_rows_sorted_by_divergence_time(self):
        base = {
            "early": {"times": [0.0, 1.0], "values": [1.0, 2.0]},
            "late": {"times": [0.0, 5.0], "values": [1.0, 2.0]},
            "same": {"times": [0.0], "values": [9.0]},
        }
        current = {
            "early": {"times": [0.0, 1.0], "values": [1.0, 3.0]},
            "late": {"times": [0.0, 5.0], "values": [1.0, 4.0]},
            "same": {"times": [0.0], "values": [9.0]},
        }
        out = diff_telemetry(base, current)
        assert [r["series"] for r in out] == ["early", "late"]
        assert out[0]["diverges_at"] == 1.0

    def test_one_sided_series_diverge_at_their_first_sample(self):
        out = diff_telemetry({}, {"s": {"times": [2.0], "values": [1.0]}})
        assert out == [{"series": "s", "status": "current-only",
                        "diverges_at": 2.0}]


class TestSnapshotFirstDivergence:
    def _doc(self, cycles_values):
        return {
            "obs": {
                "aes_profile": {
                    "c": {"telemetry": {
                        "cpu.cycles": {"times": [0.0, 0.5],
                                       "values": cycles_values},
                    }},
                },
                "redirector": {"telemetry": {}},
            },
        }

    def test_names_scenario_series_and_time(self):
        hit = snapshot_first_divergence(
            self._doc([0.0, 10.0]), self._doc([0.0, 20.0])
        )
        assert hit == {"scenario": "aes:c", "series": "cpu.cycles",
                       "diverges_at": 0.5}

    def test_identical_snapshots_have_no_divergence(self):
        doc = self._doc([0.0, 10.0])
        assert snapshot_first_divergence(doc, self._doc([0.0, 10.0])) is None
        # Snapshots without embedded telemetry (pre-v3) also compare.
        assert snapshot_first_divergence({}, {}) is None


class TestDiffTraceTrees:
    def _chrome(self, spans):
        # spans: (span_id, parent, name, dur)
        return {"traceEvents": [
            {"ph": "X", "name": name, "ts": 0.0, "dur": dur,
             "pid": 1, "tid": "t",
             "args": {"span_id": sid, "parent": parent, "trace": 1}}
            for sid, parent, name, dur in spans
        ]}

    def test_paths_match_by_name_hierarchy_not_span_id(self):
        base = self._chrome([(1, None, "client.request", 100.0),
                             (2, 1, "service.request", 60.0)])
        # Same logical tree, different ids, slower service hop.
        current = self._chrome([(7, None, "client.request", 100.0),
                                (9, 7, "service.request", 90.0)])
        out = diff_trace_trees(base, current)
        assert len(out) == 1
        assert out[0]["path"] == "client.request/service.request"
        assert out[0]["delta_dur_us"] == pytest.approx(30.0)

    def test_repeated_paths_aggregate_counts_and_durations(self):
        base = self._chrome([(1, None, "req", 10.0)])
        current = self._chrome([(1, None, "req", 10.0),
                                (2, None, "req", 15.0)])
        out = diff_trace_trees(base, current)
        assert out[0]["baseline_count"] == 1
        assert out[0]["current_count"] == 2
        assert out[0]["delta_dur_us"] == pytest.approx(15.0)


class TestDiffDocuments:
    def _snapshot(self):
        return {"schema_version": SCHEMA_VERSION, "tag": "x",
                "workload": "quick", "experiments": {}, "obs": {},
                "created_unix": 0.0, "harness": {}}

    def test_two_snapshots_are_rejected_naming_bench_compare(self):
        with pytest.raises(ValueError, match="repro.bench compare"):
            diff_documents(self._snapshot(), self._snapshot())

    def test_two_traces_render_a_trace_diff(self):
        text, changed = diff_documents({"traceEvents": []},
                                       {"traceEvents": []})
        assert not changed
        assert text.startswith("trace diff:")

    def test_mixed_kinds_are_rejected(self):
        with pytest.raises(ValueError, match="cannot diff"):
            diff_documents(self._snapshot(), {"traceEvents": []})


class TestForensicsText:
    def _doc(self, mix_columns):
        return {
            "obs": {
                "aes_profile": {"c": {
                    "routines": _rows(mix_columns=mix_columns,
                                      sub_bytes=50),
                    "telemetry": {"cpu.cycles": {
                        "times": [0.0, 0.25],
                        "values": [0.0, float(mix_columns)],
                    }},
                }},
                "redirector": {
                    "telemetry": {},
                    "recorder_tail": [
                        {"seq": 3, "t": 0.0984, "sev": "DEBUG",
                         "cat": "net.tcp", "tid": "tcp:rmc",
                         "msg": "ESTABLISHED->CLOSE_WAIT"},
                    ],
                },
            },
        }

    def test_names_routine_divergence_and_tail(self):
        current = self._doc(150)
        current["obs"]["redirector"]["recorder_tail"][0]["seq"] = 4
        text = forensics_text(self._doc(100), current)
        assert "mix_columns" in text
        assert "+50 cycles (+50.0%)" in text
        assert "first telemetry divergence: aes:c/cpu.cycles" in text
        assert "at t=0.250000000s" in text
        assert "flight recorder tail" in text
        assert "ESTABLISHED->CLOSE_WAIT" in text

    def test_unchanged_redirector_run_prints_no_tail(self):
        """Only the AES profile moved: the redirector's tail is the
        baseline's own and explains nothing."""
        text = forensics_text(self._doc(100), self._doc(150))
        assert "mix_columns" in text
        assert "flight recorder tail" not in text
        assert "ESTABLISHED->CLOSE_WAIT" not in text

    def test_top_caps_the_routine_table(self):
        base = {"obs": {"aes_profile": {"c": {
            "routines": _rows(a=1, b=2, c=3, d=4, e=5)}}}}
        current = {"obs": {"aes_profile": {"c": {
            "routines": _rows(a=10, b=20, c=30, d=40, e=50)}}}}
        text = forensics_text(base, current, top=3)
        assert "... and 2 more routine(s)" in text

    def test_tolerates_snapshots_without_forensics_sections(self):
        text = forensics_text({}, {})
        assert "routine cycle profiles: identical" in text
        assert "divergence: none" in text

    def test_identical_documents_report_no_divergence(self):
        doc = self._doc(100)
        text = forensics_text(doc, self._doc(100))
        assert "divergence: none (series identical)" in text
