"""Snapshot schema: round-trip, validation, atomic save, flattening."""

import json

import pytest

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
from repro.experiments.harness import ExperimentResult

from tests.bench.conftest import make_snapshot


class TestValidation:
    def test_valid_document_passes(self, snapshot):
        assert validate_snapshot(snapshot) is snapshot

    def test_non_object_rejected(self):
        with pytest.raises(BenchSchemaError, match="JSON object"):
            validate_snapshot([1, 2, 3])

    def test_missing_top_level_key(self, snapshot):
        del snapshot["workload"]
        with pytest.raises(BenchSchemaError, match="workload"):
            validate_snapshot(snapshot)

    def test_version_mismatch(self, snapshot):
        snapshot["schema_version"] = SCHEMA_VERSION + 1
        with pytest.raises(BenchSchemaError, match="schema_version"):
            validate_snapshot(snapshot)

    def test_experiment_record_shape(self, snapshot):
        del snapshot["experiments"]["E1"]["metrics"]
        with pytest.raises(BenchSchemaError, match="E1"):
            validate_snapshot(snapshot)


class TestRoundTrip:
    def test_save_load_identity(self, tmp_path, snapshot):
        path = save_snapshot(snapshot, tmp_path / "BENCH_t.json")
        assert load_snapshot(path) == snapshot

    def test_save_is_atomic(self, tmp_path, snapshot):
        path = tmp_path / "BENCH_t.json"
        save_snapshot(snapshot, path)
        assert not path.with_name(path.name + ".tmp").exists()

    def test_save_rejects_invalid(self, tmp_path, snapshot):
        del snapshot["obs"]
        with pytest.raises(BenchSchemaError):
            save_snapshot(snapshot, tmp_path / "BENCH_t.json")
        assert list(tmp_path.iterdir()) == []

    def test_load_missing_file(self, tmp_path):
        with pytest.raises(BenchSchemaError, match="no snapshot"):
            load_snapshot(tmp_path / "BENCH_absent.json")

    def test_load_torn_json(self, tmp_path):
        path = tmp_path / "BENCH_torn.json"
        path.write_text('{"schema_version": 1, "tag"')
        with pytest.raises(BenchSchemaError, match="not valid JSON"):
            load_snapshot(path)

    def test_experiment_result_survives_round_trip(self, tmp_path,
                                                   snapshot):
        path = save_snapshot(snapshot, tmp_path / "BENCH_t.json")
        record = load_snapshot(path)["experiments"]["E1"]
        result = ExperimentResult.from_dict(record)
        assert result.metrics["asm_over_c_speed_ratio"] == 25.0
        assert "[E1]" in result.format()
        # The regenerated table keeps its column order.
        assert "implementation" in result.format().splitlines()[2]

    def test_from_dict_ignores_unknown_keys(self):
        record = ExperimentResult(
            experiment_id="EX", title="t", paper_claim="c"
        ).to_dict()
        record["future_field"] = 1
        assert ExperimentResult.from_dict(record).experiment_id == "EX"


class TestPathsAndListing:
    def test_default_path_shape(self):
        assert default_snapshot_path("baseline").name == (
            "BENCH_baseline.json"
        )
        assert default_snapshot_path("a/b").name == "BENCH_a_b.json"

    def test_list_snapshots_sorted_by_created(self, tmp_path):
        for tag, created in (("new", 2000.0), ("old", 1000.0)):
            save_snapshot(
                make_snapshot(tag=tag, created_unix=created),
                tmp_path / f"BENCH_{tag}.json",
            )
        (tmp_path / "unrelated.json").write_text("{}")
        names = [p.name for p in list_snapshots(tmp_path)]
        assert names == ["BENCH_old.json", "BENCH_new.json"]

    def test_list_snapshots_tolerates_garbage(self, tmp_path):
        (tmp_path / "BENCH_bad.json").write_text("not json")
        assert [p.name for p in list_snapshots(tmp_path)] == [
            "BENCH_bad.json"
        ]


class TestFlattening:
    def test_experiment_metrics_and_reproduced(self, snapshot):
        flat = flatten_metrics(snapshot)
        assert flat["E1.asm_over_c_speed_ratio"] == 25.0
        assert flat["E1.reproduced"] == 1

    def test_obs_detail_flattened(self, snapshot):
        flat = flatten_metrics(snapshot)
        assert flat["obs.aes.asm.total_cycles"] == 100000
        assert flat["obs.aes.asm.routine.aes_encrypt.self_cycles"] == 90000
        assert flat["obs.redirector.counter.issl.records.sent"] == 12
        assert flat["obs.redirector.gauge.xalloc.used.high_water"] == 4096.0
        assert flat["obs.redirector.histogram.costate.gap_s.p95"] == 0.004

    def test_snapshot_json_serializable(self, snapshot):
        json.dumps(flatten_metrics(snapshot))


class TestScalingFlattening:
    def _with_scaling(self, snapshot):
        from tests.bench.test_gate import make_scaling_section

        snapshot["redirector_scaling"] = make_scaling_section()
        return snapshot

    def test_scaling_points_flattened(self, snapshot):
        flat = flatten_metrics(self._with_scaling(snapshot))
        assert flat["scaling.static3.throughput_rps"] == 20.0
        assert flat["scaling.pool3.refusal_rate"] == 0.4
        assert flat["scaling.pool8.throughput_rps"] == 25.0
        assert flat["scaling.pool8.latency_s.p95"] == 0.2
        assert flat["scaling.pool8.xmem_budget_violations"] == 0

    def test_scaling_summary_flattened(self, snapshot):
        flat = flatten_metrics(self._with_scaling(snapshot))
        assert flat["scaling.summary.speedup_8_vs_static3"] == 1.25
        assert flat["scaling.summary.monotone_throughput"] == 1

    def test_section_optional_for_validation(self, snapshot):
        # Old snapshots without the section still validate and flatten.
        validate_snapshot(snapshot)
        assert not any(
            name.startswith("scaling.") for name in flatten_metrics(snapshot)
        )
