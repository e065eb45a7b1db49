"""Experiment harness and fast-path runner tests.

The full experiment battery runs in the benchmark suite; here we cover
the harness utilities and the cheap runners end to end, plus small-
workload versions of the expensive ones.
"""

import pytest

from repro.experiments import RUNNERS, run_e1, run_e6, run_e7, run_e8, run_e9
from repro.experiments.harness import ExperimentResult, format_table


class TestHarness:
    def test_format_table_alignment(self):
        rows = [{"name": "a", "value": 1}, {"name": "longer", "value": 22}]
        text = format_table(rows)
        lines = text.splitlines()
        assert len(lines) == 4
        assert lines[0].index("value") == lines[2].index("1")

    def test_format_table_empty(self):
        assert "(no rows)" in format_table([])

    def test_float_rendering(self):
        text = format_table([{"x": 1234567.0, "y": 0.123456}])
        assert "1,234,567" in text
        assert "0.123" in text

    def test_none_cell(self):
        assert "-" in format_table([{"x": None}])

    def test_result_format(self):
        result = ExperimentResult(
            experiment_id="EX",
            title="Title",
            paper_claim="claim",
            rows=[{"a": 1}],
            summary="sum",
            reproduced=True,
            notes="note",
        )
        text = result.format()
        assert "[EX] Title" in text
        assert "reproduced: YES" in text
        assert "notes: note" in text

    def test_runner_registry_complete(self):
        assert list(RUNNERS) == [f"E{i}" for i in range(1, 11)]


class TestCheapRunners:
    def test_e6(self):
        result = run_e6()
        assert result.reproduced

    def test_e7(self):
        result = run_e7()
        assert result.reproduced

    def test_e8(self):
        result = run_e8()
        assert result.reproduced

    def test_e9(self):
        result = run_e9()
        assert result.reproduced


class TestSmallWorkloadE1:
    def test_e1_minimal(self):
        result = run_e1(keys=1, blocks_per_key=1)
        assert result.reproduced
        assert len(result.rows) == 2


class TestCli:
    def test_unknown_id(self):
        from repro.experiments.__main__ import main

        assert main(["E42"]) == 2

    def test_single_experiment(self, capsys):
        from repro.experiments.__main__ import main

        assert main(["E9"]) == 0
        captured = capsys.readouterr()
        assert "[E9]" in captured.out
        assert "1/1 experiments reproduced" in captured.out

    def test_json_records_are_the_snapshot_serialization(self, capsys):
        import json

        from repro.experiments.__main__ import main

        assert main(["--json", "E6", "E9"]) == 0
        records = json.loads(capsys.readouterr().out)
        expected = [RUNNERS[e]().to_dict() for e in ("E6", "E9")]
        assert records == json.loads(json.dumps(expected))
