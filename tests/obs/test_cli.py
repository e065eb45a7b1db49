"""The ``python -m repro.obs`` entry point.

Two subprocess tests pin the acceptance contract (``--help`` and a
minimal ``report`` exit 0 through the real module entry point); the
rest drive :func:`repro.obs.cli.main` in-process for speed.
"""

import json
import os
import pathlib
import subprocess
import sys

import pytest

from repro.bench.schema import SCHEMA_VERSION
from repro.obs.cli import main

REPO = pathlib.Path(__file__).resolve().parent.parent.parent


def _run_module(*argv: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src")
    return subprocess.run(
        [sys.executable, "-m", "repro.obs", *argv],
        capture_output=True, text=True, env=env, cwd=REPO, timeout=300,
    )


class TestEntryPoint:
    def test_help_exits_zero(self):
        completed = _run_module("--help")
        assert completed.returncode == 0
        for subcommand in ("report", "trace", "flame"):
            assert subcommand in completed.stdout

    def test_minimal_report_exits_zero(self):
        completed = _run_module("report", "--scenario", "aes")
        assert completed.returncode == 0, completed.stderr
        assert "cycles by routine" in completed.stdout
        assert "aes_encrypt" in completed.stdout

    def test_trace_spans_nest(self, tmp_path):
        """The AES C port's runtime-helper calls must render as spans
        strictly contained in their caller's span on the same thread."""
        out = tmp_path / "trace.json"
        completed = _run_module(
            "trace", "--scenario", "aes", "--implementation", "c",
            "--out", str(out),
        )
        assert completed.returncode == 0, completed.stderr
        events = [
            e for e in json.loads(out.read_text(encoding="utf-8"))
            ["traceEvents"] if e["ph"] == "X"
        ]
        assert events
        nested = 0
        for inner in events:
            for outer in events:
                if (inner is not outer and inner["tid"] == outer["tid"]
                        and outer["ts"] <= inner["ts"]
                        and inner["ts"] + inner["dur"]
                        <= outer["ts"] + outer["dur"]):
                    nested += 1
                    break
        assert nested > 0

    def test_flame_stacks_are_non_empty_and_multiframe(self, tmp_path):
        out = tmp_path / "flame.txt"
        completed = _run_module(
            "flame", "--implementation", "c", "--out", str(out)
        )
        assert completed.returncode == 0, completed.stderr
        lines = out.read_text(encoding="utf-8").splitlines()
        assert lines
        for line in lines:
            stack, cycles = line.rsplit(" ", 1)
            assert stack
            assert int(cycles) >= 0
        # The C port calls into runtime helpers, so at least one stack
        # is deeper than a single frame.
        assert any(";" in line.rsplit(" ", 1)[0] for line in lines)


class TestInProcess:
    def test_report_to_file(self, tmp_path, capsys):
        out = tmp_path / "report.txt"
        assert main(["report", "--scenario", "aes", "--out", str(out)]) == 0
        text = out.read_text(encoding="utf-8")
        assert "== metrics ==" in text
        assert "aes.blocks.encrypted" in text
        assert capsys.readouterr().out == ""

    def test_trace_chrome_is_loadable_json(self, tmp_path):
        # The C port's runtime-helper calls give the profiler RET edges
        # to emit cpu spans from (the hand assembly never calls inward).
        out = tmp_path / "trace.json"
        assert main(["trace", "--scenario", "aes", "--implementation", "c",
                     "--out", str(out)]) == 0
        trace = json.loads(out.read_text(encoding="utf-8"))
        assert any(e["ph"] == "X" for e in trace["traceEvents"])

    def test_trace_jsonl_lines_parse(self, tmp_path):
        out = tmp_path / "trace.jsonl"
        assert main(["trace", "--scenario", "aes", "--implementation", "c",
                     "--format", "jsonl", "--out", str(out)]) == 0
        lines = out.read_text(encoding="utf-8").splitlines()
        assert lines
        for line in lines:
            json.loads(line)

    @pytest.mark.parametrize("scenario", [
        ["--scenario", "redirector"],
        ["--scenario", "aes", "--implementation", "c"],
    ], ids=["redirector", "aes-c"])
    def test_trace_jsonl_is_byte_identical_across_runs(self, tmp_path,
                                                       scenario):
        # Spans carry simulated time and cycles only, no host clock.
        outs = [tmp_path / f"trace{run}.jsonl" for run in (1, 2)]
        for out in outs:
            assert main(["trace", *scenario, "--format", "jsonl",
                         "--out", str(out)]) == 0
        assert outs[0].read_bytes() == outs[1].read_bytes()

    def test_flame_emits_collapsed_stacks(self, tmp_path):
        out = tmp_path / "flame.txt"
        assert main(["flame", "--out", str(out)]) == 0
        lines = out.read_text(encoding="utf-8").splitlines()
        assert lines
        for line in lines:
            stack, cycles = line.rsplit(" ", 1)
            assert stack
            int(cycles)

    def test_flame_on_cpu_less_scenario_fails_cleanly(self, capsys):
        assert main(["flame", "--scenario", "redirector"]) == 2
        assert "no CPU profile" in capsys.readouterr().err


RULES_TOML = """
[[rule]]
name = "no-failures"
path = "faults/failed"
op = "=="
threshold = 0.0
severity = "error"

[[rule]]
name = "throughput-floor"
path = "metrics/rate"
op = ">="
threshold = 5.0
severity = "warn"
"""


class TestSloCommand:
    def _paths(self, tmp_path, document):
        rules = tmp_path / "rules.toml"
        rules.write_text(RULES_TOML, encoding="utf-8")
        doc = tmp_path / "doc.json"
        doc.write_text(json.dumps(document), encoding="utf-8")
        return str(doc), str(rules)

    def test_all_rules_met_exits_zero(self, tmp_path, capsys):
        doc, rules = self._paths(
            tmp_path, {"faults": {"failed": 0}, "metrics": {"rate": 9.0}}
        )
        assert main(["slo", doc, "--rules", rules]) == 0
        assert "slo verdict: PASS" in capsys.readouterr().out

    def test_error_violation_exits_one_with_rule_line(self, tmp_path, capsys):
        doc, rules = self._paths(
            tmp_path, {"faults": {"failed": 2}, "metrics": {"rate": 9.0}}
        )
        assert main(["slo", doc, "--rules", rules]) == 1
        out = capsys.readouterr().out
        assert "FAIL no-failures [error]" in out
        assert "slo verdict: FAIL" in out

    def test_warn_violation_and_missing_do_not_fail(self, tmp_path, capsys):
        doc, rules = self._paths(tmp_path, {"faults": {"failed": 0}})
        assert main(["slo", doc, "--rules", rules]) == 0
        out = capsys.readouterr().out
        assert "MISS throughput-floor [warn]" in out
        assert "slo verdict: PASS" in out

    def test_bad_rules_file_exits_two(self, tmp_path, capsys):
        doc, _rules = self._paths(tmp_path, {})
        bad = tmp_path / "bad.toml"
        bad.write_text("[[rule]]\nname = 'x'\n", encoding="utf-8")
        assert main(["slo", doc, "--rules", str(bad)]) == 2
        assert "slo:" in capsys.readouterr().err

    def test_bad_document_exits_two(self, tmp_path, capsys):
        _doc, rules = self._paths(tmp_path, {})
        assert main(["slo", str(tmp_path / "nope.json"),
                     "--rules", rules]) == 2
        assert "cannot load" in capsys.readouterr().err

    def test_repo_slo_file_passes_on_committed_baseline(self):
        completed = _run_module("slo", "BENCH_baseline.json", "--verbose")
        assert completed.returncode == 0, completed.stderr
        assert "slo verdict: PASS" in completed.stdout


class TestDiffCommand:
    def _write(self, tmp_path, name, document):
        path = tmp_path / name
        path.write_text(json.dumps(document), encoding="utf-8")
        return str(path)

    def _snapshot(self, mix_columns=100):
        return {
            "schema_version": SCHEMA_VERSION, "tag": "t",
            "workload": "quick", "created_unix": 0.0, "harness": {},
            "experiments": {},
            "obs": {"aes_profile": {"c": {
                "total_cycles": mix_columns + 50, "blocks": 1,
                "routines": [
                    {"routine": "mix_columns", "self cycles": mix_columns},
                    {"routine": "sub_bytes", "self cycles": 50},
                ],
                "telemetry": {"cpu.cycles": {
                    "n": 2, "last": float(mix_columns + 50),
                    "max": float(mix_columns + 50),
                    "times": [0.0, 0.25],
                    "values": [0.0, float(mix_columns + 50)],
                }},
            }}},
        }

    def test_identical_snapshots_exit_zero(self, tmp_path, capsys):
        a = self._write(tmp_path, "a.json", self._snapshot())
        b = self._write(tmp_path, "b.json", self._snapshot())
        assert main(["diff", a, b]) == 0
        out = capsys.readouterr().out
        assert "no differences" in out
        assert "telemetry: identical" in out

    def test_differing_snapshots_exit_one_naming_the_routine(
        self, tmp_path, capsys
    ):
        a = self._write(tmp_path, "a.json", self._snapshot(100))
        b = self._write(tmp_path, "b.json", self._snapshot(150))
        assert main(["diff", a, b]) == 1
        out = capsys.readouterr().out
        assert "mix_columns" in out
        assert "+50 cycles (+50.0%)" in out
        assert "first telemetry divergence: aes:c/cpu.cycles" in out

    def test_trace_documents_diff_by_span_path(self, tmp_path, capsys):
        def trace(dur):
            return {"traceEvents": [
                {"ph": "X", "name": "client.request", "ts": 0.0,
                 "dur": dur, "pid": 1, "tid": "c",
                 "args": {"span_id": 1, "parent": None, "trace": 1}},
            ]}

        a = self._write(tmp_path, "a.json", trace(100.0))
        b = self._write(tmp_path, "b.json", trace(130.0))
        assert main(["diff", a, b]) == 1
        out = capsys.readouterr().out
        assert "client.request" in out
        assert "+30.000us" in out

    def test_unreadable_document_exits_two(self, tmp_path, capsys):
        a = self._write(tmp_path, "a.json", self._snapshot())
        assert main(["diff", a, str(tmp_path / "missing.json")]) == 2
        assert "cannot load" in capsys.readouterr().err

    def test_mixed_document_kinds_exit_two(self, tmp_path, capsys):
        a = self._write(tmp_path, "a.json", self._snapshot())
        b = self._write(tmp_path, "b.json", {"traceEvents": []})
        assert main(["diff", a, b]) == 2
        assert "cannot diff" in capsys.readouterr().err

    def test_out_writes_the_report_to_a_file(self, tmp_path, capsys):
        a = self._write(tmp_path, "a.json", self._snapshot(100))
        b = self._write(tmp_path, "b.json", self._snapshot(150))
        out = tmp_path / "report.txt"
        assert main(["diff", a, b, "--out", str(out)]) == 1
        assert "mix_columns" in out.read_text(encoding="utf-8")
        assert capsys.readouterr().out == ""


@pytest.fixture(scope="module")
def quick_snapshots(tmp_path_factory):
    """Quick snapshots of the same tiny workload built at --jobs 1 and
    --jobs 2, saved to disk for subprocess-level diffing."""
    from repro.bench.schema import save_snapshot
    from repro.bench.snapshot import build_snapshot

    directory = tmp_path_factory.mktemp("snapshots")
    paths = {}
    for jobs in (1, 2):
        document = build_snapshot(
            f"jobs{jobs}", workload="quick", experiments=["E6", "E7"],
            include_faults=False, jobs=jobs,
        )
        paths[jobs] = save_snapshot(
            document, directory / f"BENCH_jobs{jobs}.json"
        )
    return paths


class TestDiffGoldenDeterminism:
    """Satellite contract: ``repro.obs diff`` output is byte-identical
    across repeated runs and across snapshots built at different
    ``--jobs`` counts."""

    def test_jobs_counts_do_not_change_the_measurement(
        self, quick_snapshots
    ):
        completed = _run_module(
            "diff", str(quick_snapshots[1]), str(quick_snapshots[2])
        )
        assert completed.returncode == 0, completed.stdout
        assert "no differences" in completed.stdout
        assert "telemetry: identical" in completed.stdout

    def test_diff_output_is_byte_identical_across_runs(
        self, quick_snapshots, tmp_path
    ):
        # Perturb one routine so the diff has real content to render.
        document = json.loads(
            quick_snapshots[2].read_text(encoding="utf-8")
        )
        profile = document["obs"]["aes_profile"]["c"]
        for row in profile["routines"]:
            if row["routine"] == "mix_columns":
                row["self cycles"] = int(row["self cycles"] * 1.5)
        perturbed = tmp_path / "BENCH_perturbed.json"
        perturbed.write_text(json.dumps(document), encoding="utf-8")
        runs = [
            _run_module("diff", str(quick_snapshots[1]), str(perturbed))
            for _ in range(2)
        ]
        for completed in runs:
            assert completed.returncode == 1, completed.stdout
            assert "mix_columns" in completed.stdout
        assert runs[0].stdout == runs[1].stdout
        assert runs[0].stderr == runs[1].stderr
