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
        """Spans on one thread form a tree: every pair is nested or
        disjoint, and the AES C port's runtime-helper calls render as
        spans inside their caller's span."""
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
        # ``ts`` and ``dur`` are microseconds rounded to 1 ns each; a
        # 30 MHz cycle is 33 ns, so ends closer than 2 ns are one end.
        slack = 0.002
        by_tid: dict = {}
        for event in events:
            by_tid.setdefault(event["tid"], []).append(event)
        nested = 0
        for spans in by_tid.values():
            # Sorted by start, outer span first: the stack holds the
            # ends of the spans still open at each start.
            spans.sort(key=lambda e: (e["ts"], -e["dur"]))
            open_ends: list[float] = []
            for span in spans:
                start, end = span["ts"], span["ts"] + span["dur"]
                while open_ends and open_ends[-1] <= start + slack:
                    open_ends.pop()
                if open_ends:
                    assert end <= open_ends[-1] + slack, span
                    nested += 1
                open_ends.append(end)
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


class TestDiffCommand:
    def _write(self, tmp_path, name, document):
        path = tmp_path / name
        path.write_text(json.dumps(document), encoding="utf-8")
        return str(path)

    def _snapshot(self):
        return {
            "schema_version": SCHEMA_VERSION, "tag": "t",
            "workload": "quick", "created_unix": 0.0, "harness": {},
            "experiments": {}, "obs": {},
        }

    def _trace(self, **durations):
        """One root span per keyword, ``name=duration_us``."""
        return {"traceEvents": [
            {"ph": "X", "name": name, "ts": 0.0, "dur": dur,
             "pid": 1, "tid": "c",
             "args": {"span_id": span_id, "parent": None, "trace": 1}}
            for span_id, (name, dur) in enumerate(sorted(durations.items()))
        ]}

    def test_two_snapshots_exit_two_naming_bench_compare(
        self, tmp_path, capsys
    ):
        a = self._write(tmp_path, "a.json", self._snapshot())
        b = self._write(tmp_path, "b.json", self._snapshot())
        assert main(["diff", a, b]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "python -m repro.bench compare" in captured.err

    def test_trace_documents_diff_by_span_path(self, tmp_path, capsys):
        a = self._write(tmp_path, "a.json", self._trace(request=100.0))
        b = self._write(tmp_path, "b.json", self._trace(request=130.0))
        assert main(["diff", a, b]) == 1
        out = capsys.readouterr().out
        assert "request" in out
        assert "+30.000us" in out

    def test_top_caps_the_span_rows(self, tmp_path, capsys):
        a = self._write(tmp_path, "a.json", self._trace(x=1.0, y=1.0))
        b = self._write(tmp_path, "b.json", self._trace(x=2.0, y=3.0))
        assert main(["diff", a, b, "--top", "1"]) == 1
        out = capsys.readouterr().out
        assert "trace diff: 2 span path(s) changed" in out
        assert "... and 1 more span path(s)" in out
        assert main(["diff", a, b, "--top", "0"]) == 1
        assert "more span path" not in capsys.readouterr().out

    def test_negative_top_exits_two(self, tmp_path, capsys):
        a = self._write(tmp_path, "a.json", self._trace(x=1.0, y=1.0))
        b = self._write(tmp_path, "b.json", self._trace(x=2.0, y=3.0))
        with pytest.raises(SystemExit) as exc:
            main(["diff", a, b, "--top", "-1"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--top" in captured.err

    def test_unreadable_document_exits_two(self, tmp_path, capsys):
        a = self._write(tmp_path, "a.json", self._trace(x=1.0))
        assert main(["diff", a, str(tmp_path / "missing.json")]) == 2
        assert "cannot load" in capsys.readouterr().err

    def test_mixed_document_kinds_exit_two(self, tmp_path, capsys):
        a = self._write(tmp_path, "a.json", self._snapshot())
        b = self._write(tmp_path, "b.json", {"traceEvents": []})
        assert main(["diff", a, b]) == 2
        assert "cannot diff" in capsys.readouterr().err

    def test_out_writes_the_report_to_a_file(self, tmp_path, capsys):
        a = self._write(tmp_path, "a.json", self._trace(request=100.0))
        b = self._write(tmp_path, "b.json", self._trace(request=150.0))
        out = tmp_path / "report.txt"
        assert main(["diff", a, b, "--out", str(out)]) == 1
        assert "request" in out.read_text(encoding="utf-8")
        assert capsys.readouterr().out == ""


class TestDiffGoldenDeterminism:
    """``repro.obs diff`` output is byte-identical across repeated
    runs.  (Two snapshots compare with ``repro.bench compare``; its own
    determinism tests live in ``tests/bench/test_cli.py``.)"""

    def test_diff_output_is_byte_identical_across_runs(self, tmp_path):
        golden = REPO / "tests" / "obs" / "golden_chrome_trace.json"
        document = json.loads(golden.read_text(encoding="utf-8"))
        # Slow every span down so the diff has real content to render.
        for event in document["traceEvents"]:
            if event.get("ph") == "X":
                event["dur"] *= 1.5
        perturbed = tmp_path / "perturbed_trace.json"
        perturbed.write_text(json.dumps(document), encoding="utf-8")
        runs = [_run_module("diff", str(golden), str(perturbed))
                for _ in range(2)]
        for completed in runs:
            assert completed.returncode == 1, completed.stderr
            assert "issl.handshake" in completed.stdout
        assert runs[0].stdout == runs[1].stdout
        assert runs[0].stderr == runs[1].stderr
