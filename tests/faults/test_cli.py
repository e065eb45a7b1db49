"""``python -m repro.faults``: the CLI surface through the real entry
point, mirroring the subprocess gates in ``tests/bench``/``tests/
analysis``.  The core acceptance property -- same seed, byte-identical
JSON -- is pinned on a fast subset here and on the full matrix in the
slow tier.
"""

import json
import os
import pathlib
import subprocess
import sys

import pytest

REPO = pathlib.Path(__file__).resolve().parent.parent.parent

pytestmark = pytest.mark.faults

#: A fast cross-section: one clean run, one link fault, one transport
#: fault, one memory fault.
SUBSET = "baseline,syn-loss,rst-midhandshake,xalloc-exhaustion"


def _run_module(*argv: str,
                module: str = "repro.faults") -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src")
    return subprocess.run(
        [sys.executable, "-m", module, *argv],
        capture_output=True, text=True, env=env, cwd=REPO, timeout=300,
    )


class TestList:
    def test_lists_at_least_ten_scenarios(self):
        completed = _run_module("list")
        assert completed.returncode == 0
        lines = [l for l in completed.stdout.splitlines() if l.strip()]
        assert len(lines) >= 10
        assert any(line.startswith("baseline") for line in lines)


class TestMatrixCli:
    def test_subset_passes_and_emits_valid_report(self, tmp_path):
        out = tmp_path / "report.json"
        completed = _run_module(
            "matrix", "--only", SUBSET, "--out", str(out), "--summary"
        )
        assert completed.returncode == 0, completed.stderr
        assert "PASS:" in completed.stdout
        report = json.loads(out.read_text())
        assert report["kind"] == "matrix"
        assert report["verdict"] == "PASS"
        assert report["total"] == 4
        names = [v["name"] for v in report["scenarios"]]
        assert names == SUBSET.split(",")

    def test_same_seed_byte_identical_reports(self, tmp_path):
        first = tmp_path / "first.json"
        second = tmp_path / "second.json"
        for out in (first, second):
            completed = _run_module(
                "matrix", "--only", SUBSET, "--seed", "11",
                "--out", str(out), "--summary",
            )
            assert completed.returncode == 0, completed.stderr
        assert first.read_bytes() == second.read_bytes()

    def test_jobs_fanout_byte_identical_to_sequential(self, tmp_path):
        """``--jobs 4`` merges child results in scenario order, so the
        report bytes match a sequential run for the same seed."""
        sequential = tmp_path / "sequential.json"
        fanned = tmp_path / "fanned.json"
        for out, jobs in ((sequential, "1"), (fanned, "4")):
            completed = _run_module(
                "matrix", "--only", SUBSET, "--seed", "11",
                "--jobs", jobs, "--out", str(out), "--summary",
            )
            assert completed.returncode == 0, completed.stderr
        assert sequential.read_bytes() == fanned.read_bytes()

    def test_stdout_json_is_the_canonical_encoding(self):
        completed = _run_module("run", "baseline")
        assert completed.returncode == 0, completed.stderr
        report = json.loads(completed.stdout)
        assert completed.stdout == (
            json.dumps(report, indent=1, sort_keys=True) + "\n"
        )

    def test_no_wall_clock_leaks_into_reports(self, tmp_path):
        out = tmp_path / "report.json"
        assert _run_module("run", "baseline", "--out", str(out),
                           "--summary").returncode == 0
        text = out.read_text()
        for forbidden in ("wall", "created", "unix", "timestamp"):
            assert forbidden not in text

    def test_unknown_scenario_exits_two(self):
        completed = _run_module("run", "no-such-scenario")
        assert completed.returncode == 2
        assert "unknown scenario" in completed.stderr

    def test_soak_takes_no_jobs(self):
        """A soak is one world evolving in sequence; there is nothing
        to fan out, so ``--jobs`` is not one of its options."""
        completed = _run_module("soak", "--jobs", "2")
        assert completed.returncode == 2
        assert "--jobs" in completed.stderr


class TestGateOnTheFaultRecord:
    """The matrix verdict reaches the regression gate through a bench
    snapshot's ``faults`` record: each scenario's ``ok`` flag.  A
    perturbed copy of the committed baseline is gated against itself,
    so drift stays quiet and only the scenario check can speak."""

    def _gate(self, tmp_path, perturb=None) -> subprocess.CompletedProcess:
        document = json.loads(
            (REPO / "BENCH_baseline.json").read_text(encoding="utf-8")
        )
        if perturb is not None:
            perturb(document["faults"])
        path = tmp_path / "BENCH_faults.json"
        path.write_text(json.dumps(document), encoding="utf-8")
        return _run_module("gate", "--baseline", str(path),
                           "--snapshot", str(path), module="repro.bench")

    def test_recovering_matrix_keeps_the_gate_green(self, tmp_path):
        completed = self._gate(tmp_path)
        assert completed.returncode == 0, completed.stdout
        assert "no longer recovering" not in completed.stdout

    def test_failed_scenario_fails_the_gate_naming_it(self, tmp_path):
        def syn_loss_fails(faults):
            faults["scenarios"]["syn-loss"]["ok"] = False
            faults["passed"] -= 1
            faults["failed"] += 1
        completed = self._gate(tmp_path, syn_loss_fails)
        assert completed.returncode == 1, completed.stdout
        assert ("fault scenarios no longer recovering: syn-loss"
                in completed.stdout)
        assert "verdict: FAIL" in completed.stdout.splitlines()[-1]


@pytest.mark.slow
class TestFullMatrix:
    def test_full_matrix_deterministic_and_green(self, tmp_path):
        """The acceptance criterion verbatim: the whole matrix passes
        (zero unhandled exceptions anywhere) and the same seed yields
        byte-identical JSON."""
        first = tmp_path / "first.json"
        second = tmp_path / "second.json"
        for out in (first, second):
            completed = _run_module("matrix", "--out", str(out),
                                    "--summary")
            assert completed.returncode == 0, (
                completed.stdout + completed.stderr
            )
        assert first.read_bytes() == second.read_bytes()
        report = json.loads(first.read_text())
        assert report["total"] >= 10
        assert report["failed"] == 0
        for verdict in report["scenarios"]:
            assert verdict["ok"], verdict["checks"]
