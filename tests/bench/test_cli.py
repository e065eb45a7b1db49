"""``python -m repro.bench``: the CLI surface and the CI gate contract.

A session-scoped quick snapshot over the cheap experiments keeps the
suite fast; the gate's regression behaviour is pinned by a subprocess
test that perturbs a snapshot exactly the way a cost-model change would
move the numbers and requires a non-zero exit with a readable
per-metric diff.
"""

import json
import os
import pathlib
import subprocess
import sys

import pytest

from repro.bench.cli import main
from repro.bench.schema import SCHEMA_VERSION

REPO = pathlib.Path(__file__).resolve().parent.parent.parent

#: The sub-second experiments; enough to exercise every pipeline stage.
CHEAP = "E6,E7,E8,E9"


def _run_module(*argv: str, cwd=REPO) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src")
    return subprocess.run(
        [sys.executable, "-m", "repro.bench", *argv],
        capture_output=True, text=True, env=env, cwd=cwd, timeout=300,
    )


@pytest.fixture(scope="session")
def quick_snapshot_path(tmp_path_factory) -> pathlib.Path:
    path = tmp_path_factory.mktemp("bench") / "BENCH_quick.json"
    assert main(["run", "--tag", "quick", "--quick", "--only", CHEAP,
                 "--no-obs", "--out", str(path)]) == 0
    return path


@pytest.fixture(scope="session")
def quick_snapshots(tmp_path_factory):
    """Quick snapshots of the same tiny workload built at --jobs 1 and
    --jobs 2, saved to disk for subprocess-level comparison."""
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


class TestRun:
    def test_writes_schema_versioned_snapshot(self, quick_snapshot_path):
        document = json.loads(quick_snapshot_path.read_text())
        assert document["schema_version"] == SCHEMA_VERSION
        assert document["workload"] == "quick"
        assert sorted(document["experiments"]) == sorted(CHEAP.split(","))

    def test_unknown_experiment_id_errors(self, tmp_path):
        with pytest.raises(ValueError, match="E42"):
            main(["run", "--only", "E42", "--no-obs",
                  "--out", str(tmp_path / "BENCH_x.json")])


class TestCompareCli:
    def test_self_compare_exits_zero(self, quick_snapshot_path, capsys):
        assert main(["compare", str(quick_snapshot_path),
                     str(quick_snapshot_path)]) == 0
        assert "every metric equals the baseline" in capsys.readouterr().out

    def test_jobs_counts_do_not_change_the_measurement(
        self, quick_snapshots
    ):
        completed = _run_module(
            "compare", str(quick_snapshots[1]), str(quick_snapshots[2])
        )
        assert completed.returncode == 0, completed.stdout
        assert "0 fail, 0 added, 0 removed" in completed.stdout
        assert "every metric equals the baseline" in completed.stdout

    def test_differing_snapshots_exit_one_naming_the_routine(
        self, tmp_path, capsys
    ):
        from repro.bench.schema import save_snapshot

        from tests.bench.conftest import make_snapshot

        current = make_snapshot()
        profile = current["obs"]["aes_profile"]["asm"]
        profile["routines"][0]["self cycles"] = 135000
        profile["total_cycles"] = 145000
        telemetry = profile["telemetry"]["cpu.cycles"]
        telemetry["values"][-1] = 145000.0
        telemetry["last"] = 145000.0
        a = save_snapshot(make_snapshot(), tmp_path / "BENCH_a.json")
        b = save_snapshot(current, tmp_path / "BENCH_b.json")
        assert main(["compare", str(a), str(b)]) == 1
        out = capsys.readouterr().out
        assert "aes_encrypt" in out
        assert "+45000 cycles (+50.0%)" in out
        assert "first telemetry divergence: aes:asm/cpu.cycles" in out

    def test_missing_file_exits_two(self, tmp_path, capsys):
        assert main(["compare", str(tmp_path / "BENCH_no.json"),
                     str(tmp_path / "BENCH_no.json")]) == 2
        assert "no snapshot" in capsys.readouterr().err


class TestShow:
    def test_regenerates_tables(self, quick_snapshot_path, capsys):
        assert main(["show", str(quick_snapshot_path), "E7"]) == 0
        out = capsys.readouterr().out
        assert "[E7]" in out
        assert "reproduced: YES" in out

    def test_unknown_id_exits_two(self, quick_snapshot_path, capsys):
        assert main(["show", str(quick_snapshot_path), "E1"]) == 2
        assert "E1" in capsys.readouterr().err


class TestGateCli:
    def test_self_gate_passes(self, quick_snapshot_path, capsys):
        assert main(["gate", "--baseline", str(quick_snapshot_path),
                     "--snapshot", str(quick_snapshot_path)]) == 0
        assert "verdict: PASS" in capsys.readouterr().out

    def test_perturbed_metric_fails_gate_subprocess(
        self, quick_snapshot_path, tmp_path
    ):
        """The acceptance contract, end to end through the real entry
        point: drift a deterministic metric (what perturbing the AES
        cost model does to E7's twin, here port RAM bytes) and the gate
        must exit non-zero printing a per-metric diff."""
        document = json.loads(quick_snapshot_path.read_text())
        document["experiments"]["E7"]["metrics"]["port_ram_bytes"] *= 1.25
        document["tag"] = "perturbed"
        perturbed = tmp_path / "BENCH_perturbed.json"
        perturbed.write_text(json.dumps(document))
        completed = _run_module(
            "gate", "--baseline", str(quick_snapshot_path),
            "--snapshot", str(perturbed),
        )
        assert completed.returncode == 1, completed.stderr
        (line,) = [l for l in completed.stdout.splitlines()
                   if l.startswith("E7.port_ram_bytes")]
        assert line.split()[-1] == "FAIL"

    def _perturbed_baseline(self, tmp_path, perturb) -> str:
        """The committed baseline with ``perturb`` applied to the whole
        document, written under ``tmp_path``."""
        document = json.loads(
            (REPO / "BENCH_baseline.json").read_text(encoding="utf-8")
        )
        perturb(document)
        document["tag"] = "perturbed"
        path = tmp_path / "BENCH_perturbed.json"
        path.write_text(json.dumps(document), encoding="utf-8")
        return str(path)

    def test_perturbed_redirector_run_fails_gate_subprocess(self, tmp_path):
        """End to end: a fourth concurrent session breaks the Figure 3
        ceiling, and the gate names the rule and prints the flight
        recorder tail, though the paper rules and drift both pass."""
        def fourth_session(document):
            redirector = document["obs"]["redirector"]
            redirector["gauges"]["issl.sessions.active"]["high_water"] = 4
        # Gated against itself, drift stays quiet and only the rules
        # can speak.
        path = self._perturbed_baseline(tmp_path, fourth_session)
        completed = _run_module("gate", "--baseline", path,
                                "--snapshot", path)
        assert completed.returncode == 1, completed.stderr
        out = completed.stdout
        assert "rules: 26 checked, 1 violated" in out
        (line,) = [l for l in out.splitlines()
                   if l.startswith("session-ceiling-respected")]
        assert "gauges/issl.sessions.active/high_water <= 3" in line
        assert "VIOLATED" in line
        assert "flight recorder tail" in out
        assert "every metric equals the baseline" in out
        assert "verdict: FAIL" in out.splitlines()[-1]

    def test_worse_gap_p99_only_warns(self, tmp_path, capsys):
        def starved_loop(document):
            redirector = document["obs"]["redirector"]
            redirector["histograms"]["costate.gap_s"]["p99"] = 0.25
        path = self._perturbed_baseline(tmp_path, starved_loop)
        assert main(["gate", "--baseline", path, "--snapshot", path]) == 0
        out = capsys.readouterr().out
        (line,) = [l for l in out.splitlines()
                   if l.startswith("bigloop-gap-p99")]
        assert "VIOLATED" in line and "warn" in line
        assert "flight recorder" not in out
        assert "verdict: PASS" in out.splitlines()[-1]

    @pytest.mark.parametrize("metric, value", [
        ("asm_cycles_per_block", lambda v: v + 1),
        ("c_cycles_per_block", lambda v: round(v * 1.015)),
    ], ids=["asm-plus-one-cycle", "c-plus-1.5pct"])
    def test_any_metric_change_fails_gate(self, tmp_path, capsys,
                                          metric, value):
        """One cycle, or 1.5 %, on a deterministic output is a change:
        the gate fails and names the metric."""
        def nudge(document):
            metrics = document["experiments"]["E1"]["metrics"]
            metrics[metric] = value(metrics[metric])
        path = self._perturbed_baseline(tmp_path, nudge)
        assert main(["gate", "--baseline",
                     str(REPO / "BENCH_baseline.json"),
                     "--snapshot", path]) == 1
        out = capsys.readouterr().out
        (line,) = [l for l in out.splitlines()
                   if l.startswith(f"E1.{metric}")]
        assert line.split()[-1] == "FAIL"
        assert "rules: 26 checked, 0 violated" in out
        # The redirector run is unchanged and no rule failed: no tail.
        assert "flight recorder tail" not in out
        assert "verdict: FAIL" in out.splitlines()[-1]

    def test_recorder_tail_printed_once(self, tmp_path, capsys):
        """A violated error rule on a changed metric: the rules section
        and the compare's forensics would both carry the tail."""
        def slow_asm(document):
            document["experiments"]["E1"]["metrics"][
                "asm_over_c_speed_ratio"
            ] = 5.0
        path = self._perturbed_baseline(tmp_path, slow_asm)
        assert main(["gate", "--baseline",
                     str(REPO / "BENCH_baseline.json"),
                     "--snapshot", path]) == 1
        out = capsys.readouterr().out
        assert "VIOLATED" in out and "forensics:" in out
        assert out.count("flight recorder tail") == 1
        tail_lines = [l for l in out.splitlines()
                      if l.startswith("    [") and "net.tcp/" in l]
        assert tail_lines
        assert len(tail_lines) == len(set(tail_lines))

    def test_gate_output_does_not_depend_on_the_directory(self, tmp_path):
        baseline = str(REPO / "BENCH_baseline.json")
        argv = ("gate", "--baseline", baseline, "--snapshot", baseline,
                "--verbose")
        at_root = _run_module(*argv)
        elsewhere = _run_module(*argv, cwd=tmp_path)
        assert at_root.returncode == elsewhere.returncode == 0
        assert "rules: 26 checked, 0 violated" in at_root.stdout
        assert at_root.stdout == elsewhere.stdout

    def test_violated_claim_fails_gate(self, quick_snapshot_path,
                                       tmp_path, capsys):
        document = json.loads(quick_snapshot_path.read_text())
        # The E7 churn claim: an allocate-only port must die early.
        document["experiments"]["E7"]["metrics"][
            "xalloc_churn_connections"
        ] = 10_000
        broken = tmp_path / "BENCH_broken.json"
        broken.write_text(json.dumps(document))
        assert main(["gate", "--baseline", str(quick_snapshot_path),
                     "--snapshot", str(broken)]) == 1
        out = capsys.readouterr().out
        assert "xalloc_churn_connections < 100" in out
        assert "VIOLATED" in out

    def test_missing_baseline_exits_two(self, tmp_path, capsys):
        assert main(["gate", "--baseline",
                     str(tmp_path / "BENCH_none.json"),
                     "--snapshot", str(tmp_path / "BENCH_none.json")]) == 2
        assert "no snapshot" in capsys.readouterr().err


class TestForensicsAcceptance:
    """The obs-v3 acceptance contract: comparing the committed baseline
    against a perturbed-AES-cost-model snapshot must attach a
    deterministic forensics section naming the moved routine and the
    first simulated-time divergence point, byte-identical across runs.
    """

    @pytest.fixture(scope="class")
    def perturbed_path(self, tmp_path_factory) -> pathlib.Path:
        document = json.loads(
            (REPO / "BENCH_baseline.json").read_text(encoding="utf-8")
        )
        # What a MixColumns cost-model change does to the numbers: the
        # routine's self cycles move, and with them the totals and the
        # cumulative cycle telemetry.
        profile = document["obs"]["aes_profile"]["c"]
        delta = 0
        for row in profile["routines"]:
            if row["routine"] == "mix_columns":
                delta = int(row["self cycles"] * 0.5)
                row["self cycles"] += delta
        assert delta > 0, "baseline lost its mix_columns routine"
        profile["total_cycles"] += delta
        telemetry = profile["telemetry"]["cpu.cycles"]
        telemetry["values"][-1] += delta
        telemetry["last"] += delta
        document["tag"] = "perturbed-aes"
        path = tmp_path_factory.mktemp("forensics") / "BENCH_pert.json"
        path.write_text(json.dumps(document), encoding="utf-8")
        return path

    def test_compare_attaches_deterministic_forensics(
        self, perturbed_path
    ):
        runs = [
            _run_module("compare", "BENCH_baseline.json",
                        str(perturbed_path))
            for _ in range(2)
        ]
        for completed in runs:
            assert completed.returncode == 1, completed.stdout
            out = completed.stdout
            assert "forensics:" in out
            assert "top routine cycle deltas [c]:" in out
            assert "mix_columns" in out
            assert ("first telemetry divergence: aes:c/cpu.cycles "
                    "at t=") in out
            # Only the AES profile moved; the redirector's tail is the
            # baseline's own.
            assert "flight recorder tail" not in out
        assert runs[0].stdout == runs[1].stdout

    def test_gate_carries_the_forensics_section(self, perturbed_path):
        completed = _run_module(
            "gate", "--baseline", "BENCH_baseline.json",
            "--snapshot", str(perturbed_path),
        )
        assert completed.returncode == 1, completed.stdout
        assert "forensics:" in completed.stdout
        assert "mix_columns" in completed.stdout
        assert "verdict: FAIL" in completed.stdout.splitlines()[-1]


class TestEntryPoint:
    def test_help_exits_zero(self):
        completed = _run_module("--help")
        assert completed.returncode == 0
        for subcommand in ("run", "compare", "gate", "show"):
            assert subcommand in completed.stdout

    def test_closed_stdout_exits_without_a_traceback(self):
        """A reader that closes the pipe early (``| head``) ends the
        command quietly: nothing on stderr."""
        baseline = str(REPO / "BENCH_baseline.json")
        process = subprocess.Popen(
            [sys.executable, "-m", "repro.bench", "compare", "--verbose",
             baseline, baseline],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, cwd=REPO,
            env=dict(os.environ, PYTHONPATH=str(REPO / "src")),
        )
        process.stdout.close()  # before the command has printed a line
        stderr = process.stderr.read()
        assert process.wait(timeout=300) == 1
        assert stderr == b""


class TestScalingSection:
    def test_quick_snapshot_carries_scaling_section(
        self, quick_snapshot_path
    ):
        document = json.loads(quick_snapshot_path.read_text())
        section = document["redirector_scaling"]
        assert section["workload"]["pool_sizes"] == [3, 8]
        assert section["summary"]["speedup_8_vs_static3"] > 1.0
        assert section["summary"]["xmem_budget_violations"] == 0

    def test_no_scaling_flag_omits_section(self, tmp_path):
        path = tmp_path / "BENCH_noscale.json"
        assert main(["run", "--tag", "noscale", "--quick", "--only", "E6",
                     "--no-obs", "--no-faults", "--no-scaling",
                     "--out", str(path)]) == 0
        document = json.loads(path.read_text())
        assert "redirector_scaling" not in document
