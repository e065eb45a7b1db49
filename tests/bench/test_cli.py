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
        assert "all metrics within tolerance" in capsys.readouterr().out

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


class TestTrend:
    def test_lists_snapshots(self, quick_snapshot_path, capsys):
        assert main(["trend", "--dir",
                     str(quick_snapshot_path.parent)]) == 0
        out = capsys.readouterr().out
        assert "quick" in out
        assert "E7 RAM B" in out

    def test_markdown(self, quick_snapshot_path, capsys):
        assert main(["trend", "--dir", str(quick_snapshot_path.parent),
                     "--markdown"]) == 0
        assert capsys.readouterr().out.startswith("| tag |")

    def test_empty_directory(self, tmp_path, capsys):
        assert main(["trend", "--dir", str(tmp_path)]) == 0
        assert "no snapshots" in capsys.readouterr().out


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
        assert "E7.port_ram_bytes" in completed.stdout
        assert "FAIL" in completed.stdout
        assert "+25.00%" in completed.stdout

    def test_perturbed_slo_rules_fail_gate_subprocess(
        self, quick_snapshot_path, tmp_path
    ):
        """The SLO acceptance contract end to end: a rules file whose
        threshold the snapshot violates must turn the gate red with a
        per-rule diff, even when claims and drift both pass."""
        rules = tmp_path / "slo.toml"
        rules.write_text(
            '[[rule]]\n'
            'name = "all-scenarios-pass"\n'
            'path = "faults/passed"\n'
            'op = ">="\n'
            'threshold = 99.0\n'
            'severity = "error"\n'
            'description = "the matrix must stay this big"\n',
            encoding="utf-8",
        )
        completed = _run_module(
            "gate", "--baseline", str(quick_snapshot_path),
            "--snapshot", str(quick_snapshot_path), "--slo", str(rules),
        )
        assert completed.returncode == 1, completed.stderr
        assert "FAIL all-scenarios-pass [error]" in completed.stdout
        assert "faults/passed" in completed.stdout
        assert "want >= 99" in completed.stdout
        assert "slo verdict: FAIL" in completed.stdout
        assert "verdict: FAIL" in completed.stdout.splitlines()[-1]

    def test_met_slo_rules_keep_the_gate_green(
        self, quick_snapshot_path, tmp_path, capsys
    ):
        rules = tmp_path / "slo.toml"
        rules.write_text(
            '[[rule]]\n'
            'name = "no-failed-scenarios"\n'
            'path = "faults/failed"\n'
            'op = "=="\n'
            'threshold = 0.0\n',
            encoding="utf-8",
        )
        assert main(["gate", "--baseline", str(quick_snapshot_path),
                     "--snapshot", str(quick_snapshot_path),
                     "--slo", str(rules)]) == 0
        out = capsys.readouterr().out
        assert "slo verdict: PASS" in out
        assert "verdict: PASS" in out.splitlines()[-1]

    def test_no_slo_skips_evaluation(self, quick_snapshot_path, capsys):
        assert main(["gate", "--baseline", str(quick_snapshot_path),
                     "--snapshot", str(quick_snapshot_path),
                     "--no-slo"]) == 0
        assert "slo verdict" not in capsys.readouterr().out

    def test_invalid_slo_file_exits_two(self, quick_snapshot_path,
                                        tmp_path, capsys):
        bad = tmp_path / "bad.toml"
        bad.write_text("not [ toml", encoding="utf-8")
        assert main(["gate", "--baseline", str(quick_snapshot_path),
                     "--snapshot", str(quick_snapshot_path),
                     "--slo", str(bad)]) == 2
        assert "invalid TOML" in capsys.readouterr().err

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
            assert "flight recorder tail" in out
        assert runs[0].stdout == runs[1].stdout

    def test_gate_carries_the_forensics_section(self, perturbed_path):
        completed = _run_module(
            "gate", "--baseline", "BENCH_baseline.json",
            "--snapshot", str(perturbed_path), "--no-slo",
        )
        assert completed.returncode == 1, completed.stdout
        assert "forensics:" in completed.stdout
        assert "mix_columns" in completed.stdout
        assert "verdict: FAIL" in completed.stdout.splitlines()[-1]


class TestEntryPoint:
    def test_help_exits_zero(self):
        completed = _run_module("--help")
        assert completed.returncode == 0
        for subcommand in ("run", "compare", "trend", "gate", "show"):
            assert subcommand in completed.stdout


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
