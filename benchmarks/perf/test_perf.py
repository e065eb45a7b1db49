"""Self-tests of the host-time benchmark.

    python -m pytest benchmarks/perf -q

The tests that run real passes take about a minute in all; the rest
check the layer map, the pins, the verdict rules and ``BENCHMARK.json``
offline.
"""

from __future__ import annotations

import copy
import json
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
sys.path.insert(0, str(HERE))

import hostspeed  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

PINS = json.loads((HERE / "expected_seed2000.json").read_text())["items"]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def records_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("perf") / "records.json"
    status = run.main(["run", "--workloads", "records", "--seconds", "0",
                       "--min-passes", "1", "--out", str(out)])
    assert status == 0
    return json.loads(out.read_text())["workloads"]["records"]


def test_one_pass_emits_every_metric(records_run):
    for metric in SPEC["end_to_end"]:
        assert records_run["metrics"][metric["name"]]["unit"] == metric["unit"]
        assert records_run["metrics"][metric["name"]]["value"] > 0
    for metric in SPEC["per_layer"]:
        assert metric["name"] in records_run["layers"]
    assert records_run["metrics"]["error_rate"]["value"] == 0
    assert records_run["attempted"] == 4  # E4 and E5, timed and traced
    assert records_run["passes"] == 1


def test_layer_shares_sum_to_one(records_run):
    shares = [records_run["layers"][f"{name}.share"] for name in layers.LAYERS]
    assert sum(shares) == pytest.approx(1.0, abs=0.01)
    assert records_run["layers"]["crypto.share"] > 0.5


def test_records_counts_repeat_exactly(records_run):
    assert records_run["layers"]["crypto.aes_blocks"] == 30448
    assert records_run["layers"]["crypto.hash_updates"] == 177216
    assert records_run["layers"]["issl.records"] == 1780


def test_traced_fw_rsa_keeps_the_fast_core():
    result = run.spawn("fw_rsa", 2000, "traced")
    assert all(item["problem"] is None for item in result["items"])
    assert result["layers"]["rabbit.step_calls"] == 0
    assert result["layers"]["rabbit.blocks_translated"] == 225
    # Three machines translate the same addresses; every copy counts.
    assert result["layers"]["rabbit.translated_calls"] == 617415


def test_single_workload_result_line(capsys):
    assert run.main(["--workload", "scaling", "--seed", "2000",
                     "--trace", "1"]) == 0
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert sorted(last) == ["attempted", "correct", "failed", "metrics"]
    assert last["correct"] and last["failed"] == 0 and last["attempted"] == 10
    assert list(last["metrics"]) == [m["name"] for m in SPEC["per_layer"]]
    assert last["metrics"]["net.events"]["value"] == 179915


def test_refuses_to_run_without_the_sources(tmp_path):
    (tmp_path / "benchmarks").mkdir()
    shutil.copytree(HERE, tmp_path / "benchmarks" / "perf",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "benchmarks/perf/run.py", "--workload", "records",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_every_module_maps_to_exactly_one_layer():
    package_dir = ROOT / "src" / "repro"
    files = sorted(package_dir.rglob("*.py"))
    assert files
    for path in files:
        rel = path.relative_to(package_dir).as_posix()
        assert len(layers.rules_matching(rel)) == 1, rel
        assert layers.layer_of(str(path), str(package_dir)) in layers.LAYERS


def test_code_outside_the_package_has_no_layer():
    package_dir = str(ROOT / "src" / "repro")
    assert layers.layer_of("<translated:0x1234>", package_dir) == "rabbit"
    assert layers.layer_of("~", package_dir) is None
    assert layers.layer_of(json.__file__, package_dir) is None


def test_stdlib_time_goes_to_the_calling_layer():
    package_dir = "/src/repro"
    translate = ("/src/repro/rabbit/fastcore.py", 10, "translate")
    runner = ("/src/repro/experiments/e10_rsa.py", 5, "run_e10")
    builtin_compile = ("~", 0, "<built-in method builtins.compile>")
    stats = {
        runner: (1, 1, 0.5, 3.0, {}),
        translate: (2, 2, 0.5, 2.5, {runner: (2, 2, 0.5, 2.5)}),
        builtin_compile: (2, 2, 2.0, 2.0, {translate: (2, 2, 2.0, 2.0)}),
    }
    metrics, _unresolved = layers.layer_metrics(stats, package_dir)
    assert metrics["rabbit.self_s"] == pytest.approx(2.5)
    assert metrics["harness.self_s"] == pytest.approx(0.5)
    assert metrics["rabbit.calls_in"] == 2
    assert metrics["rabbit.share"] + metrics["harness.share"] == pytest.approx(1)


def test_host_speed_window_averages_sample_speeds():
    sampler = hostspeed.Sampler()
    nominal = hostspeed.NOMINAL_S
    sampler.starts.extend([0.0, 1.0, 2.0, 3.0])
    sampler.durations.extend([nominal, 2 * nominal, nominal, 4 * nominal])
    canary_s, speed = sampler.window(0.5, 2.5)
    assert canary_s == pytest.approx(3 * nominal)
    assert speed == pytest.approx((0.5 + 1.0) / 2)
    # A window without samples falls back on all of them.
    assert sampler.window(10.0, 11.0) == (0, pytest.approx(2.75 / 4))


def test_sampler_samples_during_work_and_restores_the_handler():
    before = signal.getsignal(signal.SIGALRM)
    with hostspeed.Sampler(period=0.005) as sampler:
        start = time.perf_counter()
        while time.perf_counter() - start < 0.1:
            hostspeed.Canary().run(100)
        end = time.perf_counter()
    assert signal.getsignal(signal.SIGALRM) == before
    canary_s, speed = sampler.window(start, end)
    assert len(sampler.durations) >= 5
    assert 0 < canary_s < end - start and speed > 0


def _point_outputs(change=None):
    point = copy.deepcopy(PINS["pool8"])
    if change is not None:
        point["makespan_s"] *= change
    return [("pool8", point), ("static3", copy.deepcopy(PINS["static3"]))]


@pytest.mark.parametrize("change, failed", [(None, 0), (1 + 1e-5, 0),
                                            (1.01, 1)])
def test_pin_float_tolerance(change, failed):
    records = workloads.check("scaling", _point_outputs(change), PINS)
    assert sum(r["problem"] is not None for r in records) == failed


def test_pins_agree_with_the_committed_baseline():
    baseline = json.loads((ROOT / "BENCH_baseline.json").read_text())
    compared, problems = run.cross_check(PINS, 2000, baseline)
    assert compared == 50 and problems == []
    changed = copy.deepcopy(PINS)
    changed["E10"]["metrics"]["growth_ratio"] *= 1.01
    assert len(run.cross_check(changed, 2000, baseline)[1]) == 1


def _stat(samples):
    return {"value": min(samples), "unit": "s", **run.spread(samples)}


def _result(walls, error_rate=0.0, noisy=False, host="h"):
    return {"host": {"name": host}, "workloads": {"w": {
        "metrics": {"pass_s": _stat(walls),
                    "error_rate": {"value": error_rate, "unit": "fraction"}},
        "host.noisy": noisy, "digests": {"E1": "abc"},
    }}}


STEADY = [1.00, 1.01, 1.02, 1.01, 1.00, 1.02, 1.01]


@pytest.mark.parametrize("b_walls, verdict, status", [
    ([w * 0.8 for w in STEADY], "better", 0),
    ([w * 1.25 for w in STEADY], "worse", 1),
    ([w * 1.03 for w in STEADY], "unchanged", 0),
    ([0.95, 1.4, 1.9, 1.1, 1.6, 1.3, 1.2], "unresolved", 0),
])
def test_compare_verdicts(b_walls, verdict, status):
    lines = []
    assert run.compare(_result(STEADY), _result(b_walls), {"pass_s": 0.10},
                       say=lines.append) == status
    assert lines[0].endswith(verdict)


def test_wide_spread_resolves_when_every_pass_wins():
    wide = [1.0, 1.3, 1.6, 1.1, 1.5, 1.2, 1.4]
    delta, verdict = run.judge("pass_s", _stat(wide),
                               _stat([w * 2 for w in STEADY]), 0.10, False)
    assert verdict == "worse" and delta > 0.10


def test_noisy_run_is_never_a_regression():
    lines = []
    assert run.compare(_result(STEADY, noisy=True),
                       _result([w * 1.5 for w in STEADY]), {"pass_s": 0.10},
                       say=lines.append) == 0
    assert lines[0].endswith("unresolved")


def test_noise_flag_marks_wide_passes():
    tally = run.Tally()
    for walls, noisy in (([1.0, 1.5, 2.0, 1.2], True), (STEADY, False)):
        tally.passes = [{"raw_s": w, "speed": 1.0, "s": w} for w in walls]
        tally.rss = [30.0] * len(walls)
        assert tally.summary(pass_bound=0.10)["host.noisy"] == noisy


def test_error_rate_and_digests_are_flagged():
    a, b = _result(STEADY), _result(STEADY, error_rate=0.5)
    b["workloads"]["w"]["digests"]["E1"] = "def"
    lines = []
    assert run.compare(a, b, {"pass_s": 0.10}, say=lines.append) == 1
    assert any("DIGEST E1" in line for line in lines)


def test_other_host_gets_no_verdict():
    lines = []
    assert run.compare(_result(STEADY), _result([w * 2 for w in STEADY],
                                                host="other"),
                       {"pass_s": 0.10}, say=lines.append) == 0
    assert any(line.endswith("  -") for line in lines)


def test_spec_matches_the_code():
    assert SPEC["command"] == ["python3", "benchmarks/perf/run.py"]
    assert SPEC["paths"] == ["benchmarks/perf"]
    assert {w["name"]: w["why"] for w in SPEC["workloads"]} == workloads.WORKLOADS
    assert {m["name"]: (m["unit"], m["better"]) for m in SPEC["end_to_end"]
            } == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in SPEC["per_layer"]
            } == layers.PER_LAYER_METRICS
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert max(bounds, key=bounds.get) == "setup_s"
