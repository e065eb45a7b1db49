"""The committed baseline is what the code produces today.

A fresh full snapshot gates exactly against ``BENCH_baseline.json``:
every rule holds and every metric equals its baseline value, none added
or removed.  A change that moves a simulated output on purpose
refreshes the baseline in the same change
(``python -m repro.bench run --tag baseline``) and says why.
"""

import pathlib

from repro.bench.gate import evaluate_gate
from repro.bench.schema import flatten_metrics, load_snapshot
from repro.bench.snapshot import build_snapshot

REPO = pathlib.Path(__file__).resolve().parent.parent.parent


def test_fresh_full_snapshot_equals_the_committed_baseline():
    baseline = load_snapshot(REPO / "BENCH_baseline.json")
    current = build_snapshot("fresh", workload=baseline["workload"], jobs=2)
    report = evaluate_gate(current, baseline)
    assert report.ok, report.format()
    assert report.violated == []
    assert report.compare.counts() == {
        "pass": len(flatten_metrics(baseline)),
        "fail": 0, "added": 0, "removed": 0,
    }, report.format()
