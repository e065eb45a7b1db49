"""``build_snapshot`` output is a pure function of the seeds.

Everything but the ``created_unix``/``created_iso`` stamp is simulated,
so a snapshot must serialize byte-identically whatever ``--jobs`` fans
it out over, and each instrumented scenario runs exactly once.
"""

import json

import repro.obs.scenarios
from repro.bench.snapshot import QUICK_WORKLOAD, build_snapshot


def _unstamped_json(document: dict) -> str:
    document.pop("created_unix")
    document.pop("created_iso")
    return json.dumps(document, indent=1)


def test_fan_out_snapshot_is_byte_identical_to_sequential():
    sequential, fanned = (
        _unstamped_json(build_snapshot(
            "t", workload=QUICK_WORKLOAD, experiments=["E6", "E7", "E9"],
            jobs=jobs,
        ))
        for jobs in (1, 2)
    )
    assert sequential == fanned


def test_redirector_scenario_runs_once(monkeypatch):
    real = repro.obs.scenarios.run_redirector_scenario
    calls = []

    def counting(**kwargs):
        calls.append(kwargs)
        return real(**kwargs)

    monkeypatch.setattr(repro.obs.scenarios, "run_redirector_scenario",
                        counting)
    document = build_snapshot(
        "t", workload=QUICK_WORKLOAD, experiments=["E6"],
        include_faults=False, include_scaling=False,
    )
    assert len(calls) == 1
    assert document["obs"]["redirector"]["clients_ok"] == 2
