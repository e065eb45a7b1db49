"""Shared fixtures: synthetic snapshot documents for schema-level tests."""

import copy

import pytest

from repro.bench.schema import SCHEMA_VERSION

_TEMPLATE = {
    "schema_version": SCHEMA_VERSION,
    "tag": "synthetic",
    "workload": "full",
    "created_unix": 1000.0,
    "created_iso": "2026-01-01T00:00:00Z",
    "harness": {"python": "3", "platform": "linux"},
    "experiments": {
        "E1": {
            "experiment_id": "E1",
            "title": "AES C vs asm",
            "paper_claim": "order of magnitude",
            "rows": [{"implementation": "C", "cycles/block": 512000}],
            "summary": "25x",
            "reproduced": True,
            "notes": "",
            "extra_tables": {},
            "metrics": {
                "asm_over_c_speed_ratio": 25.0,
                "asm_cycles_per_block": 20160.0,
                "c_cycles_per_block": 512000.0,
            },
        },
    },
    "obs": {
        "aes_profile": {
            "asm": {
                "total_cycles": 100000,
                "blocks": 2,
                "routines": [
                    {"routine": "aes_encrypt", "self cycles": 90000,
                     "% of total": 90.0, "instructions": 5000, "calls": 2},
                ],
                "telemetry": {
                    "cpu.cycles": {"n": 3, "last": 100000.0, "max": 100000.0,
                                   "times": [0.0, 0.001, 0.002],
                                   "values": [0.0, 50000.0, 100000.0]},
                },
            },
        },
        "redirector": {
            "counters": {"issl.records.sent": 12},
            "gauges": {"xalloc.used": {"value": 4096.0,
                                       "high_water": 4096.0}},
            "histograms": {
                "costate.gap_s": {
                    "count": 10, "mean": 0.002,
                    "p50": 0.001, "p95": 0.004, "p99": 0.005,
                    "buckets": [{"le": 0.01, "count": 10},
                                {"le": "+inf", "count": 0}],
                },
            },
            "clients_ok": 2,
            "telemetry": {
                "sim.pending_events": {"n": 2, "last": 3.0, "max": 5.0,
                                       "times": [0.01, 0.02],
                                       "values": [5.0, 3.0]},
            },
            "recorder_tail": [
                {"seq": 7, "t": 0.098, "sev": "DEBUG", "cat": "net.tcp",
                 "tid": "tcp:rmc", "msg": "ESTABLISHED->CLOSE_WAIT"},
            ],
        },
    },
}


def make_snapshot(**overrides) -> dict:
    """A deep copy of the synthetic snapshot with top-level overrides."""
    document = copy.deepcopy(_TEMPLATE)
    document.update(overrides)
    return document


@pytest.fixture
def snapshot() -> dict:
    return make_snapshot()
