"""The benchmark's workloads, their items, and the output checks.

A workload is one call sequence into the program's public entry points,
run with their defaults.  Each produces *items* -- one experiment, one
fault scenario, or one scaling point -- and every item is checked three
ways: it must not raise, its own verdict must be good, and its projected
output must match the pin for the seed (when one exists) and repeat
exactly from pass to pass.

Importing this module imports nothing from ``repro``; :func:`load` does,
and that import is what ``setup_s`` times.
"""

from __future__ import annotations

import hashlib
import json
import math

#: Floats in a projection may differ from the pin by this much, relative
#: (the gate's warn band); integers, flags and strings must match exactly.
FLOAT_REL_TOL = 1e-3


#: Workload name -> why it is in the benchmark.
WORKLOADS = {
    "fw_rsa": "E10 RSA firmware: long hot loops on the emulated Rabbit, so "
              "the block and translated tiers dominate",
    "fw_sweep": "E1-E3: many compiles and short-lived firmware variants, "
                "with profiler single-stepping and few calls per "
                "translated block",
    "records": "E4-E5: bulk issl records over few connections, so host "
               "crypto per record dominates",
    "fault_matrix": "all 21 fault scenarios: the costatement scheduler's "
                    "idle replay dominates and the emulator is idle",
    "scaling": "24 clients against static-3 and pools of 3-32 slots: "
               "handshake crypto plus network events",
}

EXPERIMENT_ITEMS = {
    "fw_rsa": ("E10",),
    "fw_sweep": ("E1", "E2", "E3"),
    "records": ("E4", "E5"),
}


def load(name: str, seed: int):
    """Import ``name``'s entry points; return ``run()``, which runs the
    workload once and returns ``[(item, output | exception), ...]``."""
    if name in EXPERIMENT_ITEMS:
        from repro.experiments import RUNNERS

        def run():
            outputs = []
            for experiment_id in EXPERIMENT_ITEMS[name]:
                try:
                    outputs.append((experiment_id, RUNNERS[experiment_id]()))
                except Exception as exc:  # noqa: BLE001 -- a failed item
                    outputs.append((experiment_id, exc))
            return outputs
        return run
    if name == "fault_matrix":
        from repro.faults.campaign import run_matrix, scenario_names

        def run():
            try:
                report = run_matrix(seed=seed)
            except Exception as exc:  # noqa: BLE001 -- every item failed
                return [(item, exc) for item in scenario_names()]
            return [(v["name"], v) for v in report["scenarios"]]
        return run
    if name == "scaling":
        from repro.services.scaling import (
            SCALING_POOL_SIZES,
            run_scaling_curve,
        )

        def run():
            try:
                curve = run_scaling_curve(seed=seed)
            except Exception as exc:  # noqa: BLE001 -- every item failed
                return [(item, exc) for item in
                        ["static3"] + [f"pool{n}" for n in SCALING_POOL_SIZES]]
            return [("static3", curve["static3"])] + [
                (f"pool{n}", point) for n, point in curve["pools"].items()
            ]
        return run
    raise KeyError(f"unknown workload {name!r}; known: {', '.join(WORKLOADS)}")


def kind(name: str) -> str:
    """What ``name``'s items are: experiments, scenarios or points."""
    if name in EXPERIMENT_ITEMS:
        return "experiment"
    return "scenario" if name == "fault_matrix" else "point"


def project(item_kind: str, output) -> dict:
    """The part of an item's output that is pinned, as plain JSON data."""
    if item_kind == "experiment":
        record = output.to_dict()
        kept = {k: record[k]
                for k in ("reproduced", "metrics", "rows", "extra_tables")}
    elif item_kind == "point":
        kept = {k: v for k, v in output.items() if k != "machine"}
    else:
        kept = {k: v for k, v in output.items()
                if k not in ("machine", "description")}
    return json.loads(json.dumps(kept))


def verdict_problem(item_kind: str, projection: dict) -> str | None:
    """Why the item's own verdict is bad, or ``None``."""
    if item_kind == "experiment":
        return None if projection["reproduced"] else "not reproduced"
    if item_kind == "point":
        if projection["clients_completed"] < projection["clients"]:
            return (f"{projection['clients_completed']}/"
                    f"{projection['clients']} clients completed")
        if projection["xmem_budget_violations"]:
            return "xmem budget violated"
        return None
    return None if projection["ok"] else "scenario not ok"


def digest(projection: dict) -> str:
    """Stable digest of one item's projected output."""
    text = json.dumps(projection, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def mismatch(expected, actual, path: str = "") -> str | None:
    """First difference between a pinned and a measured projection, or
    ``None``.  Floats compare within :data:`FLOAT_REL_TOL`; everything
    else, including the shape, must match exactly."""
    here = path or "."
    if isinstance(expected, dict) and isinstance(actual, dict):
        if sorted(expected) != sorted(actual):
            return f"{here}: keys {sorted(expected)} != {sorted(actual)}"
        for key in expected:
            found = mismatch(expected[key], actual[key], f"{path}.{key}")
            if found:
                return found
        return None
    if isinstance(expected, list) and isinstance(actual, list):
        if len(expected) != len(actual):
            return f"{here}: length {len(expected)} != {len(actual)}"
        for index, (want, got) in enumerate(zip(expected, actual)):
            found = mismatch(want, got, f"{path}[{index}]")
            if found:
                return found
        return None
    numbers = (int, float)
    if (isinstance(expected, float) or isinstance(actual, float)) and (
        isinstance(expected, numbers) and isinstance(actual, numbers)
        and not isinstance(expected, bool) and not isinstance(actual, bool)
    ):
        if math.isclose(expected, actual, rel_tol=FLOAT_REL_TOL):
            return None
        return f"{here}: {actual!r} != pinned {expected!r}"
    if type(expected) is not type(actual) or expected != actual:
        return f"{here}: {actual!r} != pinned {expected!r}"
    return None


def check(name: str, outputs: list, pins: dict | None) -> list[dict]:
    """One record per item of workload ``name``: ``{"item", "digest",
    "problem"}``, where ``problem`` is ``None`` for a good item."""
    item_kind = kind(name)
    records = []
    for item, output in outputs:
        if isinstance(output, Exception):
            records.append({"item": item, "digest": None,
                            "problem": f"raised {type(output).__name__}: {output}"})
            continue
        projection = project(item_kind, output)
        problem = verdict_problem(item_kind, projection)
        if problem is None and pins is not None:
            if item not in pins:
                problem = "no pin for this item"
            else:
                problem = mismatch(pins[item], projection)
        records.append({"item": item, "digest": digest(projection),
                        "problem": problem})
    return records
