"""One child process of one workload (spawned by ``run.py``).

    python child.py --workload W --seed N --mode setup|timed|traced|pin
                    [--pins FILE] [--pstats FILE]

``setup`` imports the workload's entry points and stops; ``timed`` then
runs one pass.  Both run the host-speed sampler (``hostspeed.py``)
throughout, and report the import and the pass each as its raw time,
the host's mean speed during it, and its time at reference speed.
``traced`` runs one pass under cProfile, from before the import to the
end of the pass, and reports per-layer metrics; ``pin`` runs one pass
and prints every item's projected output.  The result is one JSON
object on the last line of stdout.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import time

import hostspeed
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))


def corrected(sampler, start: float, end: float) -> dict:
    """The ``perf_counter`` interval ``[start, end)``: its raw seconds
    (less the canary's own), the host's speed, and their product."""
    canary_s, speed = sampler.window(start, end)
    raw = end - start - canary_s
    return {"raw_s": raw, "speed": speed, "s": raw * speed}


def load_pins(path: str | None) -> dict | None:
    if path is None:
        return None
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)["items"]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", required=True,
                        choices=("setup", "timed", "traced", "pin"))
    parser.add_argument("--pins", help="pinned projections for this seed")
    parser.add_argument("--pstats", help="where the traced pass saves its profile")
    args = parser.parse_args(argv)

    if args.mode in ("setup", "timed"):
        with hostspeed.Sampler() as sampler:
            start = time.perf_counter()
            run = workloads.load(args.workload, args.seed)
            ready = time.perf_counter()
            result: dict = {"setup": corrected(sampler, start, ready)}
            if args.mode == "timed":
                outputs = run()
                result["pass"] = corrected(sampler, ready, time.perf_counter())
        if args.mode == "timed":
            # Read before the pins are loaded, which are not the program's.
            result["peak_rss_mb"] = (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            )
            result["items"] = workloads.check(args.workload, outputs,
                                              load_pins(args.pins))
        print(json.dumps(result))
        return 0

    profiler = None
    if args.mode == "traced":
        import cProfile

        profiler = cProfile.Profile()
        profiler.enable()
    run = workloads.load(args.workload, args.seed)
    start = time.perf_counter()
    outputs = run()
    wall = time.perf_counter() - start
    if profiler is not None:
        profiler.disable()
    result = {"wall_s": wall}

    if args.mode == "pin":
        result["items"] = workloads.check(args.workload, outputs, None)
        result["projections"] = {
            item: workloads.project(workloads.kind(args.workload), output)
            for item, output in outputs if not isinstance(output, Exception)
        }
        print(json.dumps(result))
        return 0

    import marshal

    import layers

    result["items"] = workloads.check(args.workload, outputs,
                                      load_pins(args.pins))
    stats = layers.profile_stats(profiler)
    if args.pstats:
        with open(args.pstats, "wb") as handle:
            marshal.dump(stats, handle)
    package_dir = os.path.join(os.path.dirname(os.path.dirname(HERE)),
                               "src", "repro")
    metrics, unresolved = layers.layer_metrics(stats, package_dir)
    result["layers"] = metrics
    result["unresolved"] = unresolved
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
