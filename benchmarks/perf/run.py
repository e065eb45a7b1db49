"""Host-time benchmark: end-to-end and per-layer metrics for five workloads.

Every pass runs in a fresh child process (``child.py``), one at a
time: the parent and at most one child exist at once, each
single-threaded, and the next pass starts only when the previous one
has ended.  Import and pass times are corrected for the host's speed,
which a canary loop samples while they run (``hostspeed.py``).

    python3 benchmarks/perf/run.py --workload W --seed N --seconds S --trace 0|1
        One workload.  ``--trace 0`` runs timed passes, each followed by
        a set-up probe, for S seconds, and reports the end-to-end
        metrics; ``--trace 1`` runs one timed and one traced pass and
        reports the per-layer metrics.  The last line of stdout is the
        JSON result; the full record goes to ``out/``.
    python3 benchmarks/perf/run.py run [--seed N] [--workloads a,b] [--seconds S] [--out FILE]
        Every workload in turn, each followed by its traced pass.
        Prints every metric by name with its unit.
    python3 benchmarks/perf/run.py pin --seed N
        Writes ``expected_seed<N>.json`` from one pass of every workload,
        after cross-checking it against ``BENCH_baseline.json``.
    python3 benchmarks/perf/run.py compare A.json B.json
        Per workload and end-to-end metric: better, worse, unchanged or
        unresolved.  Exits 1 on a worse verdict or a higher error rate.

The benchmark puts the checkout's ``src`` on the children's
``PYTHONPATH`` itself, and refuses to run without it.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
OUT_DIR = HERE / "out"
SPEC = ROOT / "BENCHMARK.json"

sys.path.insert(0, str(HERE))

from layers import PER_LAYER_METRICS  # noqa: E402
from workloads import WORKLOADS, mismatch  # noqa: E402

DEFAULT_SEED = 2000
#: Seconds of timed passes per workload.
SECONDS = 12.0
#: Fewest timed passes per workload, whatever ``--seconds`` says.
MIN_PASSES = 2
#: Set-up-only children after each timed pass; the timed child gives a
#: set-up sample too.  Single samples spread by 25%, so the median needs
#: many, spread over the run like the passes.
SETUP_PROBES = 1
#: A child that runs longer than this is killed, its pass fails and the
#: measurement stops, so a hung program still ends a run within 180 s.
CHILD_TIMEOUT_S = 120
#: ``compare`` calls a ``setup_s`` change within this many seconds
#: unchanged, however small its share of the bound.
SETUP_FLOOR_S = 0.030
#: A workload whose pass-time IQR exceeds this many ``pass_s`` bounds is
#: noisy.
NOISY_BOUNDS = 2

END_TO_END = {
    "pass_s": ("s", "lower"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}


def bounds() -> dict:
    """End-to-end metric -> bound, as ``BENCHMARK.json`` fixes it."""
    with open(SPEC, encoding="utf-8") as handle:
        spec = json.load(handle)
    return {m["name"]: m["bound"] for m in spec["end_to_end"]}


def host_fingerprint() -> dict:
    cpu = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "cpu": cpu,
    }


def spread(samples: list[float]) -> dict:
    """Best, median and quartiles of ``samples``."""
    if len(samples) > 1:
        q1, median, q3 = statistics.quantiles(samples, n=4)
    else:
        q1 = median = q3 = samples[0]
    return {"best": min(samples), "median": median, "q1": q1, "q3": q3,
            "samples": samples}


def iqr_share(stat: dict) -> float:
    return (stat["q3"] - stat["q1"]) / stat["median"] if stat["median"] else 0.0


def spawn(name: str, seed: int, mode: str, pstats: Path | None = None) -> dict:
    """Run one child; its JSON result, or ``{"error": ...}``, with
    ``"hung"`` set when the child timed out."""
    command = [sys.executable, str(HERE / "child.py"), "--workload", name,
               "--seed", str(seed), "--mode", mode]
    pins = HERE / f"expected_seed{seed}.json"
    if mode in ("timed", "traced") and pins.exists():
        command += ["--pins", str(pins)]
    if pstats is not None:
        command += ["--pstats", str(pstats)]
    # Fixed hashing and cached bytecode: set-up times the imports, not
    # compiling the sources, the same on every host.
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    try:
        proc = subprocess.run(command, cwd=ROOT, env=env, text=True,
                              stdout=subprocess.PIPE, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"error": f"{mode} child timed out after {CHILD_TIMEOUT_S}s",
                "hung": True}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"error": f"{mode} child exited {proc.returncode}"}
    return json.loads(lines[-1])


class Tally:
    """Samples and item outcomes of one workload."""

    def __init__(self):
        self.passes: list[dict] = []
        self.setups: list[dict] = []
        self.rss: list[float] = []
        self.digests: dict = {}
        self.items = 0
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.layers: dict | None = None
        self.unresolved: list[str] = []

    def add(self, result: dict, label: str) -> bool:
        """Count a child's items and samples; a crashed child fails
        every item of a pass.  Returns whether the child ran."""
        if "error" in result:
            self.attempted += max(self.items, 1)
            self.failed += max(self.items, 1)
            self.failures.append(f"{label}: {result['error']}")
            return False
        if "setup" in result:
            self.setups.append(result["setup"])
        if "pass" in result:
            self.passes.append(result["pass"])
            self.rss.append(result["peak_rss_mb"])
        for record in result.get("items", ()):
            self.attempted += 1
            item, problem = record["item"], record["problem"]
            first = self.digests.setdefault(item, record["digest"])
            if problem is None and record["digest"] != first:
                problem = f"output digest {record['digest']} != {first} of pass 1"
            if problem is not None:
                self.failed += 1
                self.failures.append(f"{label} {item}: {problem}")
        self.items = max(self.items, len(self.digests))
        return True

    def summary(self, pass_bound: float) -> dict:
        metrics: dict = {}
        raw: dict = {}
        # The best corrected pass, but the median set-up: see README.md.
        for metric, samples, pick in (("pass_s", self.passes, min),
                                      ("setup_s", self.setups,
                                       statistics.median)):
            if samples:
                values = [sample["s"] for sample in samples]
                metrics[metric] = {"value": pick(values), "unit": "s",
                                   **spread(values)}
                raw[metric] = spread([sample["raw_s"] for sample in samples])
                raw[metric.replace("_s", "_speed")] = spread(
                    [sample["speed"] for sample in samples])
        if self.rss:
            metrics["peak_rss_mb"] = {"value": statistics.median(self.rss),
                                      "unit": "MB", **spread(self.rss)}
        metrics["error_rate"] = {
            "value": self.failed / self.attempted if self.attempted else 1.0,
            "unit": "fraction",
        }
        record = {
            "passes": len(self.passes),
            "attempted": self.attempted,
            "failed": self.failed,
            "failures": self.failures,
            "metrics": metrics,
            "raw": raw,
            "host.noisy": bool(self.passes) and
            iqr_share(metrics["pass_s"]) > NOISY_BOUNDS * pass_bound,
            "digests": self.digests,
        }
        if self.layers is not None:
            record["layers"] = self.layers
            record["unresolved"] = self.unresolved
        return record


def measure(name: str, seed: int, *, seconds: float = SECONDS,
            min_passes: int = MIN_PASSES, probes: int = SETUP_PROBES,
            trace: bool = True, pstats: Path | None = None) -> dict:
    """Timed children, each followed by ``probes`` set-up children, for
    ``seconds`` and at least ``min_passes`` rounds; then, with
    ``trace``, one traced child.  Returns the workload's record."""
    tally = Tally()
    deadline = time.perf_counter() + seconds
    rounds = 0
    hung = False
    while not hung and (rounds < min_passes
                        or time.perf_counter() < deadline):
        rounds += 1
        result = spawn(name, seed, "timed")
        tally.add(result, f"pass {rounds}")
        hung = "hung" in result
        for _ in range(0 if hung else probes):
            tally.add(spawn(name, seed, "setup"), "set-up probe")
    if trace and not hung:
        if pstats is not None:
            pstats.parent.mkdir(parents=True, exist_ok=True)
        traced = spawn(name, seed, "traced", pstats)
        if tally.add(traced, "traced pass"):
            layers = dict(traced["layers"])
            layers["trace.wall_s"] = traced["wall_s"]
            raw = statistics.median([p["raw_s"] for p in tally.passes]
                                    or [0.0])
            layers["trace.overhead"] = traced["wall_s"] / raw if raw else 0.0
            tally.layers = layers
            tally.unresolved = traced["unresolved"]
    return tally.summary(bounds()["pass_s"])


def measure_all(names: list[str], seed: int, *, say=print,
                pstats_prefix: Path | None = None, **options) -> dict:
    """:func:`measure` every workload in turn; the result record."""
    started = time.perf_counter()
    records = {}
    for name in names:
        pstats = (None if pstats_prefix is None
                  else Path(f"{pstats_prefix}-{name}.pstats"))
        records[name] = measure(name, seed, pstats=pstats, **options)
        say(f"  {name:13s} {records[name]['passes']} passes, "
            f"{time.perf_counter() - started:.1f} s so far")
    return {
        "schema": 2,
        "seed": seed,
        "host": host_fingerprint(),
        "workloads": records,
        "total_s": time.perf_counter() - started,
    }


def format_result(result: dict) -> str:
    lines = []
    for name, record in result["workloads"].items():
        noisy = "  [host.noisy]" if record["host.noisy"] else ""
        lines.append(f"{name}: {record['passes']} timed passes, "
                     f"{record['failed']}/{record['attempted']} items "
                     f"failed{noisy}")
        for metric, stat in record["metrics"].items():
            extra = ""
            if "median" in stat:
                extra = (f"  (best {stat['best']:.4f}, median "
                         f"{stat['median']:.4f}, q1 {stat['q1']:.4f}, "
                         f"q3 {stat['q3']:.4f})")
            lines.append(f"  {metric:30s} {stat['value']:.6g} "
                         f"{stat['unit']}{extra}")
        for metric, stat in record["raw"].items():
            lines.append(f"  raw {metric:26s} median {stat['median']:.4f}"
                         f" (q1 {stat['q1']:.4f}, q3 {stat['q3']:.4f})")
        for metric, value in record.get("layers", {}).items():
            unit = PER_LAYER_METRICS[metric][0]
            lines.append(f"  {metric:30s} {value:.6g} {unit}")
        for failure in record["failures"]:
            lines.append(f"  FAILED {failure}")
        for spec in record.get("unresolved", []):
            lines.append(f"  NOT FOUND {spec} (its count reads 0)")
    lines.append(f"total: {result['total_s']:.1f} s")
    return "\n".join(lines)


def write_json(path: Path, data: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(data, handle, indent=1)
        handle.write("\n")


# -- compare ------------------------------------------------------------

def judge(metric: str, a: dict, b: dict, bound: float,
          noisy: bool) -> tuple[float, str]:
    """``(delta, verdict)`` for one metric of one workload, A -> B.

    ``delta`` is B's value relative to A's (positive is worse).  The
    verdict is *unresolved* when either side's run is noisy or its IQR
    is wider than the bound, unless every sample of one side beats
    every sample of the other; noise never yields *worse*.
    """
    delta = (b["value"] - a["value"]) / a["value"] if a["value"] else 0.0
    if metric == "setup_s":
        bound = max(bound, SETUP_FLOOR_S / a["value"])
    if noisy:
        return delta, "unresolved"
    separated = (max(b["samples"]) < min(a["samples"])
                 or min(b["samples"]) > max(a["samples"]))
    if not separated and max(iqr_share(a), iqr_share(b)) > bound:
        return delta, "unresolved"
    if delta > bound:
        return delta, "worse"
    if delta < -bound:
        return delta, "better"
    return delta, "unchanged"


def compare(a: dict, b: dict, metric_bounds: dict, say=print) -> int:
    """Print the A -> B verdict table; returns the exit status."""
    same_host = a["host"] == b["host"]
    if not same_host:
        say("host fingerprints differ: reporting only, no verdicts")
        say(f"  A: {a['host']}\n  B: {b['host']}")
    status = 0
    for name in [n for n in a["workloads"] if n in b["workloads"]]:
        ra, rb = a["workloads"][name], b["workloads"][name]
        noisy = ra["host.noisy"] or rb["host.noisy"]
        for metric, bound in metric_bounds.items():
            if metric not in ra["metrics"] or metric not in rb["metrics"]:
                continue
            ma, mb = ra["metrics"][metric], rb["metrics"][metric]
            delta, verdict = judge(metric, ma, mb, bound,
                                   noisy and metric != "peak_rss_mb")
            verdict = verdict if same_host else "-"
            status |= verdict == "worse"
            say(f"{name:13s} {metric:12s} "
                f"A best {ma['best']:.4f} med {ma['median']:.4f} "
                f"[{ma['q1']:.4f}, {ma['q3']:.4f}]  "
                f"B best {mb['best']:.4f} med {mb['median']:.4f} "
                f"[{mb['q1']:.4f}, {mb['q3']:.4f}]  "
                f"delta {delta:+.1%} (bound {bound:.0%})  {verdict}")
        ea = ra["metrics"]["error_rate"]["value"]
        eb = rb["metrics"]["error_rate"]["value"]
        rate_verdict = ("worse" if eb > ea else
                        "better" if eb < ea else "unchanged")
        status |= rate_verdict == "worse"
        say(f"{name:13s} error_rate   A {ea:.4f}  B {eb:.4f}  {rate_verdict}")
        for item in sorted(set(ra["digests"]) | set(rb["digests"])):
            da, db = ra["digests"].get(item), rb["digests"].get(item)
            if da != db:
                say(f"{name:13s} DIGEST {item}: A {da} != B {db}")
    return status


# -- pin ----------------------------------------------------------------

def _prefixed(counters: dict, prefix: str) -> dict:
    return {k[len(prefix):]: v for k, v in sorted(counters.items())
            if k.startswith(prefix)}


def cross_check(items: dict, seed: int, baseline: dict) -> tuple[int, list]:
    """Compare pinned projections with every value ``baseline`` (a
    ``repro.bench`` snapshot) records for the same seed.  Returns
    ``(values compared, disagreements)``."""
    pairs = []
    for eid, record in baseline.get("experiments", {}).items():
        if eid in items:
            for field in ("reproduced", "metrics", "rows", "extra_tables"):
                pairs.append((f"{eid}.{field}", record[field],
                              items[eid][field]))
    faults = baseline.get("faults", {})
    if faults.get("seed") == seed:
        for name, scenario in faults["scenarios"].items():
            if name in items:
                pinned = items[name]
                pairs.append((name, scenario, {
                    "ok": int(pinned["ok"]),
                    "sim_seconds": pinned["sim_seconds"],
                    "injected": _prefixed(pinned["counters"], "faults.injected."),
                    "recovered": _prefixed(pinned["counters"],
                                           "faults.recovered."),
                }))
    scaling = baseline.get("redirector_scaling", {})
    if scaling.get("workload", {}).get("seed") == seed:
        points = {"static3": scaling["static3"]}
        points.update({f"pool{n}": p for n, p in scaling["pools"].items()})
        for item, point in points.items():
            if item in items:
                pairs.append((item, {k: v for k, v in point.items()
                                     if k != "machine"}, items[item]))
    problems = []
    for label, expected, actual in pairs:
        found = mismatch(expected, actual, label)
        if found:
            problems.append(found)
    return len(pairs), problems


def pin(seed: int, say=print) -> int:
    items: dict = {}
    for name in WORKLOADS:
        result = spawn(name, seed, "pin")
        if "error" in result:
            say(f"{name}: {result['error']}; nothing written")
            return 1
        bad = [r for r in result["items"] if r["problem"] is not None]
        if bad:
            say(f"{name}: refusing to pin failed items {bad}")
            return 1
        items.update(result["projections"])
        say(f"  {name}: {len(result['projections'])} items")
    with open(ROOT / "BENCH_baseline.json", encoding="utf-8") as handle:
        compared, problems = cross_check(items, seed, json.load(handle))
    if problems:
        say("pins disagree with BENCH_baseline.json; nothing written:")
        for problem in problems:
            say(f"  {problem}")
        return 1
    path = HERE / f"expected_seed{seed}.json"
    write_json(path, {"seed": seed, "items": items})
    say(f"wrote {path.name}: {len(items)} items, {compared} values "
        f"cross-checked against BENCH_baseline.json")
    return 0


# -- command line -------------------------------------------------------

def run_one(args) -> int:
    """One workload; the last stdout line is the JSON result:
    ``correct``, ``attempted``, ``failed`` and ``metrics``."""
    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; known: "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    if args.trace:
        result = measure_all([args.workload], args.seed, say=lambda *_: None,
                             seconds=0.0, min_passes=1, probes=0,
                             pstats_prefix=OUT_DIR / f"seed{args.seed}")
    else:
        result = measure_all([args.workload], args.seed, say=lambda *_: None,
                             seconds=args.seconds, trace=False)
    write_json(OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json",
               result)
    record = result["workloads"][args.workload]
    print(format_result(result))
    if args.trace:
        metrics = {name: {"value": record.get("layers", {}).get(name, 0.0),
                          "unit": unit}
                   for name, (unit, _better) in PER_LAYER_METRICS.items()}
    else:
        metrics = {name: {"value": record["metrics"][name]["value"],
                          "unit": unit}
                   for name, (unit, _better) in END_TO_END.items()
                   if name in record["metrics"]}
    print(json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": metrics,
    }))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Host-time benchmark (see the module docstring).")
    parser.add_argument("--workload", help="run one workload")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    sub = parser.add_subparsers(dest="command")
    run_parser = sub.add_parser("run", help="every workload, each traced")
    run_parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    run_parser.add_argument("--workloads", default=",".join(WORKLOADS))
    run_parser.add_argument("--seconds", type=float, default=SECONDS)
    run_parser.add_argument("--min-passes", type=int, default=MIN_PASSES)
    run_parser.add_argument("--out", type=Path)
    pin_parser = sub.add_parser("pin", help="write expected_seed<N>.json")
    pin_parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    compare_parser = sub.add_parser("compare", help="A -> B verdicts")
    compare_parser.add_argument("a", type=Path)
    compare_parser.add_argument("b", type=Path)
    args = parser.parse_args(argv)

    if args.command == "compare":
        with open(args.a, encoding="utf-8") as fa, \
                open(args.b, encoding="utf-8") as fb:
            return compare(json.load(fa), json.load(fb), bounds())
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no src/repro under {ROOT}: run from a full checkout",
              file=sys.stderr)
        return 2
    if args.command == "pin":
        return pin(args.seed)
    if args.command == "run":
        names = [n for n in args.workloads.split(",") if n]
        unknown = [n for n in names if n not in WORKLOADS]
        if unknown or args.min_passes < 1:
            print(f"unknown workloads {unknown}; known: {', '.join(WORKLOADS)}"
                  if unknown else "--min-passes must be at least 1",
                  file=sys.stderr)
            return 2
        out = args.out or OUT_DIR / f"run-seed{args.seed}.json"
        result = measure_all(names, args.seed, seconds=args.seconds,
                             min_passes=args.min_passes,
                             pstats_prefix=out.with_suffix(""))
        write_json(out, result)
        print(format_result(result))
        print(f"result: {out}")
        return 0
    if args.workload is None:
        parser.error("give --workload, or a subcommand")
    return run_one(args)


if __name__ == "__main__":
    raise SystemExit(main())
