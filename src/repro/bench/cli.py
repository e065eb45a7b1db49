"""``python -m repro.bench {run,compare,gate,show}``.

* ``run`` -- run the battery + obs scenarios, write ``BENCH_<tag>.json``.
* ``compare`` -- diff every metric of two snapshots exactly.
* ``gate`` -- paper rules + drift vs the committed baseline; exits
  non-zero on any regression (the CI entry point).
* ``show`` -- regenerate an experiment's text tables from a snapshot.
"""

from __future__ import annotations

import argparse
import os
import sys

from repro.bench.compare import compare_snapshots
from repro.bench.gate import evaluate_gate
from repro.bench.schema import (
    BenchSchemaError,
    default_snapshot_path,
    load_snapshot,
    save_snapshot,
)
from repro.bench.snapshot import (
    FULL_WORKLOAD,
    QUICK_WORKLOAD,
    build_snapshot,
)

DEFAULT_BASELINE_TAG = "baseline"


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Benchmark snapshots and the regression gate for "
                    "the RMC2000 reproduction.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_run_options(p: argparse.ArgumentParser) -> None:
        p.add_argument("--quick", action="store_true",
                       help="shrunken test workload (never compared "
                            "against full snapshots)")
        p.add_argument("--only", metavar="E1,E2,...", default=None,
                       help="run a subset of experiments")
        p.add_argument("--no-obs", action="store_true",
                       help="skip the instrumented obs scenarios")
        p.add_argument("--no-faults", action="store_true",
                       help="skip the fault-injection matrix")
        p.add_argument("--no-scaling", action="store_true",
                       help="skip the redirector scaling curve")
        p.add_argument("--jobs", type=int, default=1, metavar="N",
                       help="fan experiments, fault scenarios and scaling "
                            "points out over N worker processes; the "
                            "snapshot is byte-identical to --jobs 1 apart "
                            "from its creation stamp (default: 1)")

    run = sub.add_parser("run", help="run the battery, write a snapshot")
    run.add_argument("--tag", default="current",
                     help="snapshot tag (default: current)")
    run.add_argument("--out", metavar="FILE", default=None,
                     help="write here instead of BENCH_<tag>.json")
    add_run_options(run)

    compare = sub.add_parser("compare", help="diff two snapshots")
    compare.add_argument("baseline", help="baseline BENCH_*.json")
    compare.add_argument("current", help="current BENCH_*.json")
    compare.add_argument("--verbose", action="store_true",
                         help="show passing metrics too")

    gate = sub.add_parser(
        "gate", help="paper rules + drift vs the committed baseline"
    )
    gate.add_argument("--baseline", default=None, metavar="FILE",
                      help=f"baseline snapshot (default: "
                           f"BENCH_{DEFAULT_BASELINE_TAG}.json)")
    gate.add_argument("--snapshot", default=None, metavar="FILE",
                      help="gate this snapshot instead of running fresh")
    gate.add_argument("--verbose", action="store_true",
                      help="show passing rules and metrics too")
    add_run_options(gate)

    show = sub.add_parser(
        "show", help="regenerate experiment tables from a snapshot"
    )
    show.add_argument("snapshot", help="BENCH_*.json to render")
    show.add_argument("ids", nargs="*", metavar="EN",
                      help="experiment ids (default: all in the snapshot)")
    return parser


def _progress(message: str) -> None:
    print(f"  {message}", file=sys.stderr)


def _snapshot_from_run_options(args, tag: str, workload: str) -> dict:
    only = args.only.split(",") if args.only else None
    return build_snapshot(
        tag, workload=workload, experiments=only,
        include_obs=not args.no_obs, include_faults=not args.no_faults,
        include_scaling=not args.no_scaling,
        jobs=args.jobs, progress=_progress,
    )


def _cmd_run(args) -> int:
    workload = QUICK_WORKLOAD if args.quick else FULL_WORKLOAD
    document = _snapshot_from_run_options(args, args.tag, workload)
    path = args.out or default_snapshot_path(args.tag)
    save_snapshot(document, path)
    reproduced = sum(
        1 for record in document["experiments"].values()
        if record["reproduced"]
    )
    print(f"wrote {path}: {len(document['experiments'])} experiments "
          f"({reproduced} reproduced), workload={workload}")
    return 0 if reproduced == len(document["experiments"]) else 1


def _cmd_compare(args) -> int:
    report = compare_snapshots(
        load_snapshot(args.baseline), load_snapshot(args.current)
    )
    print(report.format(verbose=args.verbose))
    return 0 if report.ok else 1


def _cmd_gate(args) -> int:
    baseline_path = args.baseline or default_snapshot_path(
        DEFAULT_BASELINE_TAG
    )
    baseline = load_snapshot(baseline_path)
    if args.snapshot is not None:
        current = load_snapshot(args.snapshot)
    else:
        current = _snapshot_from_run_options(
            args, "gate-run",
            QUICK_WORKLOAD if args.quick else baseline["workload"],
        )
    report = evaluate_gate(current, baseline)
    print(report.format(verbose=args.verbose))
    return 0 if report.ok else 1


def _cmd_show(args) -> int:
    from repro.experiments.harness import ExperimentResult

    document = load_snapshot(args.snapshot)
    wanted = [i.upper() for i in args.ids] or sorted(
        document["experiments"],
        key=lambda e: int(e[1:]) if e[1:].isdigit() else 0,
    )
    missing = [i for i in wanted if i not in document["experiments"]]
    if missing:
        print(f"snapshot has no {missing}; it holds "
              f"{sorted(document['experiments'])}", file=sys.stderr)
        return 2
    for experiment_id in wanted:
        result = ExperimentResult.from_dict(
            document["experiments"][experiment_id]
        )
        print(result.format())
        print()
    return 0


_COMMANDS = {
    "run": _cmd_run,
    "compare": _cmd_compare,
    "gate": _cmd_gate,
    "show": _cmd_show,
}


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        status = _COMMANDS[args.command](args)
        sys.stdout.flush()  # a closed pipe raises here, not at exit
        return status
    except BenchSchemaError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # The reader stopped reading (``| head``).  Point stdout at
        # devnull so the interpreter's own flush at exit stays quiet.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
