"""``python -m repro.faults {list,run,matrix,soak}``.

* ``list`` -- every named scenario with its one-line description.
* ``run NAME...`` -- run chosen scenarios, print their JSON report.
* ``matrix`` -- run the full matrix (or ``--only``); the CI entry point.
* ``soak`` -- sustained mixed faults for ``--sim-minutes`` of simulated
  time.

All report-emitting commands exit 0 on PASS and 1 on FAIL, and print
the canonical JSON (sorted keys, no wall-clock fields) so the same
``--seed`` produces byte-identical output.  ``--summary`` trades the
JSON body for one line per scenario.
"""

from __future__ import annotations

import argparse
import sys

from repro.faults.campaign import (
    DEFAULT_SEED,
    render_report,
    run_matrix,
    run_soak,
    scenario_descriptions,
    scenario_names,
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.faults",
        description="Deterministic fault-injection campaigns against the "
                    "reproduced RMC2000 services.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_report_options(p: argparse.ArgumentParser) -> None:
        p.add_argument("--seed", type=int, default=DEFAULT_SEED,
                       help=f"campaign seed (default: {DEFAULT_SEED}); "
                            f"same seed, same report bytes")
        p.add_argument("--out", metavar="FILE", default=None,
                       help="also write the JSON report here")
        p.add_argument("--summary", action="store_true",
                       help="print one line per scenario instead of JSON")

    sub.add_parser("list", help="named scenarios and descriptions")

    run = sub.add_parser("run", help="run chosen scenarios")
    run.add_argument("names", nargs="+", metavar="NAME",
                     help="scenario names (see `list`)")
    add_report_options(run)

    matrix = sub.add_parser("matrix", help="run every scenario")
    matrix.add_argument("--only", metavar="N1,N2,...", default=None,
                        help="run a subset of the matrix")
    add_report_options(matrix)
    # A soak is one world evolving in sequence: only scenarios fan out.
    for p in (run, matrix):
        p.add_argument("--jobs", type=int, default=1, metavar="N",
                       help="fan scenarios out over N worker processes; "
                            "the merged report is byte-identical to "
                            "--jobs 1 (default: 1)")

    soak = sub.add_parser("soak", help="sustained mixed-fault campaign")
    soak.add_argument("--sim-minutes", type=float, default=1.0,
                      help="simulated minutes to run (default: 1.0)")
    add_report_options(soak)
    return parser


def _summarize(report: dict) -> str:
    lines = []
    for verdict in report.get("scenarios", report.get("checks", [])):
        ok = verdict["ok"]
        name = verdict["name"]
        failing = [c["name"] for c in verdict.get("checks", [])
                   if not c["ok"]]
        detail = f" [{', '.join(failing)}]" if failing else ""
        lines.append(f"{'PASS' if ok else 'FAIL'}  {name}{detail}")
    lines.append(
        f"{report['verdict']}: {report['passed']}/{report['total']} "
        f"(seed={report['seed']})"
    )
    return "\n".join(lines)


def _emit(report: dict, args) -> int:
    text = render_report(report)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
    if args.summary:
        print(_summarize(report))
    else:
        sys.stdout.write(text)
    return 0 if report["verdict"] == "PASS" else 1


def _cmd_list(args) -> int:
    descriptions = scenario_descriptions()
    width = max(len(name) for name in descriptions)
    for name in scenario_names():
        print(f"{name:<{width}}  {descriptions[name]}")
    return 0


def _cmd_run(args) -> int:
    return _emit(run_matrix(args.names, seed=args.seed, jobs=args.jobs), args)


def _cmd_matrix(args) -> int:
    only = args.only.split(",") if args.only else None
    return _emit(run_matrix(only, seed=args.seed, jobs=args.jobs), args)


def _cmd_soak(args) -> int:
    return _emit(run_soak(args.sim_minutes, seed=args.seed), args)


_COMMANDS = {
    "list": _cmd_list,
    "run": _cmd_run,
    "matrix": _cmd_matrix,
    "soak": _cmd_soak,
}


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except KeyError as exc:
        print(f"faults: {exc.args[0]}", file=sys.stderr)
        return 2
