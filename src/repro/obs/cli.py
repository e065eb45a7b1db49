"""``python -m repro.obs``: run an instrumented scenario, emit artifacts.

Three subcommands, one per artifact kind:

* ``report`` -- metrics tables plus a per-span-name summary (and the
  per-routine cycle table for the ``aes`` scenario), as text.
* ``trace`` -- the Chrome ``trace_event`` JSON (load in
  ``chrome://tracing`` or https://ui.perfetto.dev), or JSON-lines.
* ``flame`` -- collapsed stacks for ``flamegraph.pl`` / speedscope
  (``aes`` scenario only; it is the one with a CPU to profile).

Plus one subcommand that judges existing artifacts instead of running
a scenario:

* ``diff`` -- align two Chrome trace exports (:mod:`repro.obs.diff`):
  span trees by name/hierarchy path with duration deltas.  Exit 0
  means identical span trees, 1 means differences, 2 means a document
  would not load or is not a trace.  Two bench snapshots compare with
  ``python -m repro.bench compare``.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.obs.diff import DEFAULT_TOP, diff_documents
from repro.obs.scenarios import SCENARIOS


def _row_cap(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be 0 or more, not {value}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs",
        description="Observability for the RMC2000 port reproduction: "
                    "run an instrumented scenario and emit a report, a "
                    "Chrome trace, or collapsed flame stacks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser, default_scenario: str):
        p.add_argument("--scenario", choices=sorted(SCENARIOS),
                       default=default_scenario,
                       help=f"which canned run (default: {default_scenario})")
        p.add_argument("--out", metavar="FILE", default=None,
                       help="write to FILE instead of stdout")
        p.add_argument("--implementation", choices=("asm", "c"),
                       default="asm",
                       help="AES implementation for the aes scenario")

    report = sub.add_parser("report", help="metrics + span summary tables")
    add_common(report, "redirector")

    trace = sub.add_parser("trace", help="Chrome trace_event JSON")
    add_common(trace, "redirector")
    trace.add_argument("--format", choices=("chrome", "jsonl"),
                       default="chrome", dest="trace_format")

    flame = sub.add_parser("flame", help="collapsed flame stacks (aes)")
    add_common(flame, "aes")

    diff = sub.add_parser("diff", help="diff two Chrome trace exports")
    diff.add_argument("baseline", metavar="A",
                      help="baseline Chrome trace JSON")
    diff.add_argument("current", metavar="B",
                      help="current Chrome trace JSON")
    diff.add_argument("--top", type=_row_cap, default=DEFAULT_TOP,
                      metavar="N",
                      help=f"rows in the delta table (default: "
                           f"{DEFAULT_TOP}; 0 = all)")
    diff.add_argument("--out", metavar="FILE", default=None,
                      help="write to FILE instead of stdout")
    return parser


def _run_scenario(args) -> dict:
    scenario = SCENARIOS[args.scenario]
    if args.scenario == "aes":
        return scenario(implementation=args.implementation)
    return scenario()


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")


def _report_text(args, result: dict) -> str:
    from repro.experiments.harness import format_table

    obs = result["obs"]
    sections = [f"scenario: {args.scenario}", "", "== metrics ==",
                obs.metrics.render_text()]
    if obs.telemetry.names():
        sections += ["", "== telemetry (simulated time) ==",
                     obs.telemetry.render_text()]
    summary = obs.tracer.summary_rows()
    if summary:
        sections += ["", "== spans ==", format_table(summary)]
    profiler = result.get("profiler")
    if profiler is not None:
        sections += ["", f"== cycles by routine ({result['implementation']}, "
                         f"{profiler.total_cycles} total) ==",
                     format_table(profiler.report_rows())]
    reports = result.get("reports")
    if reports:
        rows = [{
            "client": r.name,
            "handshake ms": round(r.handshake_time * 1000, 2),
            "requests": len(r.request_times),
            "bytes rx": r.bytes_received,
            "ok": r.error is None,
        } for r in reports]
        sections += ["", "== clients ==", format_table(rows)]
    return "\n".join(sections)


def _cmd_diff(args) -> int:
    documents = []
    for path in (args.baseline, args.current):
        try:
            with open(path, "r", encoding="utf-8") as handle:
                documents.append(json.load(handle))
        except (OSError, json.JSONDecodeError) as exc:
            print(f"diff: cannot load {path}: {exc}", file=sys.stderr)
            return 2
    try:
        text, changed = diff_documents(*documents, top=args.top)
    except ValueError as exc:
        print(f"diff: {exc}", file=sys.stderr)
        return 2
    _emit(text, args.out)
    return 1 if changed else 0


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "diff":
        return _cmd_diff(args)
    result = _run_scenario(args)
    obs = result["obs"]
    if args.command == "report":
        _emit(_report_text(args, result), args.out)
    elif args.command == "trace":
        if args.trace_format == "jsonl":
            _emit(obs.tracer.to_jsonl(), args.out)
        else:
            _emit(json.dumps(
                obs.tracer.to_chrome(telemetry=obs.telemetry), indent=1
            ), args.out)
    elif args.command == "flame":
        profiler = result.get("profiler")
        if profiler is None:
            print(f"scenario {args.scenario!r} has no CPU profile; "
                  "use --scenario aes", file=sys.stderr)
            return 2
        _emit("\n".join(profiler.flame_lines()), args.out)
    return 0
