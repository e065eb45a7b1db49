"""The dclint command line: ``python -m repro.analysis <paths...>``.

Exit status is 1 when any finding reaches the ``--fail-on`` severity
(default: error), 2 on usage errors, else 0 -- so CI can gate on the
platform contract the paper's authors had to discover on the board.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

from repro.analysis.config import DEFAULT_CONFIG
from repro.analysis.engine import analyze_paths, worst_severity
from repro.diagnostics import Severity, format_text

#: JSON envelope version.  2 added the ``rules`` inventory, renamed
#: ``version`` to ``schema_version``, and guaranteed diagnostics sorted
#: by (file, line, col, rule).
SCHEMA_VERSION = 2

#: Every rule the tool can emit, in stable report order.
RULE_IDS = tuple(
    [f"DC{n:03d}" for n in range(1, 13)]
    + [f"PY{n}" for n in (101, 102, 103, 104, 105, 106)]
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="dclint: static porting-pitfall analysis for the "
                    "Dynamic C subset (rules DC001..DC012, PY101..PY106)",
    )
    parser.add_argument("paths", nargs="+",
                        help=".c/.dc/.py files or directories to lint")
    parser.add_argument("--format", choices=("text", "json"), default="text")
    parser.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="lint N files in parallel (output is "
                             "byte-identical at any job count)")
    parser.add_argument("--max-costates", type=int,
                        default=DEFAULT_CONFIG.max_costates,
                        help="DC003 request-costatement cap (default: "
                             f"{DEFAULT_CONFIG.max_costates}, Figure 3)")
    parser.add_argument("--data-placement",
                        choices=("flash", "root_ram", "xmem"),
                        default=DEFAULT_CONFIG.data_placement,
                        help="DC005: where const arrays are placed by the "
                             "build being checked")
    parser.add_argument("--fail-on", choices=("error", "warning"),
                        default="error",
                        help="lowest severity that fails the run")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    config = dataclasses.replace(
        DEFAULT_CONFIG,
        max_costates=args.max_costates,
        data_placement=args.data_placement,
    )
    if args.jobs < 1:
        print("dclint: --jobs must be at least 1", file=sys.stderr)
        return 2
    try:
        diagnostics = analyze_paths(args.paths, config, jobs=args.jobs)
    except OSError as error:
        print(f"dclint: {error}", file=sys.stderr)
        return 2
    errors = sum(d.severity == Severity.ERROR for d in diagnostics)
    warnings = sum(d.severity == Severity.WARNING for d in diagnostics)
    notes = len(diagnostics) - errors - warnings
    if args.format == "json":
        print(json.dumps({
            "tool": "dclint",
            "schema_version": SCHEMA_VERSION,
            "rules": list(RULE_IDS),
            "diagnostics": [d.to_dict() for d in diagnostics],
            "summary": {"errors": errors, "warnings": warnings,
                        "notes": notes},
        }, indent=2))
    else:
        if diagnostics:
            print(format_text(diagnostics))
        print(f"dclint: {errors} error(s), {warnings} warning(s), "
              f"{notes} note(s)")
    threshold = Severity.ERROR if args.fail_on == "error" else Severity.WARNING
    worst = worst_severity(diagnostics)
    return 1 if worst is not None and worst >= threshold else 0
