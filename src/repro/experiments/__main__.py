"""``python -m repro.experiments [--json] [E1 E2 ...]``: run experiments.

Default output is the text report (one table per experiment).  With
``--json`` the same runs are emitted as a JSON array of
:class:`~repro.experiments.harness.ExperimentResult` dicts -- the exact
serialization :mod:`repro.bench` snapshots use, so experiments and
bench share one pipeline.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.experiments import RUNNERS


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Run the paper-claim experiment battery (E1..E10).",
    )
    parser.add_argument("ids", nargs="*", metavar="EN",
                        help="experiment ids to run (default: all)")
    parser.add_argument("--json", action="store_true", dest="as_json",
                        help="emit results as a JSON array instead of text")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    wanted = [arg.upper() for arg in args.ids] or list(RUNNERS)
    unknown = [w for w in wanted if w not in RUNNERS]
    if unknown:
        print(f"unknown experiment ids: {unknown}; known: {list(RUNNERS)}",
              file=sys.stderr)
        return 2
    failures = 0
    records = []
    for experiment_id in wanted:
        result = RUNNERS[experiment_id]()
        if args.as_json:
            records.append(result.to_dict())
        else:
            print(result.format())
            print()
        if not result.reproduced:
            failures += 1
    if args.as_json:
        json.dump(records, sys.stdout, indent=2, sort_keys=True)
        sys.stdout.write("\n")
    else:
        print(f"{len(wanted) - failures}/{len(wanted)} experiments reproduced")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
