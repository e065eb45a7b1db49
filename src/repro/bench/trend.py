"""Perf trajectory: one row per committed ``BENCH_*.json`` snapshot.

``trend_rows`` distills each snapshot to its headline numbers -- the
paper's own scoreboard -- so `python -m repro.bench trend` shows how
the reproduction's performance moved PR over PR.  Renders as the
harness text table or as a markdown table for reports.
"""

from __future__ import annotations

import os

from repro.bench.schema import BenchSchemaError, list_snapshots, load_snapshot

#: column header -> (experiment id, metric name, decimals)
_HEADLINES: tuple[tuple[str, tuple[str, str, int]], ...] = (
    ("E1 asm/C", ("E1", "asm_over_c_speed_ratio", 1)),
    ("E1 asm cyc/blk", ("E1", "asm_cycles_per_block", 0)),
    ("E2 sweep %", ("E2", "combined_gain_pct", 1)),
    ("E4 plain kb/s", ("E4", "plain_kb_per_s", 2)),
    ("E4 TLS cost x", ("E4", "plain_over_secure_asm_ratio", 1)),
    ("E5 peak", ("E5", "peak_sessions_3_handlers", 0)),
    ("E7 RAM B", ("E7", "port_ram_bytes", 0)),
    ("E10 RSA512 s", ("E10", "rsa512_naive_seconds", 0)),
)


def _headline(document: dict, experiment_id: str, metric: str,
              decimals: int):
    record = document["experiments"].get(experiment_id)
    if record is None:
        return None
    value = record.get("metrics", {}).get(metric)
    if value is None:
        return None
    return round(value, decimals) if decimals else round(value)


def trend_rows(directory: str | os.PathLike = ".") -> list[dict]:
    """One headline row per readable snapshot, oldest first."""
    rows = []
    for path in list_snapshots(directory):
        try:
            document = load_snapshot(path)
        except BenchSchemaError:
            rows.append({"tag": path.name, "date": "(unreadable)"})
            continue
        experiments = document["experiments"]
        reproduced = sum(
            1 for record in experiments.values() if record.get("reproduced")
        )
        row = {
            "tag": document["tag"],
            "date": document.get("created_iso", "")[:10],
            "workload": document["workload"],
        }
        for header, (experiment_id, metric, decimals) in _HEADLINES:
            row[header] = _headline(document, experiment_id, metric,
                                    decimals)
        row["repro"] = f"{reproduced}/{len(experiments)}"
        rows.append(row)
    return rows


def render_markdown(rows: list[dict]) -> str:
    """The same trajectory as a GitHub-flavored markdown table."""
    if not rows:
        return "(no snapshots)"
    columns = list(rows[0].keys())
    out = [
        "| " + " | ".join(columns) + " |",
        "| " + " | ".join("---" for _ in columns) + " |",
    ]
    for row in rows:
        out.append(
            "| " + " | ".join(
                "-" if row.get(column) is None else str(row.get(column))
                for column in columns
            ) + " |"
        )
    return "\n".join(out)


def render_trend(directory: str | os.PathLike = ".",
                 markdown: bool = False) -> str:
    rows = trend_rows(directory)
    if markdown:
        return render_markdown(rows)
    from repro.experiments.harness import format_table
    return format_table(rows) if rows else "(no snapshots)"
