"""Run-to-run forensics: align two runs and name what moved, and when.

``repro.bench compare`` says *that* ``obs.aes.c.total_cycles`` changed;
this module says *where*: which routine's self-cycles moved (the
paper's Tables 1-2 argument, run over run), the first simulated-time
point where two runs' telemetry series stopped agreeing, and which
trace spans got slower.

Everything here is pure data -> text: inputs are snapshot/trace JSON
documents (or live profiler/tracer exports), output is deterministic,
sorted, wall-clock-free text that golden tests can pin.

* :func:`forensics_text` -- the section ``repro.bench compare``/``gate``
  attach to a changed snapshot: routine cycle deltas, telemetry first
  divergence, and the flight-recorder tail of a changed redirector run.
* :func:`diff_documents` -- ``python -m repro.obs diff A B``: two
  Chrome ``trace_event`` exports render through
  :func:`render_trace_diff` (span trees matched by name/hierarchy path
  with signed duration deltas); anything else is refused.
"""

from __future__ import annotations

from repro.obs.timeseries import first_divergence

#: Default row cap for rendered delta tables.
DEFAULT_TOP = 10

#: Row cap for the forensics section compare/gate attaches.
FORENSICS_TOP = 3


# -- profiles -----------------------------------------------------------------

def diff_routines(base_rows: list, current_rows: list) -> list[dict]:
    """Signed per-routine self-cycle deltas, largest magnitude first.

    Rows are ``CycleProfiler.report_rows()`` shapes (or their snapshot
    JSON): ``{"routine": ..., "self cycles": ...}``.  Routines present
    on only one side diff against zero.
    """
    base = {row["routine"]: row["self cycles"] for row in base_rows}
    current = {row["routine"]: row["self cycles"] for row in current_rows}
    out = []
    for routine in sorted({**base, **current}):
        before = base.get(routine, 0)
        after = current.get(routine, 0)
        if before == after:
            continue
        out.append({
            "routine": routine,
            "baseline": before,
            "current": after,
            "delta": after - before,
            "pct": (100.0 * (after - before) / before) if before else None,
        })
    out.sort(key=lambda row: (-abs(row["delta"]), row["routine"]))
    return out


# -- telemetry ----------------------------------------------------------------

def telemetry_sections(document: dict) -> dict:
    """``scenario -> {series -> columnar}`` from a bench snapshot."""
    obs = document.get("obs", {})
    sections = {}
    for implementation, profile in sorted(
        obs.get("aes_profile", {}).items()
    ):
        telemetry = profile.get("telemetry", {})
        if telemetry:
            sections[f"aes:{implementation}"] = telemetry
    telemetry = obs.get("redirector", {}).get("telemetry", {})
    if telemetry:
        sections["redirector"] = telemetry
    return sections


def diff_telemetry(base: dict, current: dict) -> list[dict]:
    """Per-series first divergence between two telemetry sections.

    ``base``/``current`` map series name to the columnar
    ``{"times": [...], "values": [...]}`` snapshot shape.  Only series
    that differ (or exist on one side only) produce a row.
    """
    out = []
    for name in sorted({**base, **current}):
        if name not in base or name not in current:
            side = "current" if name not in base else "baseline"
            only = current.get(name) or base.get(name)
            times = only.get("times", [])
            out.append({"series": name, "status": f"{side}-only",
                        "diverges_at": times[0] if times else 0.0})
            continue
        at = first_divergence(base[name], current[name])
        if at is not None:
            out.append({"series": name, "status": "diverged",
                        "diverges_at": at})
    out.sort(key=lambda row: (row["diverges_at"], row["series"]))
    return out


def snapshot_first_divergence(base_doc: dict,
                              current_doc: dict) -> dict | None:
    """The earliest telemetry divergence anywhere in two snapshots.

    Returns ``{"scenario", "series", "diverges_at"}`` or None when the
    embedded telemetry is byte-identical.  Scenarios have independent
    simulated clocks, so the winner is the earliest *within-scenario*
    timestamp, ties broken by scenario/series name.
    """
    base_sections = telemetry_sections(base_doc)
    current_sections = telemetry_sections(current_doc)
    best = None
    for scenario in sorted({**base_sections, **current_sections}):
        rows = diff_telemetry(base_sections.get(scenario, {}),
                              current_sections.get(scenario, {}))
        if not rows:
            continue
        candidate = {
            "scenario": scenario,
            "series": rows[0]["series"],
            "diverges_at": rows[0]["diverges_at"],
        }
        if best is None or (
            (candidate["diverges_at"], candidate["scenario"],
             candidate["series"])
            < (best["diverges_at"], best["scenario"], best["series"])
        ):
            best = candidate
    return best


# -- trace span trees ---------------------------------------------------------

def _span_paths(chrome_doc: dict) -> dict:
    """``hierarchy path -> [count, total duration us]`` from a Chrome
    export.

    Spans match across runs by *name path* (root span name / ... / own
    name, rebuilt through the ``span_id``/``parent`` args the exporter
    embeds), not by id -- ids are allocation order and differ run to
    run as soon as anything reorders.
    """
    spans = {}
    for event in chrome_doc.get("traceEvents", []):
        if event.get("ph") != "X":
            continue
        args = event.get("args", {})
        span_id = args.get("span_id")
        if span_id is None:
            continue
        spans[span_id] = (event["name"], args.get("parent"),
                          event.get("dur", 0.0))
    paths: dict = {}
    for span_id in sorted(spans):
        name, parent, dur = spans[span_id]
        parts = [name]
        hops = 0
        while parent is not None and parent in spans and hops < 64:
            parts.append(spans[parent][0])
            parent = spans[parent][1]
            hops += 1
        path = "/".join(reversed(parts))
        entry = paths.setdefault(path, [0, 0.0])
        entry[0] += 1
        entry[1] += dur
    return paths


def diff_trace_trees(base_doc: dict, current_doc: dict) -> list[dict]:
    """Span-tree diff: per name-path call count and duration deltas."""
    base = _span_paths(base_doc)
    current = _span_paths(current_doc)
    out = []
    for path in sorted({**base, **current}):
        base_count, base_dur = base.get(path, (0, 0.0))
        cur_count, cur_dur = current.get(path, (0, 0.0))
        if base_count == cur_count and base_dur == cur_dur:
            continue
        out.append({
            "path": path,
            "baseline_count": base_count, "current_count": cur_count,
            "baseline_dur_us": round(base_dur, 3),
            "current_dur_us": round(cur_dur, 3),
            "delta_dur_us": round(cur_dur - base_dur, 3),
        })
    out.sort(key=lambda row: (-abs(row["delta_dur_us"]), row["path"]))
    return out


# -- rendering ----------------------------------------------------------------

def _fmt_cycles(value) -> str:
    return f"{value:,}".replace(",", " ")


def _routine_lines(rows: list[dict], top: int) -> list[str]:
    lines = []
    for row in rows[:top] if top else rows:
        pct = ("new" if row["pct"] is None
               else f"{row['pct']:+.1f}%")
        lines.append(
            f"    {row['routine']:<20} "
            f"{_fmt_cycles(row['baseline']):>12} -> "
            f"{_fmt_cycles(row['current']):>12}   "
            f"{row['delta']:+d} cycles ({pct})"
        )
    dropped = len(rows) - len(lines)
    if dropped > 0:
        lines.append(f"    ... and {dropped} more routine(s)")
    return lines


def format_recorder_tail(records: list[dict],
                         indent: str = "    ") -> list[str]:
    """Render ``FlightRecorder.dump()`` records (tail_lines' format)."""
    return [
        f"{indent}[{r['seq']:>6}] t={r['t']:.6f}s {r['sev']:<5} "
        f"{r['cat']}/{r['tid']}: {r['msg']}"
        for r in records
    ]


def render_trace_diff(base_doc: dict, current_doc: dict,
                      top: int = DEFAULT_TOP) -> tuple[str, bool]:
    """Chrome-trace-vs-trace report; returns ``(text, changed)``.

    ``top`` caps the rows shown (0 shows all); it must not be negative.
    """
    rows = diff_trace_trees(base_doc, current_doc)
    shown = rows[:top] if top else rows
    lines = [f"trace diff: {len(rows)} span path(s) changed"]
    for row in shown:
        count = (
            f" (x{row['baseline_count']} -> x{row['current_count']})"
            if row["baseline_count"] != row["current_count"] else ""
        )
        lines.append(
            f"  {row['path']:<56} "
            f"{row['baseline_dur_us']:>12.3f}us -> "
            f"{row['current_dur_us']:>12.3f}us  "
            f"{row['delta_dur_us']:+.3f}us{count}"
        )
    if len(shown) < len(rows):
        lines.append(f"  ... and {len(rows) - len(shown)} more span path(s)")
    if not rows:
        lines.append("  no differences")
    return "\n".join(lines), bool(rows)


def diff_documents(base_doc: dict, current_doc: dict,
                   top: int = DEFAULT_TOP) -> tuple[str, bool]:
    """Render the diff of two Chrome trace exports; reject anything
    else (two bench snapshots compare with ``repro.bench compare``)."""
    if "traceEvents" in base_doc and "traceEvents" in current_doc:
        return render_trace_diff(base_doc, current_doc, top)
    raise ValueError(
        "cannot diff documents other than two Chrome trace exports; "
        "compare two bench snapshots with `python -m repro.bench compare "
        "A B`"
    )


def forensics_tail(base_doc: dict, current_doc: dict) -> list:
    """The flight-recorder tail :func:`forensics_text` prints: the
    current run's, only when its ``obs.redirector`` section differs
    from the baseline's (an unchanged run's tail explains nothing)."""
    base = base_doc.get("obs", {}).get("redirector", {})
    current = current_doc.get("obs", {}).get("redirector", {})
    return current.get("recorder_tail", []) if current != base else []


def forensics_text(base_doc: dict, current_doc: dict,
                   top: int = FORENSICS_TOP) -> str:
    """The forensics section ``repro.bench compare``/``gate`` attach
    when any metric changed: top-N per-routine cycle deltas, the
    first simulated-time telemetry divergence, and the current run's
    flight-recorder tail when the redirector run changed.
    Deterministic: derived purely from the two snapshot documents.
    """
    lines = ["forensics:"]
    base_obs = base_doc.get("obs", {}).get("aes_profile", {})
    current_obs = current_doc.get("obs", {}).get("aes_profile", {})
    any_routines = False
    for implementation in sorted({**base_obs, **current_obs}):
        rows = diff_routines(
            base_obs.get(implementation, {}).get("routines", []),
            current_obs.get(implementation, {}).get("routines", []),
        )
        if not rows:
            continue
        any_routines = True
        lines.append(f"  top routine cycle deltas [{implementation}]:")
        lines.extend(_routine_lines(rows, top))
    if not any_routines:
        lines.append("  routine cycle profiles: identical")
    divergence = snapshot_first_divergence(base_doc, current_doc)
    if divergence is not None:
        lines.append(
            "  first telemetry divergence: "
            f"{divergence['scenario']}/{divergence['series']} "
            f"at t={divergence['diverges_at']:.9f}s"
        )
    else:
        lines.append("  first telemetry divergence: none (series identical)")
    tail = forensics_tail(base_doc, current_doc)
    if tail:
        lines.append(
            f"  flight recorder tail (current run, last {len(tail)}):"
        )
        lines.extend(format_recorder_tail(tail))
    return "\n".join(lines)
