"""Tracing: nestable spans over simulated time (DESIGN.md S16).

A :class:`Tracer` records *spans* -- named intervals with attributes --
and *instants* -- point events.  Time comes from an injectable ``clock``
callable (normally the discrete-event simulator's ``sim.now``, so span
durations are simulated seconds, not host seconds).  Spans hold no
host time, so a trace is byte-identical from run to run; host time per
layer is ``benchmarks/perf``'s measurement.

Spans nest: :meth:`Tracer.begin` pushes onto a per-``tid`` stack and the
span remembers its parent.  ``tid`` ("thread id") names a logical
timeline -- a costatement, a TCP connection, an issl role -- because the
simulator interleaves many logical flows through one Python thread and a
single global stack would mis-nest them.

Two export formats:

* :meth:`Tracer.to_jsonl` -- one JSON object per line, the harness's
  structured output format.
* :meth:`Tracer.to_chrome` -- the Chrome ``trace_event`` format, loadable
  in ``chrome://tracing`` or https://ui.perfetto.dev: ``X`` (complete)
  events for spans, ``i`` for instants, ``M`` metadata naming threads.

:class:`NullTracer` is the disabled variant: every operation is a no-op
on shared singletons, so instrumented hot paths cost one attribute
lookup and one method call when observability is off.
"""

from __future__ import annotations

import json
from typing import Callable

#: Span category names used across the stack; a layer tags its spans so
#: traces can be filtered and the acceptance test can count layers.
CAT_ISSL = "issl"
CAT_TCP = "net.tcp"
CAT_COSTATE = "costate"
CAT_CPU = "rabbit.cpu"
CAT_XALLOC = "xalloc"
CAT_SERVICE = "service"
CAT_APP = "app"

#: Sentinel for ``Tracer.begin(trace=NEW_TRACE)``: mint a fresh trace
#: rooted at the new span (its trace id is its own span id).
NEW_TRACE = "new"


class TraceContext:
    """The portable causal handle: which trace, and which span within it.

    Minted at a request's root span and carried as a side-channel
    annotation (through TCP send queues and across ``EthernetSegment``
    frames), so a receiver on another simulated host can open its span
    with ``parent=ctx.span_id, trace=ctx.trace_id`` and the whole
    request path reconstructs as one tree.
    """

    __slots__ = ("trace_id", "span_id")

    def __init__(self, trace_id: int, span_id: int):
        self.trace_id = trace_id
        self.span_id = span_id

    def __repr__(self) -> str:
        return f"TraceContext(trace={self.trace_id}, span={self.span_id})"


def context_of(span: "Span | None") -> TraceContext | None:
    """The :class:`TraceContext` naming ``span``, or None for null/untraced
    spans (a :class:`NullTracer` span has no ids to propagate)."""
    span_id = getattr(span, "span_id", None)
    if span_id is None:
        return None
    trace_id = span.trace_id if span.trace_id is not None else span_id
    return TraceContext(trace_id, span_id)


class Span:
    """One named interval on one logical timeline."""

    __slots__ = ("name", "cat", "tid", "start", "end", "args", "span_id",
                 "parent_id", "trace_id")

    def __init__(self, name: str, cat: str, tid: str, start: float,
                 span_id: int, parent_id: int | None, args: dict,
                 trace_id: int | None = None):
        self.name = name
        self.cat = cat
        self.tid = tid
        self.start = start
        self.end: float | None = None
        self.args = args
        self.span_id = span_id
        self.parent_id = parent_id
        self.trace_id = trace_id

    @property
    def duration(self) -> float:
        return 0.0 if self.end is None else self.end - self.start

    def to_dict(self) -> dict:
        record = {
            "type": "span",
            "name": self.name,
            "cat": self.cat,
            "tid": self.tid,
            "id": self.span_id,
            "parent": self.parent_id,
            "trace": self.trace_id,
            "start_s": self.start,
            "end_s": self.end,
        }
        if self.args:
            record["args"] = self.args
        return record

    def __repr__(self) -> str:
        state = "open" if self.end is None else f"{self.duration:.6g}s"
        return f"Span({self.name!r}, cat={self.cat}, tid={self.tid}, {state})"


class _SpanContext:
    """``with tracer.span(...)`` support, reusable and allocation-light."""

    __slots__ = ("_tracer", "_span")

    def __init__(self, tracer: "Tracer", span: Span):
        self._tracer = tracer
        self._span = span

    def __enter__(self) -> Span:
        return self._span

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc is not None:
            self._span.args["error"] = type(exc).__name__
        self._tracer.end(self._span)


class Tracer:
    """Records spans and instants against an injectable clock."""

    def __init__(self, clock: Callable[[], float] | None = None):
        self.clock = clock
        self.spans: list[Span] = []
        self.instants: list[dict] = []
        self._stacks: dict[str, list[Span]] = {}
        self._next_id = 1

    # -- recording ------------------------------------------------------
    def now(self) -> float:
        return self.clock() if self.clock is not None else 0.0

    def begin(self, name: str, cat: str = CAT_APP, tid: str = "main",
              parent: int | None = None, trace: int | str | None = None,
              **args) -> Span:
        """Open a span; it nests under the tid's current open span.

        ``parent`` overrides the stack parent with an explicit span id
        -- how a receiver links its span to a *remote* sender's via a
        propagated :class:`TraceContext`.  ``trace`` sets the trace id:
        an int adopts an existing trace, :data:`NEW_TRACE` mints a fresh
        one rooted here; by default the span inherits its local parent's
        trace.
        """
        stack = self._stacks.setdefault(tid, [])
        local_parent = stack[-1] if stack else None
        parent_id = parent if parent is not None else (
            local_parent.span_id if local_parent is not None else None
        )
        span = Span(name, cat, tid, self.now(), self._next_id, parent_id,
                    args)
        if trace == NEW_TRACE:
            span.trace_id = span.span_id
        elif trace is not None:
            span.trace_id = trace
        elif parent is None and local_parent is not None:
            span.trace_id = local_parent.trace_id
        self._next_id += 1
        stack.append(span)
        return span

    def end(self, span: Span, **args) -> Span:
        """Close a span (tolerates out-of-order closes across yields)."""
        if span.end is not None:
            return span
        span.end = self.now()
        if args:
            span.args.update(args)
        stack = self._stacks.get(span.tid, [])
        if span in stack:
            stack.remove(span)
        self.spans.append(span)
        return span

    def span(self, name: str, cat: str = CAT_APP, tid: str = "main",
             **args) -> _SpanContext:
        """Context manager form: ``with tracer.span("x"): ...``."""
        return _SpanContext(self, self.begin(name, cat, tid, **args))

    def add_complete(self, name: str, start: float, end: float,
                     cat: str = CAT_APP, tid: str = "main",
                     parent: int | None = None, trace: int | None = None,
                     **args) -> Span:
        """Record an already-timed interval (reconstructed timelines:
        the costatement scheduler knows where each slice *would* sit on
        the board even though the simulator charges time in one lump).
        ``parent``/``trace`` attach it to a propagated trace context."""
        span = Span(name, cat, tid, start, self._next_id, parent, args,
                    trace_id=trace)
        self._next_id += 1
        span.end = end
        self.spans.append(span)
        return span

    def instant(self, name: str, cat: str = CAT_APP, tid: str = "main",
                **args) -> None:
        """Record a point event (TCP state transitions, aborts...)."""
        self.instants.append({
            "type": "instant", "name": name, "cat": cat, "tid": tid,
            "ts_s": self.now(), "args": args,
        })

    @property
    def enabled(self) -> bool:
        return True

    @property
    def open_spans(self) -> list[Span]:
        return [span for stack in self._stacks.values() for span in stack]

    def finish_open(self) -> None:
        """Close any still-open spans (long-lived connections at the end
        of a scenario), tagging them so exports stay honest."""
        for span in list(self.open_spans):
            span.args.setdefault("unfinished", True)
            self.end(span)

    # -- queries --------------------------------------------------------
    def summary_rows(self) -> list[dict]:
        """Per span-name aggregate: count and simulated time."""
        totals: dict[tuple[str, str], list] = {}
        for span in self.spans:
            entry = totals.setdefault((span.cat, span.name), [0, 0.0])
            entry[0] += 1
            entry[1] += span.duration
        return [
            {"cat": cat, "span": name, "count": count,
             "total sim ms": round(total * 1000, 3),
             "mean sim ms": round(total * 1000 / count, 3)}
            for (cat, name), (count, total) in sorted(totals.items())
        ]

    # -- exports --------------------------------------------------------
    def to_jsonl(self) -> str:
        records = [span.to_dict() for span in self.spans] + list(self.instants)
        return "\n".join(json.dumps(r, sort_keys=True) for r in records)

    def to_chrome(self, pid: int = 1, telemetry=None) -> dict:
        """The ``trace_event`` JSON object ``chrome://tracing`` loads.

        Pass a :class:`repro.obs.TelemetryStore` as ``telemetry`` to
        emit its time series as counter (``"C"`` phase) events, so
        queue depths and xmem usage render as tracks alongside spans.
        """
        tids: dict[str, int] = {}
        events: list[dict] = []

        def tid_of(name: str) -> int:
            if name not in tids:
                tids[name] = len(tids) + 1
                events.append({
                    "ph": "M", "pid": pid, "tid": tids[name],
                    "name": "thread_name", "args": {"name": name},
                })
            return tids[name]

        for span in sorted(self.spans, key=lambda s: (s.start, s.span_id)):
            event = {
                "ph": "X", "pid": pid, "tid": tid_of(span.tid),
                "name": span.name, "cat": span.cat,
                "ts": round(span.start * 1e6, 3),
                "dur": round(span.duration * 1e6, 3),
            }
            args = dict(span.args)
            # Span identity rides in args so parent links survive the
            # Chrome export and a viewer (or test) can rebuild the tree.
            args["span_id"] = span.span_id
            if span.parent_id is not None:
                args["parent"] = span.parent_id
            if span.trace_id is not None:
                args["trace"] = span.trace_id
            event["args"] = args
            events.append(event)
        for instant in self.instants:
            events.append({
                "ph": "i", "pid": pid, "tid": tid_of(instant["tid"]),
                "name": instant["name"], "cat": instant["cat"],
                "ts": round(instant["ts_s"] * 1e6, 3), "s": "t",
                "args": instant["args"],
            })
        if telemetry is not None and telemetry.enabled:
            for name in telemetry.names():
                series = telemetry.series(name)
                for t, value in zip(series.times, series.values):
                    events.append({
                        "ph": "C", "pid": pid, "tid": 0, "name": name,
                        "ts": round(t * 1e6, 3),
                        "args": {"value": value},
                    })
        return {"traceEvents": events, "displayTimeUnit": "ms"}


class _NullSpan:
    """Shared do-nothing span; also its own context manager."""

    __slots__ = ()
    name = ""
    cat = ""
    tid = ""
    args: dict = {}
    end = None
    duration = 0.0
    span_id = None
    parent_id = None
    trace_id = None

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        return None


_NULL_SPAN = _NullSpan()


class NullTracer(Tracer):
    """Observability off: every operation is a cheap no-op."""

    def __init__(self):
        super().__init__()

    def begin(self, name, cat=CAT_APP, tid="main", **args):
        return _NULL_SPAN

    def end(self, span, **args):
        return _NULL_SPAN

    def span(self, name, cat=CAT_APP, tid="main", **args):
        return _NULL_SPAN

    def add_complete(self, name, start, end, cat=CAT_APP, tid="main", **args):
        return _NULL_SPAN

    def instant(self, name, cat=CAT_APP, tid="main", **args):
        return None

    @property
    def enabled(self) -> bool:
        return False
