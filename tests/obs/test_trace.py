"""Tracer behaviour: nesting, ordering, exports, and the null variant.

The Chrome export is pinned by a golden file
(``golden_chrome_trace.json``): the trace_event format is consumed by
external viewers, so its shape is a compatibility contract, not an
implementation detail.  Regenerate with
``python tests/obs/test_trace.py`` after a *deliberate* format change.
"""

import json
import pathlib
import time

from repro.obs import NULL_OBS, Obs
from repro.obs.trace import (
    CAT_COSTATE,
    CAT_ISSL,
    CAT_TCP,
    NEW_TRACE,
    NullTracer,
    Tracer,
    context_of,
)

GOLDEN = pathlib.Path(__file__).with_name("golden_chrome_trace.json")


class ManualClock:
    """A settable simulated-time source for deterministic spans."""

    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t


# -- nesting and ordering -----------------------------------------------------

class TestNesting:
    def test_spans_nest_per_tid(self):
        tracer = Tracer()
        outer = tracer.begin("outer", tid="a")
        inner = tracer.begin("inner", tid="a")
        other = tracer.begin("other", tid="b")
        assert inner.parent_id == outer.span_id
        assert other.parent_id is None  # a different timeline
        tracer.end(inner)
        tracer.end(outer)
        tracer.end(other)

    def test_completion_order_is_recording_order(self):
        clock = ManualClock()
        tracer = Tracer(clock=clock)
        outer = tracer.begin("outer")
        clock.t = 1.0
        inner = tracer.begin("inner")
        clock.t = 2.0
        tracer.end(inner)
        clock.t = 3.0
        tracer.end(outer)
        assert [s.name for s in tracer.spans] == ["inner", "outer"]
        assert inner.duration == 1.0
        assert outer.duration == 3.0

    def test_out_of_order_end_tolerated(self):
        # A costatement can yield mid-span; the sibling's span may close
        # first without corrupting the other's parentage.
        tracer = Tracer()
        first = tracer.begin("first", tid="t")
        second = tracer.begin("second", tid="t")
        tracer.end(first)
        third = tracer.begin("third", tid="t")
        assert third.parent_id == second.span_id
        tracer.end(third)
        tracer.end(second)
        assert {s.name for s in tracer.spans} == {"first", "second", "third"}

    def test_double_end_is_idempotent(self):
        tracer = Tracer()
        span = tracer.begin("once")
        tracer.end(span)
        tracer.end(span)
        assert len(tracer.spans) == 1

    def test_context_manager_tags_errors(self):
        tracer = Tracer()
        try:
            with tracer.span("risky"):
                raise ValueError("boom")
        except ValueError:
            pass
        (span,) = tracer.spans
        assert span.args["error"] == "ValueError"
        assert span.end is not None

    def test_finish_open_tags_unfinished(self):
        tracer = Tracer()
        tracer.begin("long-lived", tid="conn")
        tracer.finish_open()
        (span,) = tracer.spans
        assert span.args["unfinished"] is True
        assert tracer.open_spans == []

    def test_add_complete_places_reconstructed_slices(self):
        tracer = Tracer()
        span = tracer.add_complete("slice", 1.5, 2.5, cat=CAT_COSTATE,
                                   tid="bigloop", run=7)
        assert (span.start, span.end) == (1.5, 2.5)
        assert span.parent_id is None
        assert span.args == {"run": 7}


# -- causal contexts ----------------------------------------------------------

class TestCausalContext:
    def test_new_trace_roots_at_the_span(self):
        tracer = Tracer()
        root = tracer.begin("client.request", trace=NEW_TRACE)
        assert root.trace_id == root.span_id

    def test_children_inherit_the_parents_trace(self):
        tracer = Tracer()
        root = tracer.begin("client.request", tid="a", trace=NEW_TRACE)
        child = tracer.begin("tcp.send", tid="a")
        assert child.parent_id == root.span_id
        assert child.trace_id == root.trace_id

    def test_explicit_parent_links_across_timelines(self):
        # How a receiver on another simulated host joins the sender's
        # trace: the propagated TraceContext carries both ids.
        tracer = Tracer()
        root = tracer.begin("client.request", tid="client", trace=NEW_TRACE)
        ctx = context_of(root)
        assert (ctx.trace_id, ctx.span_id) == (root.trace_id, root.span_id)
        remote = tracer.begin("service.request", tid="server",
                              parent=ctx.span_id, trace=ctx.trace_id)
        assert remote.parent_id == root.span_id
        assert remote.trace_id == root.trace_id

    def test_context_of_defaults_trace_to_the_span(self):
        tracer = Tracer()
        plain = tracer.begin("untraced", tid="x")
        ctx = context_of(plain)
        assert ctx.trace_id == plain.span_id

    def test_context_of_null_spans_is_none(self):
        assert context_of(None) is None
        assert context_of(NullTracer().begin("x")) is None

    def test_chrome_args_carry_the_linkage(self):
        tracer = Tracer()
        root = tracer.begin("root", trace=NEW_TRACE)
        child = tracer.begin("child")
        tracer.end(child)
        tracer.end(root)
        events = {e["name"]: e for e in tracer.to_chrome()["traceEvents"]
                  if e["ph"] == "X"}
        assert events["root"]["args"]["trace"] == root.span_id
        assert events["child"]["args"]["parent"] == root.span_id
        assert events["child"]["args"]["trace"] == root.span_id


# -- queries ------------------------------------------------------------------

class TestQueries:
    def test_summary_rows_aggregate_by_name(self):
        clock = ManualClock()
        tracer = Tracer(clock=clock)
        for duration in (0.001, 0.003):
            span = tracer.begin("work")
            clock.t += duration
            tracer.end(span)
        (row,) = tracer.summary_rows()
        assert row["span"] == "work"
        assert row["count"] == 2
        assert row["total sim ms"] == 4.0
        assert row["mean sim ms"] == 2.0

    def test_jsonl_one_valid_record_per_line(self):
        tracer = Tracer()
        tracer.end(tracer.begin("s", cat=CAT_ISSL, role="client"))
        tracer.instant("i")
        records = [json.loads(line)
                   for line in tracer.to_jsonl().splitlines()]
        assert [r["type"] for r in records] == ["span", "instant"]
        assert records[0]["args"] == {"role": "client"}


# -- the Chrome trace_event export -------------------------------------------

def _reference_trace() -> Tracer:
    """A deterministic trace touching every event shape the export emits."""
    clock = ManualClock()
    tracer = Tracer(clock=clock)
    handshake = tracer.begin("issl.handshake", cat=CAT_ISSL,
                             tid="issl:server:1", role="server")
    clock.t = 0.010
    rsa = tracer.begin("issl.rsa_decrypt", cat=CAT_ISSL, tid="issl:server:1")
    clock.t = 0.250
    tracer.end(rsa)
    clock.t = 0.300
    tracer.end(handshake, suite="TLS_RSA_WITH_AES_128_CBC_SHA")
    tracer.add_complete("costate.handler1", 0.050, 0.075,
                        cat=CAT_COSTATE, tid="bigloop", run=3)
    tracer.instant("tcp.state", cat=CAT_TCP, tid="tcp:10.0.0.2:1024->443",
                   state="ESTABLISHED")
    return tracer


class TestChromeExport:
    def test_matches_golden_file(self):
        produced = _reference_trace().to_chrome()
        golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
        assert produced == golden

    def test_event_shapes(self):
        trace = _reference_trace().to_chrome()
        events = trace["traceEvents"]
        phases = {e["ph"] for e in events}
        assert phases == {"M", "X", "i"}
        # Every tid is an integer, and every tid used by an event is
        # introduced by a thread_name metadata record.
        named = {e["tid"] for e in events if e["ph"] == "M"}
        for event in events:
            assert isinstance(event["tid"], int)
            assert event["tid"] in named
        # ts/dur are microseconds of simulated time.
        (rsa,) = [e for e in events if e["name"] == "issl.rsa_decrypt"]
        assert (rsa["ts"], rsa["dur"]) == (10_000.0, 240_000.0)

    def test_trace_is_json_serializable(self):
        json.dumps(_reference_trace().to_chrome())


# -- the null variant and its overhead contract -------------------------------

class TestNullTracer:
    def test_all_operations_are_inert(self):
        tracer = NullTracer()
        span = tracer.begin("x", cat=CAT_ISSL, tid="t", attr=1)
        assert tracer.end(span) is span  # one shared singleton
        with tracer.span("y"):
            pass
        tracer.add_complete("z", 0.0, 1.0)
        tracer.instant("i")
        tracer.finish_open()
        assert tracer.spans == []
        assert tracer.instants == []
        assert not tracer.enabled

    def test_null_obs_is_disabled(self):
        assert not NULL_OBS.tracer.enabled
        assert not NULL_OBS.metrics.enabled
        assert Obs().tracer.enabled

    def test_null_path_overhead_smoke(self):
        # The <5 % contract rests on the disabled path allocating nothing
        # and doing no bookkeeping: ~100k instrumented call sites should
        # cost well under a second even on a loaded host.
        tracer = NULL_OBS.tracer
        counter = NULL_OBS.metrics.counter("smoke")
        start = time.perf_counter()
        for _ in range(100_000):
            span = tracer.begin("hot", cat=CAT_ISSL, tid="t")
            counter.inc()
            tracer.end(span)
        elapsed = time.perf_counter() - start
        assert tracer.spans == []
        assert elapsed < 1.0, f"null path too slow: {elapsed:.3f}s"


if __name__ == "__main__":  # regenerate the golden file, deliberately
    GOLDEN.write_text(
        json.dumps(_reference_trace().to_chrome(), indent=1, sort_keys=True)
        + "\n",
        encoding="utf-8",
    )
    print(f"wrote {GOLDEN}")
