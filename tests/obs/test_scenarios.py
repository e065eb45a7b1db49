"""The canned scenarios behind ``python -m repro.obs``.

The redirector scenario is the acceptance surface for the tracing
subsystem: one run must produce spans from at least four layers of the
stack and a Chrome trace a viewer will load.
"""

import json

import pytest

from repro.obs.scenarios import run_aes_scenario, run_redirector_scenario


@pytest.fixture(scope="module")
def redirector():
    return run_redirector_scenario()


class TestRedirectorScenario:
    def test_clients_complete(self, redirector):
        for report in redirector["reports"]:
            assert report.error is None
            assert len(report.request_times) == 4
        assert redirector["stats"]["redirected"] == 12

    def test_spans_cover_at_least_four_layers(self, redirector):
        tracer = redirector["obs"].tracer
        span_cats = {s.cat for s in tracer.spans}
        assert {"issl", "net.tcp", "costate", "service"} <= span_cats
        assert "xalloc" in {i["cat"] for i in tracer.instants}

    def test_counters_track_the_run(self, redirector):
        counters = redirector["obs"].metrics.snapshot()["counters"]
        assert counters["issl.handshakes.completed"] == 3
        assert counters["redirector.redirected"] == 12
        assert counters["issl.bytes.encrypted"] > 0
        assert counters["issl.log.messages"] > 0
        assert counters["xalloc.allocations"] == 3

    def test_costate_slices_sit_inside_the_run(self, redirector):
        # Slices are reconstructed ahead of the scheduler's lump charge,
        # so the last one may extend past the instant the sim stopped --
        # but every slice must start inside the run and have width.
        sim = redirector["sim"]
        scheduler = redirector["scheduler"]
        slices = [s for s in redirector["obs"].tracer.spans
                  if s.cat == "costate"]
        assert slices
        for span in slices:
            assert span.end > span.start >= 0.0
            assert span.start <= sim.now + scheduler.pass_overhead_s

    def test_chrome_trace_is_valid(self, redirector):
        trace = json.loads(
            json.dumps(redirector["obs"].tracer.to_chrome())
        )
        events = trace["traceEvents"]
        assert {e["ph"] for e in events} <= {"M", "X", "i"}
        assert len([e for e in events if e["ph"] == "X"]) >= 20

    def test_telemetry_samples_simulated_time(self, redirector):
        telemetry = redirector["obs"].telemetry
        names = telemetry.names()
        assert "sim.pending_events" in names
        assert "redirector.active_connections" in names
        assert any(n.startswith("tcp.") for n in names)
        sim_now = redirector["sim"].now
        for name in names:
            for t, _value in telemetry.series(name).samples():
                assert 0.0 <= t <= sim_now

    def test_chrome_counter_events_mirror_telemetry(self, redirector):
        obs = redirector["obs"]
        trace = obs.tracer.to_chrome(telemetry=obs.telemetry)
        counters = [e for e in trace["traceEvents"] if e["ph"] == "C"]
        assert counters
        assert ({e["name"] for e in counters}
                == set(obs.telemetry.names()))
        for event in counters:
            assert event["ts"] >= 0.0
            assert "value" in event["args"]


class TestCausalTraceTree:
    """A client request must render as one connected tree spanning
    client, redirector, and backend -- walked through the parent links
    the Chrome export carries in ``args``."""

    def test_request_tree_spans_three_hosts(self, redirector):
        events = [e for e in redirector["obs"].tracer.to_chrome()
                  ["traceEvents"] if e["ph"] == "X"]
        by_id = {e["args"]["span_id"]: e for e in events}
        clients = [e for e in events if e["name"] == "client.request"]
        services = [e for e in events if e["name"] == "service.request"]
        backends = [e for e in events if e["name"] == "backend.request"]
        assert clients and services and backends
        # Every client request roots its own trace.
        for event in clients:
            assert event["args"]["trace"] == event["args"]["span_id"]
        # Every backend span walks parent links back to a client root,
        # crossing the service hop, all inside one trace.
        for backend in backends:
            trace = backend["args"]["trace"]
            service = by_id[backend["args"]["parent"]]
            assert service["name"] == "service.request"
            assert service["args"]["trace"] == trace
            client = by_id[service["args"]["parent"]]
            assert client["name"] == "client.request"
            assert client["args"]["trace"] == trace
            assert client["args"]["span_id"] == trace
            # Three distinct logical timelines: the hop is real.
            assert len({backend["tid"], service["tid"],
                        client["tid"]}) == 3

    def test_every_client_request_reaches_the_backend(self, redirector):
        spans = redirector["obs"].tracer.spans
        client_traces = {s.trace_id for s in spans
                         if s.name == "client.request"}
        backend_traces = {s.trace_id for s in spans
                          if s.name == "backend.request"}
        assert len(client_traces) == 12
        assert backend_traces == client_traces


class TestTraceContextUnderLinkFaults:
    """A dropped-then-retransmitted segment must not sever causality:
    the retransmit re-emits with the original trace context, so the
    client->redirector->backend tree stays connected."""

    @pytest.fixture(scope="class")
    def faulted(self):
        dropped = {"count": 0}

        def install_drop(lan):
            sim = lan.sim

            def drop_first_ctx_frame(frame, index):
                # Drop exactly the first frame carrying a trace context
                # (a client request segment mid-flight on the wire).
                if dropped["count"] == 0 and sim.wire_trace_ctx is not None:
                    dropped["count"] += 1
                    return True
                return False

            lan.set_drop_filter(drop_first_ctx_frame)

        result = run_redirector_scenario(lan_hook=install_drop)
        result["dropped"] = dropped["count"]
        return result

    def test_the_fault_actually_fired(self, faulted):
        assert faulted["dropped"] == 1
        counters = faulted["obs"].metrics.snapshot()["counters"]
        assert counters["tcp.segments.retransmitted"] >= 1

    def test_clients_still_complete(self, faulted):
        for report in faulted["reports"]:
            assert report.error is None

    def test_trace_trees_stay_connected_across_the_retransmit(
        self, faulted
    ):
        spans = faulted["obs"].tracer.spans
        by_id = {s.span_id: s for s in spans}
        client_traces = {s.trace_id for s in spans
                        if s.name == "client.request"}
        backends = [s for s in spans if s.name == "backend.request"]
        assert len(client_traces) == 12
        assert {s.trace_id for s in backends} == client_traces
        # Every backend span still walks an unbroken parent chain to
        # its client root -- one connected tree per request, fault or
        # not.
        for backend in backends:
            node = backend
            hops = 0
            while node.parent_id is not None and hops < 16:
                node = by_id[node.parent_id]
                hops += 1
            assert node.name == "client.request"
            assert node.span_id == backend.trace_id


class TestRecorderOverheadContract:
    def test_disabling_the_recorder_changes_no_metrics(self):
        # The bench snapshot times the scenario twice (recorder on/off)
        # for the overhead claim; that is only meaningful if the
        # recorder has zero effect on the deterministic content.
        from repro.obs import NullFlightRecorder, Obs

        recorded = run_redirector_scenario()
        silent = run_redirector_scenario(
            obs=Obs(recorder=NullFlightRecorder())
        )
        assert recorded["obs"].recorder.enabled
        assert not silent["obs"].recorder.enabled
        assert len(recorded["obs"].recorder.events()) > 0
        assert (recorded["obs"].metrics.snapshot()
                == silent["obs"].metrics.snapshot())
        assert recorded["stats"] == silent["stats"]


class TestAesScenario:
    def test_profiles_the_asm_cipher(self):
        result = run_aes_scenario(implementation="asm")
        profiler = result["profiler"]
        assert result["blocks"] == 2
        assert {"aes_set_key", "aes_encrypt"} <= set(profiler.self_cycles)
        assert profiler.total_cycles > 0
        counters = result["obs"].metrics.snapshot()["counters"]
        assert counters["aes.blocks.encrypted"] == 2

    def test_rejects_unknown_implementation(self):
        with pytest.raises(ValueError):
            run_aes_scenario(implementation="fortran")
