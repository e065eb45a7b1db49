"""Campaign-level tests: scenarios recover, verdicts are deterministic.

These run real scenarios end to end (simulated time, so still seconds
of wall clock) and pin the acceptance contract: every named scenario
passes, recovery counters are present and non-zero where the fault
demands recovery, and the same seed produces the same report.
"""

import gc

import pytest

from repro.net.host import Host
from repro.net.sim import Simulator
from repro.obs import DEFAULT_TAIL
from repro.faults.campaign import (
    DEFAULT_SEED,
    REPORT_SCHEMA_VERSION,
    run_matrix,
    run_scenario,
    scenario_names,
)
from repro.faults import scenarios as scenario_mod

pytestmark = pytest.mark.faults


class TestRegistry:
    def test_at_least_ten_named_scenarios(self):
        assert len(scenario_names()) >= 10

    def test_unknown_scenario_raises(self):
        with pytest.raises(KeyError, match="no-such-scenario"):
            run_scenario("no-such-scenario")
        with pytest.raises(KeyError, match="bogus"):
            run_matrix(["baseline", "bogus"])


class TestVerdicts:
    def test_syn_loss_recovers_via_retransmit(self):
        verdict = run_scenario("syn-loss")
        assert verdict["ok"], verdict["checks"]
        counters = verdict["counters"]
        assert counters["faults.injected.drop"] == 1
        assert counters["faults.recovered.tcp_retransmit"] >= 1

    def test_silent_peer_times_out_and_retries(self):
        verdict = run_scenario("silent-peer")
        assert verdict["ok"], verdict["checks"]
        counters = verdict["counters"]
        assert counters["issl.handshakes.timeouts"] == 2
        assert counters["issl.handshakes.retries"] == 1
        assert counters["faults.recovered.handshake_timeout"] == 2

    def test_corrupt_record_tears_down_via_mac(self):
        verdict = run_scenario("corrupt-app-record")
        assert verdict["ok"], verdict["checks"]
        counters = verdict["counters"]
        assert counters["faults.injected.corrupt"] == 1
        assert counters["issl.records.mac_failures"] >= 1
        assert counters["faults.recovered.mac_teardown"] >= 1

    def test_slot_exhaustion_refuses_and_recycles(self):
        verdict = run_scenario("slot-exhaustion")
        assert verdict["ok"], verdict["checks"]
        counters = verdict["counters"]
        assert counters["redirector.refused.sessions"] >= 1
        assert counters["faults.recovered.session_refusal"] >= 1

    def test_xalloc_exhaustion_refuses_with_counter(self):
        verdict = run_scenario("xalloc-exhaustion")
        assert verdict["ok"], verdict["checks"]
        counters = verdict["counters"]
        assert counters["redirector.refused.memory"] >= 1
        assert counters["faults.recovered.memory_refusal"] >= 1
        assert counters["xalloc.pool.refusals"] >= 1

    def test_stalled_peer_hits_connection_deadline(self):
        verdict = run_scenario("stalled-peer")
        assert verdict["ok"], verdict["checks"]
        assert verdict["counters"][
            "redirector.deadline.expired"] >= 1

    def test_backend_outage_fails_closed(self):
        verdict = run_scenario("backend-outage")
        assert verdict["ok"], verdict["checks"]
        assert verdict["counters"][
            "redirector.errors.backend"] >= 1


class TestCrashContainment:
    def test_escaped_exception_becomes_failed_verdict(self, monkeypatch):
        def exploding(seed):
            raise RuntimeError("handler blew up")

        monkeypatch.setitem(
            scenario_mod.SCENARIOS, "exploding",
            (exploding, "a scenario that crashes"),
        )
        verdict = run_scenario("exploding")
        assert verdict["ok"] is False
        [check] = verdict["checks"]
        assert check["name"] == "no_unhandled_exception"
        assert "handler blew up" in check["detail"]


class TestRecorderEmbedding:
    def test_failed_scenario_carries_the_recorder_tail(self, monkeypatch):
        """A red verdict ships the last-N flight-recorder events -- the
        'why' alongside the 'what' -- capped at DEFAULT_TAIL."""
        def failing(seed):
            world = scenario_mod.build_world(seed, client_hosts=1)
            world.obs.recorder.error("faults", "forced",
                                     "deliberate failure")
            return world.verdict(
                "always-fails",
                [scenario_mod._check("forced", False, "always fails")],
            )

        monkeypatch.setitem(
            scenario_mod.SCENARIOS, "always-fails",
            (failing, "a scenario that always fails"),
        )
        verdict = run_scenario("always-fails")
        assert verdict["ok"] is False
        events = verdict["events"]
        assert events
        assert len(events) <= DEFAULT_TAIL
        assert any(e["msg"] == "deliberate failure" for e in events)
        for event in events:
            assert set(event) == {"seq", "t", "sev", "cat", "tid", "msg"}

    def test_passing_scenario_has_no_events_key(self):
        """Green verdicts stay byte-identical to the pre-recorder
        reports: no events section at all."""
        verdict = run_scenario("baseline")
        assert verdict["ok"], verdict["checks"]
        assert "events" not in verdict


class TestClosingChecks:
    """World.verdict appends the quiescence checks itself, so a scenario
    that lists only its own checks still fails on a leaked resource."""

    @staticmethod
    def _leaky(buffer_pool, monkeypatch):
        def leaky(seed):
            world = scenario_mod.build_world(seed, client_hosts=1,
                                             buffer_pool=buffer_pool)
            world.context.acquire_session_slot()
            if buffer_pool:
                world.buffer_pool.acquire()
            world.scheduler.stop()
            return world.verdict("leaky",
                                 [scenario_mod._check("own", True)])

        monkeypatch.setitem(scenario_mod.SCENARIOS, "leaky",
                            (leaky, "holds a session and a buffer"))
        verdict = run_scenario("leaky")
        assert verdict["ok"] is False
        return {check["name"]: check for check in verdict["checks"]}

    def test_held_session_and_buffer_fail_the_verdict(self, monkeypatch):
        checks = self._leaky(True, monkeypatch)
        assert checks["own"]["ok"]
        assert checks["sessions_released"] == {
            "name": "sessions_released", "ok": False,
            "detail": "sessions_active=1",
        }
        assert checks["buffers_released"] == {
            "name": "buffers_released", "ok": False,
            "detail": "pool in_use=1",
        }

    def test_world_without_a_pool_checks_sessions_only(self, monkeypatch):
        checks = self._leaky(False, monkeypatch)
        assert not checks["sessions_released"]["ok"]
        assert "buffers_released" not in checks


@pytest.fixture
def no_automatic_gc():
    """Only run_scenario's own collection may free a world."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


def _worlds() -> list:
    return [o for o in gc.get_objects() if isinstance(o, (Simulator, Host))]


class TestScopedCollection:
    """run_scenario frees its world before it returns, and its freeze
    (which keeps that collection to the scenario's own objects) leaves
    the caller's GC state as it found it."""

    def test_world_is_freed_before_return(self, no_automatic_gc):
        gc.collect()
        before = _worlds()  # held, so no new object can reuse their ids
        verdict = run_scenario("baseline")
        assert verdict["ok"], verdict["checks"]
        known = {id(o) for o in before}
        leaked = [o for o in _worlds() if id(o) not in known]
        assert leaked == []

    def test_freeze_count_is_zero_before_and_after(self):
        assert gc.get_freeze_count() == 0
        run_scenario("baseline")
        assert gc.get_freeze_count() == 0

    def test_callers_freeze_is_kept(self):
        expected = run_scenario("baseline")
        gc.freeze()
        try:
            frozen = gc.get_freeze_count()
            assert frozen > 0
            verdict = run_scenario("baseline")
            assert gc.get_freeze_count() >= frozen
        finally:
            gc.unfreeze()
        assert verdict == expected


class TestMatrix:
    def test_subset_report_shape_and_verdict(self):
        report = run_matrix(["baseline", "rst-midhandshake"])
        assert report["schema"] == REPORT_SCHEMA_VERSION
        assert report["seed"] == DEFAULT_SEED
        assert report["total"] == 2
        assert report["passed"] == 2
        assert report["verdict"] == "PASS"
        assert [v["name"] for v in report["scenarios"]] == [
            "baseline", "rst-midhandshake",
        ]

    def test_same_seed_same_report(self):
        names = ["baseline", "hello-loss", "fin-midhandshake"]
        assert run_matrix(names, seed=5) == run_matrix(names, seed=5)

    def test_report_embeds_merged_metrics_section(self):
        report = run_matrix(["baseline", "syn-loss"])
        counters = report["metrics"]["counters"]
        # syn-loss's injection shows up in the fleet-wide merge.
        assert counters["faults.injected.drop"] == 1
        assert list(counters) == sorted(counters)
        # The per-scenario side channel never leaks into the verdicts.
        assert all("_registry" not in v for v in report["scenarios"])
