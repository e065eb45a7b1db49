"""FlightRecorder: ring semantics, deterministic dumps, null variant.

The recorder is the failure-forensics layer: always on, fixed capacity,
clocked by the simulator, so two runs of the same seed dump identical
bytes and a crash report can always attach "what just happened".
"""

import pytest

from repro.obs import DEFAULT_TAIL, FlightRecorder, NullFlightRecorder
from repro.obs.recorder import DEBUG, ERROR, INFO, WARN


class ManualClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t


class TestRing:
    def test_events_in_seq_order_before_wrap(self):
        recorder = FlightRecorder(capacity=8)
        for index in range(5):
            recorder.debug("sim", "t", f"event {index}")
        assert len(recorder) == 5
        assert recorder.dropped == 0
        assert [e[0] for e in recorder.events()] == [0, 1, 2, 3, 4]

    def test_wrap_keeps_newest_and_counts_dropped(self):
        recorder = FlightRecorder(capacity=4)
        for index in range(10):
            recorder.debug("sim", "t", f"event {index}")
        assert len(recorder) == 4
        assert recorder.dropped == 6
        events = recorder.events()
        assert [e[0] for e in events] == [6, 7, 8, 9]
        assert [e[5] for e in events] == [
            "event 6", "event 7", "event 8", "event 9",
        ]

    def test_last_window_narrows_from_the_tail(self):
        recorder = FlightRecorder(capacity=8)
        for index in range(6):
            recorder.debug("sim", "t", f"event {index}")
        assert [e[0] for e in recorder.events(last=2)] == [4, 5]

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            FlightRecorder(capacity=0)

    def test_severity_helpers_record_their_level(self):
        recorder = FlightRecorder(capacity=8)
        recorder.debug("c", "t", "d")
        recorder.record(INFO, "c", "t", "i")
        recorder.warn("c", "t", "w")
        recorder.error("c", "t", "e")
        assert [e[2] for e in recorder.events()] == [DEBUG, INFO, WARN, ERROR]


class TestExports:
    def test_dump_is_plain_host_clock_free_data(self):
        clock = ManualClock()
        recorder = FlightRecorder(capacity=8, clock=clock)
        clock.t = 1.25
        recorder.warn("net.tcp", "conn:1", "retransmit")
        (record,) = recorder.dump()
        assert record == {
            "seq": 0, "t": 1.25, "sev": "WARN",
            "cat": "net.tcp", "tid": "conn:1", "msg": "retransmit",
        }

    def test_two_identically_clocked_runs_dump_identical_bytes(self):
        def run():
            clock = ManualClock()
            recorder = FlightRecorder(capacity=4, clock=clock)
            for index in range(7):
                clock.t = index * 0.5
                recorder.debug("sim", "proc", f"step {index}")
            return recorder.dump()

        assert run() == run()

    def test_tail_lines_render_the_window(self):
        clock = ManualClock()
        recorder = FlightRecorder(capacity=64, clock=clock)
        for index in range(DEFAULT_TAIL + 5):
            clock.t = index * 0.001
            recorder.error("costate", "bigloop", f"slice {index}")
        lines = recorder.tail_lines()
        assert len(lines) == DEFAULT_TAIL
        assert "ERROR" in lines[-1]
        assert f"slice {DEFAULT_TAIL + 4}" in lines[-1]
        assert "costate/bigloop" in lines[-1]


class TestNullRecorder:
    def test_everything_is_inert(self):
        recorder = NullFlightRecorder()
        recorder.record(ERROR, "c", "t", "m")
        recorder.debug("c", "t", "m")
        recorder.warn("c", "t", "m")
        recorder.error("c", "t", "m")
        assert not recorder.enabled
        assert recorder.events() == []
        assert recorder.dump() == []
        assert recorder.tail_lines() == []
