"""Simulation kernel tests: events, processes, ordering, determinism."""

import pytest

from repro.net.sim import Event, Simulator, SimulationError, sleep


def test_time_starts_at_zero():
    assert Simulator().now == 0.0


def test_call_after_ordering():
    sim = Simulator()
    log = []
    sim.call_after(0.3, log.append, "c")
    sim.call_after(0.1, log.append, "a")
    sim.call_after(0.2, log.append, "b")
    sim.run()
    assert log == ["a", "b", "c"]
    assert sim.now == 0.3


def test_same_time_fifo():
    sim = Simulator()
    log = []
    for tag in "abc":
        sim.call_soon(log.append, tag)
    sim.run()
    assert log == ["a", "b", "c"]


def test_cannot_schedule_in_past():
    sim = Simulator()
    sim.call_after(1.0, lambda: None)
    sim.run()
    with pytest.raises(SimulationError):
        sim.call_at(0.5, lambda: None)


def test_run_until_bounds_time():
    sim = Simulator()
    log = []
    sim.call_after(1.0, log.append, "early")
    sim.call_after(5.0, log.append, "late")
    sim.run(until=2.0)
    assert log == ["early"]
    assert sim.now == 2.0
    sim.run()
    assert log == ["early", "late"]


def test_run_event_budget():
    sim = Simulator()

    def reschedule():
        sim.call_soon(reschedule)

    sim.call_soon(reschedule)
    with pytest.raises(SimulationError):
        sim.run(max_events=100)


def test_process_sleep():
    sim = Simulator()
    trace = []

    def proc():
        trace.append(sim.now)
        yield 1.5
        trace.append(sim.now)
        yield 0.5
        trace.append(sim.now)

    sim.spawn(proc())
    sim.run()
    assert trace == [0.0, 1.5, 2.0]


def test_process_negative_sleep_kills():
    sim = Simulator()

    def proc():
        yield -1.0

    process = sim.spawn(proc())
    sim.run()
    assert not process.alive


def test_process_bad_yield_kills():
    sim = Simulator()

    def proc():
        yield "nonsense"

    process = sim.spawn(proc())
    sim.run()
    assert not process.alive


def test_process_result():
    sim = Simulator()

    def proc():
        yield 0.1
        return 42

    process = sim.spawn(proc())
    assert sim.run_until_complete(process) == 42
    assert process.result == 42


def test_event_wakes_waiters_with_value():
    sim = Simulator()
    got = []

    def waiter(event):
        value = yield event
        got.append(value)

    event = sim.event("test")
    sim.spawn(waiter(event))
    sim.spawn(waiter(event))
    sim.call_after(1.0, event.trigger, "payload")
    sim.run()
    assert got == ["payload", "payload"]


def test_event_trigger_returns_waiter_count():
    sim = Simulator()
    event = sim.event()

    def waiter():
        yield event

    sim.spawn(waiter())
    sim.run(until=0)
    assert event.trigger() == 1
    assert event.trigger() == 0


def test_event_retriggerable():
    sim = Simulator()
    event = sim.event()
    seen = []

    def waiter():
        seen.append((yield event))
        seen.append((yield event))

    sim.spawn(waiter())
    sim.call_after(1, event.trigger, 1)
    sim.call_after(2, event.trigger, 2)
    sim.run()
    assert seen == [1, 2]


def test_none_yield_resumes_same_instant():
    sim = Simulator()
    times = []

    def proc():
        times.append(sim.now)
        yield None
        times.append(sim.now)

    sim.spawn(proc())
    sim.run()
    assert times == [0.0, 0.0]


def test_done_event_fires():
    sim = Simulator()
    finished = []

    def child():
        yield 1.0
        return "done"

    def parent():
        process = sim.spawn(child())
        value = yield process.done_event
        finished.append((value, sim.now))

    sim.spawn(parent())
    sim.run()
    assert finished == [("done", 1.0)]


def test_kill_process():
    sim = Simulator()
    progress = []

    def proc():
        while True:
            progress.append(sim.now)
            yield 1.0

    process = sim.spawn(proc())
    sim.run(until=2.5)
    process.kill()
    sim.run()
    assert not process.alive
    assert len(progress) == 3  # t=0, 1, 2


def test_run_until_complete_deadlock_detection():
    sim = Simulator()

    def proc():
        yield sim.event("never")

    process = sim.spawn(proc())
    with pytest.raises(SimulationError, match="deadlock"):
        sim.run_until_complete(process)


def test_run_until_complete_timeout():
    sim = Simulator()

    def proc():
        yield 100.0

    process = sim.spawn(proc())
    with pytest.raises(SimulationError, match="timeout"):
        sim.run_until_complete(process, timeout=1.0)


def test_sleep_helper():
    sim = Simulator()
    t = []

    def proc():
        yield from sleep(2.0)
        t.append(sim.now)

    sim.spawn(proc())
    sim.run()
    assert t == [2.0]


def test_determinism():
    def build_and_run():
        sim = Simulator()
        log = []

        def a():
            for _ in range(3):
                log.append(("a", sim.now))
                yield 0.5

        def b():
            for _ in range(3):
                log.append(("b", sim.now))
                yield 0.3

        sim.spawn(a())
        sim.spawn(b())
        sim.run()
        return log

    assert build_and_run() == build_and_run()
