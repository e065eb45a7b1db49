"""The µC/OS-II-flavoured kernel: priorities and delays."""

import pytest

from repro.dync.runtime.ucos import MicroCos, UcosError
from repro.net.sim import Simulator


def make_kernel(**kwargs):
    sim = Simulator()
    return sim, MicroCos(sim, **kwargs)


class TestPriorities:
    def test_unique_priorities_enforced(self):
        _sim, kernel = make_kernel()
        kernel.task_create(iter(()), 5)
        with pytest.raises(UcosError):
            kernel.task_create(iter(()), 5)
        with pytest.raises(UcosError):
            kernel.task_create(iter(()), 64)

    def test_highest_priority_runs_first(self):
        _sim, kernel = make_kernel()
        order = []

        def task(tag):
            order.append(tag)
            yield ("dly", 1)
            order.append(tag + "-end")

        kernel.task_create(task("low"), 20)
        kernel.task_create(task("high"), 1)
        kernel.run_until_all_done()
        assert order.index("high") < order.index("low")

    def test_delay_wakes_and_preempts(self):
        # A high-priority task sleeping on OSTimeDly preempts the
        # low-priority grinder the moment its delay expires.
        _sim, kernel = make_kernel(steps_per_tick=1)
        trace = []

        def high():
            yield ("dly", 3)
            trace.append("HIGH")

        def low():
            for step in range(8):
                trace.append(step)
                yield

        kernel.task_create(high(), 1)
        kernel.task_create(low(), 30)
        kernel.run_until_all_done()
        position = trace.index("HIGH")
        assert 0 < position < len(trace) - 1  # ran mid-grind
        assert trace[position + 1:] == list(range(position, 8))

    def test_round_robin_is_not_a_thing(self):
        # Strict priority: equal progress is NOT guaranteed; the top
        # task runs to completion before the lower one starts.
        _sim, kernel = make_kernel()
        trace = []

        def task(tag, steps):
            for _ in range(steps):
                trace.append(tag)
                yield

        kernel.task_create(task("top", 5), 1)
        kernel.task_create(task("bottom", 5), 2)
        kernel.run_until_all_done()
        assert trace[:5] == ["top"] * 5


class TestDelays:
    def test_os_time_dly_duration(self):
        sim, kernel = make_kernel(tick_s=0.01)
        stamps = {}

        def sleeper():
            stamps["before"] = sim.now
            yield ("dly", 10)
            stamps["after"] = sim.now

        kernel.task_create(sleeper(), 1)
        kernel.run_until_all_done()
        assert stamps["after"] - stamps["before"] >= 0.09

    def test_bad_delay_rejected(self):
        _sim, kernel = make_kernel()

        def bad():
            yield ("dly", 0)

        kernel.task_create(bad(), 1)
        with pytest.raises(UcosError):
            kernel.run_until_all_done()

    def test_unknown_yield_rejected(self):
        _sim, kernel = make_kernel()

        def bad():
            yield ("pend", None)

        kernel.task_create(bad(), 1)
        with pytest.raises(UcosError, match="bad task yield"):
            kernel.run_until_all_done()


class TestKernel:
    def test_context_switch_accounting(self):
        _sim, kernel = make_kernel()

        def ping():
            for _ in range(3):
                yield ("dly", 1)

        kernel.task_create(ping(), 1)
        kernel.task_create(ping(), 2)
        kernel.run_until_all_done()
        assert kernel.context_switches >= 2

    def test_double_start(self):
        _sim, kernel = make_kernel()
        kernel.task_create(iter(()), 1)
        kernel.start()
        with pytest.raises(UcosError):
            kernel.start()
