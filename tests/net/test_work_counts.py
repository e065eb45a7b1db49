"""Pins on how much work the simulated network and the big loop do.

The per-segment path (``TcpConnection._emit`` through IP, ARP and the
hub to the peer's ``_handle_synchronized``) may get cheaper in host
time, but it must schedule exactly the same ``(when, seq)`` entries.
These pins name that promise directly instead of leaving it to the
bench baseline's telemetry: for one pooled scaling point and one
link-fault scenario they count

- the simulator events executed, over every drive loop
  (``Simulator.run`` and ``Simulator.run_until_complete``);
- the ``NetworkInterface.deliver`` calls (the bench's ``net.frames``);
- the frames each segment carried (``EthernetSegment.frames_carried``);
- the IP packets every host sent (summed ``IpStack.packets_sent``).

The costatement scheduler may get cheaper too, but it must run exactly
the same passes, so they also count, over every big loop:

- the resumes the big loop makes of its costatements (``big_loop``),
  and of those, the resumes of the redirector's ``slot-pool``;
- the ``CostateScheduler._skip_idle`` calls and the passes they skip.

The first two may only fall, and each fall is pinned anew; the last
two are the closed-form skip's own accounting and must not move.

An event is counted as a heap push made during a drive loop less the
queue's growth over it: every push takes a fresh ``seq``, so the
difference is the number of entries the loop popped and ran.
"""

from __future__ import annotations

import pytest

from repro.dync.runtime.costate import CostateScheduler
from repro.net.ip import IpStack
from repro.net.link import EthernetSegment, NetworkInterface
from repro.net.sim import Simulator


class WorkCounter:
    """Counts network work while installed on the classes."""

    def __init__(self):
        self.events = 0
        self.deliveries = 0
        self.segments: list[EthernetSegment] = []
        self.stacks: list[IpStack] = []
        self.resumes = 0
        self.pool_resumes = 0
        self.skip_calls = 0
        self.passes_skipped = 0

    def install(self, patch: pytest.MonkeyPatch) -> None:
        counter = self

        def drive(method):
            def counted(sim, *args, **kwargs):
                seq, pending = sim._seq, sim.pending_events
                try:
                    return method(sim, *args, **kwargs)
                finally:
                    counter.events += (sim._seq - seq) - (
                        sim.pending_events - pending)
            return counted

        def recording(init, registry):
            def wrapped(self, *args, **kwargs):
                init(self, *args, **kwargs)
                registry.append(self)
            return wrapped

        def counted_resumes(gen, name):
            # One count per resume, the one that finishes included.
            try:
                while True:
                    counter.resumes += 1
                    if name == "slot-pool":
                        counter.pool_resumes += 1
                    try:
                        value = next(gen)
                    except StopIteration:
                        return
                    yield value
            finally:
                gen.close()

        add = CostateScheduler.add

        def counted_add(scheduler, gen, name=""):
            name = name or getattr(gen, "__name__", "costate")
            return add(scheduler, counted_resumes(gen, name), name)

        skip_idle = CostateScheduler._skip_idle

        def counted_skip_idle(scheduler, *args):
            passes = scheduler.passes
            try:
                return skip_idle(scheduler, *args)
            finally:
                counter.skip_calls += 1
                counter.passes_skipped += scheduler.passes - passes

        deliver = NetworkInterface.deliver

        def counted_deliver(interface, frame):
            counter.deliveries += 1
            deliver(interface, frame)

        patch.setattr(Simulator, "run", drive(Simulator.run))
        patch.setattr(Simulator, "run_until_complete",
                      drive(Simulator.run_until_complete))
        patch.setattr(NetworkInterface, "deliver", counted_deliver)
        patch.setattr(CostateScheduler, "add", counted_add)
        patch.setattr(CostateScheduler, "_skip_idle", counted_skip_idle)
        patch.setattr(EthernetSegment, "__init__",
                      recording(EthernetSegment.__init__, self.segments))
        patch.setattr(IpStack, "__init__",
                      recording(IpStack.__init__, self.stacks))

    def totals(self) -> dict:
        return {
            "events": self.events,
            "deliveries": self.deliveries,
            "frames_carried": sum(s.frames_carried for s in self.segments),
            "packets_sent": sum(s.packets_sent for s in self.stacks),
            "big_loop_resumes": self.resumes,
            "pool_resumes": self.pool_resumes,
            "skip_idle_calls": self.skip_calls,
            "passes_skipped": self.passes_skipped,
        }


def _counted(run) -> tuple[object, dict]:
    counter = WorkCounter()
    with pytest.MonkeyPatch.context() as patch:
        counter.install(patch)
        result = run()
    return result, counter.totals()


def test_pooled_scaling_point():
    from repro.services.scaling import run_scaling_point

    point, totals = _counted(
        lambda: run_scaling_point(variant="pool", slots=8, seed=2000))
    assert point["clients_completed"] == point["clients"]
    assert totals == {
        "events": 4765,
        "deliveries": 1952,
        "frames_carried": 1352,
        "packets_sent": 1302,
        # 1,230 and 615 while the slot pool's token named nothing.
        "big_loop_resumes": 814,
        "pool_resumes": 199,
        "skip_idle_calls": 348,
        "passes_skipped": 214401,
    }


def test_link_fault_scenario():
    from repro.faults.campaign import run_scenario

    verdict, totals = _counted(
        lambda: run_scenario("corrupt-app-record", seed=2000))
    assert verdict["ok"]
    assert verdict["counters"]["faults.injected.corrupt"] == 1
    assert totals == {
        "events": 428,
        "deliveries": 96,
        "frames_carried": 84,
        "packets_sent": 78,
        "big_loop_resumes": 216,
        "pool_resumes": 0,
        "skip_idle_calls": 129,
        "passes_skipped": 300120,
    }
