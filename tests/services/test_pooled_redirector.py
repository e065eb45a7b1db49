"""The dynamic connection-slot pool redirector (the post-Figure-3
build): structure, end-to-end service, admission refusal, occupancy
telemetry, and the xmem budget."""

from pathlib import Path

import pytest

import repro
from repro.crypto.demokeys import DEMO_PSK
from repro.crypto.prng import CipherRng
from repro.dync.runtime.costate import CostateScheduler
from repro.dync.runtime.xalloc import XmemAllocator
from repro.issl import FREE, IsslContext, UNIX_FULL
from repro.obs import Obs
from repro.services import (
    ClientReport,
    SLOT_BUFFER_BYTES,
    TLS_PORT,
    build_redirector_world,
    secure_request_client,
)


def _world(slots=3, clients=3, obs=None, xmem=None, max_sessions=None):
    world = build_redirector_world(
        b"rmc", clients=clients, obs=obs if obs is not None else Obs(),
        cost_model=FREE, max_sessions=max_sessions, xmem=xmem,
        buffer_pool=xmem is not None, handlers=slots, pooled=True,
    )
    return world.sim, world.hosts, world.stats, world.scheduler, world.obs


def _client(hosts, sim, index, requests=2, size=16):
    ctx = IsslContext(UNIX_FULL, CipherRng(b"pc%d" % index), psk=DEMO_PSK)
    report = ClientReport(f"c{index}")
    process = hosts[f"c{index}"].spawn(secure_request_client(
        hosts[f"c{index}"], ctx, "10.0.0.1", TLS_PORT, requests, size,
        report))
    return process, report


class TestStructure:
    def test_one_pooled_costate_plus_tick_driver(self):
        _sim, _hosts, _stats, scheduler, _obs = _world(slots=8)
        names = [costate.name for costate in scheduler._costates]
        assert names == ["slot-pool", "tick-driver"]

    def test_pool_is_one_generator_registered_through_add(self, monkeypatch):
        """The slot pool is one ``indexed_cofunctions`` generator that
        ``CostateScheduler.add`` registers like any costatement; the
        nested scheduler it replaced is gone from the source tree."""
        deleted = ("CofunctionSlot", "IndexedCofunctionPool", "add_pool",
                   "slot_capacity", "connection_slot_count", "sweep_yield",
                   "step_all", "_SlotMailbox", "_pool_slot", "inbox")
        src = Path(repro.__file__).parent
        for path in src.rglob("*.py"):
            text = path.read_text()
            assert not [n for n in deleted if n in text], path
        added = []
        original_add = CostateScheduler.add

        def add(self, gen, name=""):
            added.append((name, gen.__name__))
            return original_add(self, gen, name)

        monkeypatch.setattr(CostateScheduler, "add", add)
        _world(slots=8)
        assert added == [("slot-pool", "indexed_cofunctions"),
                         ("tick-driver", "_tick_driver")]

    def test_rejects_empty_pool(self):
        with pytest.raises(ValueError):
            _world(slots=0)

    def test_rejects_static_build_without_handlers(self):
        with pytest.raises(ValueError, match="handlers must be >= 1"):
            build_redirector_world(b"rmc", clients=1, obs=Obs(),
                                   cost_model=FREE, handlers=0)


class TestService:
    def test_serves_one_client_end_to_end(self):
        sim, hosts, stats, _sched, _obs = _world(slots=3)
        process, report = _client(hosts, sim, 0, requests=3)
        sim.run_until_complete(process, timeout=600)
        assert report.error is None
        assert stats["redirected"] == 3

    def test_serves_more_concurrent_clients_than_figure3(self):
        """Five concurrent connections through one 8-slot costatement:
        the ceiling the static build pins at three."""
        sim, hosts, stats, _sched, obs = _world(
            slots=8, clients=5, max_sessions=8)
        pairs = [_client(hosts, sim, i) for i in range(5)]
        for process, _report in pairs:
            sim.run_until_complete(process, timeout=600)
        assert all(report.error is None for _p, report in pairs)
        assert stats["redirected"] == 10
        gauges = obs.metrics.snapshot()["gauges"]
        peak = gauges["redirector.slots.occupied"]["high_water"]
        assert peak > 3

    def test_slot_reuse_across_sequential_clients(self):
        sim, hosts, stats, _sched, obs = _world(slots=1, clients=2)
        for index in range(2):
            process, report = _client(hosts, sim, index, requests=1)
            sim.run_until_complete(process, timeout=600)
            assert report.error is None
        assert stats["redirected"] == 2
        counters = dict(obs.metrics.snapshot()["counters"])
        assert counters["redirector.slots.handoffs"] == 2


class TestAdmission:
    def test_burst_past_pool_is_refused_and_counted(self):
        sim, hosts, _stats, _sched, obs = _world(
            slots=1, clients=3, max_sessions=4)
        pairs = [_client(hosts, sim, i, requests=1) for i in range(3)]
        for process, _report in pairs:
            sim.run_until_complete(process, timeout=600)
        sim.run(until=sim.now + 1.0)
        counters = dict(obs.metrics.snapshot()["counters"])
        refused = counters.get("redirector.refused.slots", 0)
        failed = sum(1 for _p, r in pairs if r.error is not None)
        assert refused >= 1
        assert failed == refused
        # Every refusal leaves one flight-recorder event.
        events = obs.recorder.dump()
        assert sum(
            1 for e in events if e["msg"] == "refused: no idle slot"
        ) == refused

    def test_occupancy_gauge_returns_to_zero(self):
        sim, hosts, _stats, _sched, obs = _world(slots=2, clients=2)
        pairs = [_client(hosts, sim, i, requests=1) for i in range(2)]
        for process, _report in pairs:
            sim.run_until_complete(process, timeout=600)
        sim.run(until=sim.now + 1.0)
        gauge = obs.metrics.snapshot()["gauges"]["redirector.slots.occupied"]
        assert gauge["value"] == 0.0
        assert gauge["high_water"] >= 1.0


class TestXmemBudget:
    def test_builder_carves_slot_buffers_from_xmem(self):
        obs = Obs()
        xmem = XmemAllocator(capacity=64 * 1024, obs=obs)
        sim, hosts, stats, _sched, obs = _world(
            slots=3, obs=obs, xmem=xmem)
        process, report = _client(hosts, sim, 0, requests=1)
        sim.run_until_complete(process, timeout=600)
        assert report.error is None
        # One slot served one connection: exactly one buffer carved,
        # never past the budget.
        assert xmem.used == SLOT_BUFFER_BYTES
        assert xmem.used <= xmem.capacity

    def test_refuses_on_memory_instead_of_overallocating(self):
        """An xmem budget below one slot's buffer: admission must refuse
        with the memory counter, not allocate past capacity."""
        obs = Obs()
        xmem = XmemAllocator(capacity=SLOT_BUFFER_BYTES - 1, obs=obs)
        sim, hosts, _stats, _sched, obs = _world(
            slots=2, obs=obs, xmem=xmem)
        process, report = _client(hosts, sim, 0, requests=1)
        sim.run_until_complete(process, timeout=600)
        sim.run(until=sim.now + 1.0)
        counters = dict(obs.metrics.snapshot()["counters"])
        assert report.error is not None
        assert counters.get("redirector.refused.memory", 0) >= 1
        assert xmem.used <= xmem.capacity
