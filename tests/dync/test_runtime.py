"""Dynamic C runtime semantics: costatements, xalloc, storage classes
(paper sections 4.1-4.4, Figure 1)."""

import pytest

from repro.dync.runtime import (
    BatteryBackedRam,
    CostateError,
    CostateScheduler,
    ProtectedVariable,
    SharedVariable,
    StaticLocals,
    UnsharedMultibyte,
    waitfor,
    XallocError,
    XmemAllocator,
    XmemPointer,
)
from repro.net.sim import Simulator


class TestCostates:
    def test_round_robin_interleaving(self):
        sim = Simulator()
        scheduler = CostateScheduler(sim)
        trace = []

        def co(tag):
            for step in range(3):
                trace.append((tag, step))
                yield

        scheduler.add(co("a"))
        scheduler.add(co("b"))
        scheduler.run_until_all_done()
        assert trace == [("a", 0), ("b", 0), ("a", 1), ("b", 1),
                         ("a", 2), ("b", 2)]

    def test_waitfor_semantics(self):
        sim = Simulator()
        scheduler = CostateScheduler(sim)
        flag = {"ready": False}
        log = []

        def setter():
            for _ in range(5):
                yield
            flag["ready"] = True

        def waiter():
            yield from waitfor(lambda: flag["ready"])
            log.append("released")

        scheduler.add(setter())
        scheduler.add(waiter())
        scheduler.run_until_all_done()
        assert log == ["released"]

    def test_pass_overhead_advances_time(self):
        sim = Simulator()
        scheduler = CostateScheduler(sim, pass_overhead_s=0.001)

        def co():
            for _ in range(9):
                yield

        scheduler.add(co())
        scheduler.start()
        sim.run(until=0.1)
        assert scheduler.passes >= 10
        assert sim.now >= 0.009

    def test_numeric_yield_charges_busy_time(self):
        sim = Simulator()
        scheduler = CostateScheduler(sim, pass_overhead_s=1e-6)

        def cruncher():
            yield 0.5  # blocking computation
            yield

        scheduler.add(cruncher())
        scheduler.start()
        sim.run(until=2.0)
        # The whole loop stalled for the 0.5 s of compute.
        assert sim.now >= 0.5

    def test_abort(self):
        sim = Simulator()
        scheduler = CostateScheduler(sim)
        progress = []

        def forever():
            while True:
                progress.append(1)
                yield

        costate = scheduler.add(forever())
        scheduler.start()
        sim.run(until=0.001)
        costate.abort()
        count = len(progress)
        sim.run(until=0.002)
        assert len(progress) == count
        assert costate.done

    def test_cofunction_via_yield_from(self):
        sim = Simulator()
        scheduler = CostateScheduler(sim)
        results = []

        def cofunc(x):
            yield
            return x * 2

        def caller():
            value = yield from cofunc(21)
            results.append(value)

        scheduler.add(caller())
        scheduler.run_until_all_done()
        assert results == [42]

    def test_double_start_rejected(self):
        sim = Simulator()
        scheduler = CostateScheduler(sim)
        scheduler.add(iter(()))
        scheduler.start()
        with pytest.raises(CostateError):
            scheduler.start()

    def test_run_until_all_done_detects_stuck(self):
        sim = Simulator()
        scheduler = CostateScheduler(sim)

        def stuck():
            while True:
                yield

        scheduler.add(stuck())
        with pytest.raises(CostateError):
            scheduler.run_until_all_done(timeout=0.05)


class TestXalloc:
    def test_bump_allocation(self):
        allocator = XmemAllocator(1000, base=0x80000)
        first = allocator.xalloc(100)
        second = allocator.xalloc(200)
        assert first.address == 0x80000
        assert second.address == 0x80064
        assert allocator.used == 300
        assert allocator.available == 700

    def test_exhaustion(self):
        allocator = XmemAllocator(256)
        allocator.xalloc(200)
        with pytest.raises(XallocError):
            allocator.xalloc(100)

    def test_no_free(self):
        allocator = XmemAllocator(256)
        pointer = allocator.xalloc(10)
        with pytest.raises(XallocError, match="no free"):
            allocator.free(pointer)

    def test_pointer_arithmetic_forbidden(self):
        pointer = XmemPointer(0x80000, 16)
        with pytest.raises(TypeError):
            pointer + 1
        with pytest.raises(TypeError):
            1 + pointer
        with pytest.raises(TypeError):
            pointer - 1
        assert int(pointer) == 0x80000

    def test_bad_sizes(self):
        with pytest.raises(ValueError):
            XmemAllocator(0)
        allocator = XmemAllocator(100)
        with pytest.raises(ValueError):
            allocator.xalloc(0)


class TestStorageClasses:
    def test_shared_atomic_updates_counted(self):
        var = SharedVariable(0, name="a")
        for value in range(10):
            var.set(value)
        assert var.get() == 9
        assert var.update_count == 10
        assert var.overhead_cycles > 0

    def test_unshared_torn_read(self):
        # The bug class `shared` prevents, demonstrated.
        var = UnsharedMultibyte(width=4)
        var.begin_write(0x11223344)
        var.write_step()  # only one byte written
        torn = var.read()
        assert torn != 0x11223344
        while not var.write_step():
            pass
        assert var.read() == 0x11223344

    def test_protected_restore_after_reset(self):
        ram = BatteryBackedRam()
        var = ProtectedVariable(100, ram, name="state1")
        var.set(200)
        var.lose_to_reset()
        assert var.get() is None
        assert var.restore() == 200

    def test_protected_without_backup(self):
        ram = BatteryBackedRam()
        var = ProtectedVariable(1, ram, name="never_set")
        with pytest.raises(KeyError):
            var.restore()

    def test_battery_ram_capacity(self):
        ram = BatteryBackedRam(capacity=2)
        ram.save("a", 1)
        ram.save("b", 2)
        with pytest.raises(MemoryError):
            ram.save("c", 3)
        ram.save("a", 10)  # updates don't count against capacity
        assert ram.load("a") == 10

    def test_static_locals_persist(self):
        # Dynamic C: locals are static by default; one frame per function.
        statics = StaticLocals()

        def counter():
            frame = statics.frame("counter")
            frame["n"] = frame.get("n", 0) + 1
            return frame["n"]

        assert [counter(), counter(), counter()] == [1, 2, 3]

    def test_static_locals_break_recursion(self):
        # The classic consequence: recursive calls share one frame.
        statics = StaticLocals()

        def fact(n):
            frame = statics.frame("fact")
            frame["n"] = n
            if frame["n"] <= 1:
                return 1
            below = fact(frame["n"] - 1)
            # frame["n"] was clobbered by the recursive call:
            return frame["n"] * below

        assert fact(5) != 120  # broken, exactly as on the real compiler

