"""The indexed-cofunction slot pool: the runtime shape behind the
dynamic redirector (``cofunc void handler[NSLOTS]``-style slots driven
from one costatement), as the generator ``indexed_cofunctions``."""

import pytest

from repro.dync.runtime.costate import (
    IDLE,
    CostateScheduler,
    idle_until,
    indexed_cofunctions,
)
from repro.net.sim import Simulator


def _ticker(log, label, busy_s=0.0, passes=3):
    for _ in range(passes):
        log.append(label)
        yield busy_s


def _script(*values):
    """A generator that yields ``values`` in order, then finishes."""
    yield from values


class TestCofunctionSlot:
    def test_step_accumulates_busy_and_passes(self):
        """A one-generator pool yields that generator's busy time each
        pass; once it finishes, every pass is an idle no-op."""
        log = []
        pool = indexed_cofunctions([_ticker(log, "a", busy_s=0.5, passes=2)])
        assert next(pool) == 0.5
        assert next(pool) == 0.5
        assert next(pool) is IDLE
        assert next(pool) is IDLE
        assert log == ["a", "a"]


class TestIndexedCofunctionPool:
    def test_capacity_and_index_order(self):
        log = []
        pool = indexed_cofunctions(
            [_ticker(log, label) for label in ("a", "b", "c")])
        next(pool)
        # One big-loop pass advances every generator once, in index order.
        assert log == ["a", "b", "c"]
        next(pool)
        assert log == ["a", "b", "c"] * 2

    def test_step_all_sums_busy_and_skips_done(self):
        log = []
        pool = indexed_cofunctions([
            _ticker(log, "x", busy_s=0.25, passes=1),
            _ticker(log, "y", busy_s=0.5, passes=2),
        ])
        assert next(pool) == pytest.approx(0.75)
        # x exhausted on the pass above; only y contributes now.
        assert next(pool) == pytest.approx(0.5)
        assert log == ["x", "y", "y"]

    def test_busy_is_summed_in_index_order_from_zero(self):
        values = (1e16, 1.0, -1e16)
        pool = indexed_cofunctions([_script(v) for v in values])
        # ((0.0 + 1e16) + 1.0) - 1e16: the 1.0 is absorbed, where
        # (1e16 - 1e16) + 1.0, another order, would keep it.
        assert next(pool) == ((0.0 + 1e16) + 1.0) - 1e16 == 0.0
        # The sum starts from 0.0, so integer yields sum to a float.
        pool = indexed_cofunctions([_script(1), _script(2)])
        total = next(pool)
        assert total == 3.0 and type(total) is float

    def test_all_idle_folds_to_the_earliest_deadline(self):
        pool = indexed_cofunctions([
            _script(IDLE),
            _script(idle_until(5.0)),
            _script(idle_until(2.0)),
            _script(idle_until(3.0)),
        ])
        token = next(pool)
        assert type(token) is type(IDLE)
        assert token.deadline == 2.0

    def test_all_idle_without_deadlines_is_idle(self):
        pool = indexed_cofunctions([_script(IDLE), _script(IDLE)])
        assert next(pool) is IDLE

    @pytest.mark.parametrize("busy_value", [None, 0, 0.0])
    def test_bare_or_zero_yield_makes_the_pass_busy(self, busy_value):
        """A bare or zero yield is not an idle declaration: the pass
        yields the (zero) busy sum, which the big loop never skips."""
        pool = indexed_cofunctions([
            _script(idle_until(1.0)), _script(busy_value), _script(IDLE)])
        result = next(pool)
        assert type(result) is float and result == 0.0

    def test_finished_generators_do_not_block_the_idle_fold(self):
        pool = indexed_cofunctions([_script(), _script(IDLE, IDLE)])
        # The first generator finishes on the first pass: the pass is
        # idle because every *live* generator yielded IDLE.
        assert next(pool) is IDLE
        assert next(pool) is IDLE

    def test_all_done_pool_is_idle_forever(self):
        pool = indexed_cofunctions([_script(0.5), _script()])
        assert next(pool) == 0.5
        for _ in range(3):
            assert next(pool) is IDLE
        assert next(indexed_cofunctions([])) is IDLE


class TestLiveSlotList:
    """The pool reads its caller's list live: ``None`` is an idle slot,
    a filled entry runs in the filling pass, a finished one reads
    ``None``."""

    def test_none_entries_are_skipped(self):
        log = []
        pool = indexed_cofunctions(
            [None, _ticker(log, "a", busy_s=0.5), None])
        assert next(pool) == 0.5
        assert log == ["a"]

    def test_entry_filled_by_an_earlier_generator_runs_in_that_pass(self):
        log = []
        gens = [None, None]

        def acceptor():
            log.append("acceptor")
            gens[1] = _ticker(log, "slot", busy_s=0.25, passes=1)
            yield

        gens[0] = acceptor()
        pool = indexed_cofunctions(gens)
        assert next(pool) == 0.25
        assert log == ["acceptor", "slot"]

    def test_finished_entry_reads_none_in_the_callers_list(self):
        gens = [_script(), _script(IDLE, IDLE)]
        pool = indexed_cofunctions(gens)
        next(pool)
        assert gens[0] is None
        assert gens[1] is not None

    def test_pass_over_only_none_entries_is_idle(self):
        pool = indexed_cofunctions([None, None, None])
        assert next(pool) is IDLE
        assert next(pool) is IDLE


class TestSchedulerPoolIntegration:
    def test_pool_runs_inside_big_loop(self):
        sim = Simulator()
        scheduler = CostateScheduler(sim)
        log = []
        scheduler.add(indexed_cofunctions([
            _ticker(log, "s1", passes=4),
            _ticker(log, "s2", passes=4),
        ]), name="pool")
        scheduler.start()
        sim.run(until=sim.now + 1.0)
        scheduler.stop()
        assert log == ["s1", "s2"] * 4
        # The pool itself never finishes: it idles once its generators do.
        assert scheduler.costate_names == ["pool"]
        assert not scheduler.all_done

    def test_pool_busy_is_charged_to_the_big_loop(self):
        sim = Simulator()
        scheduler = CostateScheduler(sim, pass_overhead_s=1e-5)
        costate = scheduler.add(indexed_cofunctions([
            _script(0.25, 0.25), _script(0.5)]), name="pool")
        scheduler.start()
        sim.run(until=2.0)
        scheduler.stop()
        # 0.75 s then 0.25 s of busy slices, then the pool idles.
        assert costate.total_busy_s == pytest.approx(1.0)
