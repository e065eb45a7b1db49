"""The big loop's closed-form idle skip is exact.

The evidence:

- the float helpers in :mod:`repro.floatsum` against the naive loops
  they replace, compared with ``float.hex``, and ``first_at`` against
  the exact-rational form it replaced;
- a differential oracle: random worlds run once as written and once
  with every ``IDLE``/``idle_until`` yield turned into a bare ``yield``
  (so every generator is resumed on every pass and nothing is skipped),
  and every piece of pass accounting must agree bit for bit;
- a per-pass verifier on that resume-every-pass twin: a pass in which
  every resumed costatement yielded ``IDLE`` must leave every metric,
  flight-recorder entry, telemetry sample and socket untouched, apart
  from the scheduler's own pass accounting -- the promise that makes
  skipping such passes sound -- and a resume whose last token names
  wait objects that have not changed must yield an equal token and
  touch nothing, the promise that lets the big loop skip that resume;
- targeted worlds where a wait object changes without a new segment
  (a timer, another costatement, an attach from the accept queue), in
  which the waiter must resume on the very next pass;
- the slot pool's own token: what it names, and that the pool is
  resumed on the very next pass after any instance's counter moves.
"""

from __future__ import annotations

import json
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import repro.services.redirector as redirector
from repro.dync.runtime.costate import (
    GAP_BUCKETS,
    IDLE,
    CostateScheduler,
    _IdleToken,
    idle_on,
    idle_until,
    indexed_cofunctions,
)
from repro.floatsum import add_repeated, first_at, stretch
from repro.net.bsd import LISTENQ, socket
from repro.net.dynctcp import (
    DyncTcpStack,
    make_socket,
    sock_idle,
    sock_wait,
)
from repro.net.host import build_lan
from repro.net.sim import SimulationError, Simulator
from repro.net.tcp import TcpState
from repro.obs import Obs

# -- the float helpers ----------------------------------------------------

def _near_power_of_two(e: int, k: int, below: bool) -> float:
    """``k`` ulps below or above ``2**e``."""
    power = math.ldexp(1.0, e)
    if below:
        return power - k * math.ulp(power / 2)
    return power + k * math.ulp(power)


near_powers_of_two = st.builds(
    _near_power_of_two, st.integers(-20, 12), st.integers(0, 4),
    st.booleans(),
)
sim_times = st.floats(0.0, 100.0, allow_nan=False, allow_infinity=False)
subnormals = st.builds(math.ldexp, st.integers(1, 2**20), st.just(-1074))
starts = st.one_of(st.just(0.0), near_powers_of_two, sim_times, subnormals)

overheads = st.one_of(
    st.just(10e-6),
    st.floats(1e-7, 1e-2, allow_nan=False, allow_infinity=False),
)
#: Few-bit values, like the gaps the scheduler observes: summed into a
#: growing total they keep landing on round-half-even ties.
few_bit = st.builds(math.ldexp, st.integers(1, 255), st.integers(-40, -8))
addends = st.one_of(overheads, few_bit)


def _tie_addend(x: float, halves: int) -> float:
    """An addend that makes ``x + c`` an exact tie in x's binade."""
    return (halves + 0.5) * math.ulp(x)


def rational_first_at(start: float, d: float, bound: float,
                      inclusive: bool, cap: int) -> int:
    """:func:`first_at` in exact rational arithmetic: a second oracle."""
    if bound == math.inf:
        return cap + 1
    if d == 0.0:
        reached = start > bound if inclusive else start >= bound
        return 0 if reached else cap + 1
    sp, sq = start.as_integer_ratio()
    bp, bq = bound.as_integer_ratio()
    dp, dq = d.as_integer_ratio()
    # (bound - start) / d == num / den, with den > 0.
    num = (bp * sq - sp * bq) * dq
    den = bq * sq * dp
    if inclusive:
        t = num // den + 1 if num >= 0 else 0
    else:
        t = -(-num // den) if num > 0 else 0
    return min(t, cap + 1)


def naive_sum(x: float, c: float, n: int) -> float:
    for _ in range(n):
        x = x + c
    return x


def adds_until(x: float, c: float, bound: float,
               inclusive: bool = False) -> int:
    """The closed-form solver the big loop runs, stretch by stretch: how
    many adds ``x = x + c`` leave ``x < bound`` (``x <= bound`` when
    ``inclusive``) still true.  ``x >= 0``, ``c > 0``."""
    n = 0
    if x < c:
        # stretch() needs c <= x; one add gets there.
        if first_at(x, 0.0, bound, inclusive, 0) == 0:
            return 0
        x += c
        n = 1
    while True:
        d, m = stretch(x, c)
        t = first_at(x, d, bound, inclusive, m)
        assert t == rational_first_at(x, d, bound, inclusive, m)
        if t <= m:
            return n + t
        if d == 0.0:
            raise ArithmeticError(f"{x!r} + {c!r} never reaches {bound!r}")
        n += m
        x += m * d


def naive_scan(x: float, c: float, bound: float, inclusive: bool) -> int:
    n = 0
    while (x <= bound) if inclusive else (x < bound):
        x = x + c
        n += 1
    return n


class TestAddRepeated:
    @settings(max_examples=150, deadline=None)
    @given(starts, addends, st.integers(0, 10**5))
    def test_matches_the_naive_loop(self, x, c, n):
        assert add_repeated(x, c, n).hex() == naive_sum(x, c, n).hex()

    @settings(max_examples=100, deadline=None)
    @given(st.one_of(near_powers_of_two, st.floats(1e-3, 1e3)),
           st.integers(0, 6), st.integers(0, 5000))
    def test_round_half_even_ties(self, x, halves, n):
        c = _tie_addend(x, halves)
        assert add_repeated(x, c, n).hex() == naive_sum(x, c, n).hex()

    def test_sum_that_stops_moving(self):
        # Half an ulp: round-half-even lifts an odd significand once,
        # then the sum never moves again.
        x = 1.0 + 2.0 ** -52
        c = 2.0 ** -53
        assert add_repeated(x, c, 10**6).hex() == naive_sum(x, c, 1000).hex()

    def test_operands_outside_the_closed_form_take_the_loop(self):
        assert add_repeated(1.0, -0.25, 3) == 0.25
        assert math.isnan(add_repeated(0.0, math.nan, 2))


#: From 1.0, adding 2**-12 (k = 2**40 ulps) is one stretch of
#: m = 4095 ~ 2**52/k steps up to the top of the binade.
LONG_START, LONG_STEP, LONG_M = 1.0, 2.0 ** -12, 4095
TINY = math.ldexp(1.0, -1074)


class TestAddsUntil:
    @settings(max_examples=150, deadline=None)
    @given(starts, addends, st.integers(0, 10**5),
           st.sampled_from([-1, 0, 1]), st.booleans())
    # Just above the stretch's last point: the quotient passes its cap.
    @example(LONG_START, LONG_STEP, LONG_M, 1, False)
    @example(LONG_START, LONG_STEP, LONG_M, 1, True)
    # Exactly on a stretch point, the last one and an inner one.
    @example(LONG_START, LONG_STEP, LONG_M, 0, False)
    @example(LONG_START, LONG_STEP, LONG_M, 0, True)
    @example(LONG_START, LONG_STEP, 2000, 0, False)
    @example(LONG_START, LONG_STEP, 2000, 0, True)
    # A far bound in that long stretch.
    @example(LONG_START, LONG_STEP, LONG_M - 1, -1, False)
    @example(LONG_START, LONG_STEP, LONG_M - 1, 1, True)
    # A start and step on the subnormal grid, through several binades.
    @example(7 * TINY, 3 * TINY, 1000, 0, False)
    @example(7 * TINY, 3 * TINY, 1000, 0, True)
    @example(7 * TINY, 3 * TINY, 999, 1, False)
    def test_matches_a_linear_scan(self, x, c, steps, nudge, inclusive):
        bound = naive_sum(x, c, steps)
        if nudge:
            bound = math.nextafter(bound, nudge * math.inf)
        assert adds_until(x, c, bound, inclusive) == naive_scan(
            x, c, bound, inclusive)

    @settings(max_examples=60, deadline=None)
    @given(near_powers_of_two, st.integers(1, 6), st.integers(0, 5000),
           st.booleans())
    # From an odd significand a tie takes one odd step (a stretch of
    # m = 1), then even ones: bounds on both stretches' points.
    @example(1.0 + 2.0 ** -52, 1, 1, False)
    @example(1.0 + 2.0 ** -52, 1, 1, True)
    @example(1.0 + 2.0 ** -52, 1, 2, False)
    @example(1.0 + 2.0 ** -52, 1, 2, True)
    @example(1.0, 3, 5000, True)
    def test_ties(self, x, halves, steps, inclusive):
        c = _tie_addend(x, halves)
        bound = naive_sum(x, c, steps)
        assert adds_until(x, c, bound, inclusive) == naive_scan(
            x, c, bound, inclusive)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(-20, 12), st.integers(1, 2**12),
           st.floats(0.0, 1.0), st.sampled_from([-1, 0, 1]), st.booleans())
    @example(0, 1, 1.0, 0, False)
    @example(0, 1, 1.0, -1, True)
    @example(0, 3, 1.0, 1, False)
    @example(0, 7, 0.5, 0, True)
    def test_far_bounds_in_long_stretches(self, e, k, frac, nudge,
                                          inclusive):
        # From the bottom of a binade a step of k ulps is one stretch
        # of m = (2**52 - 1) // k steps: too long to scan, and bounds
        # near its far end make the quotient that estimates t itself
        # about 2**52/k.  The rational form is the oracle.
        start = math.ldexp(1.0, e)
        d, m = stretch(start, k * math.ulp(start))
        assert (d, m) == (k * math.ulp(start), (2**52 - 1) // k)
        t = round(frac * m)
        bound = start + t * d
        if nudge:
            bound = math.nextafter(bound, nudge * math.inf)
        else:
            assert first_at(start, d, bound, inclusive, m) == t + inclusive
        assert first_at(start, d, bound, inclusive, m) == (
            rational_first_at(start, d, bound, inclusive, m))
        assert first_at(start, d, 2 * start, inclusive, m) == m + 1

    def test_bound_already_reached(self):
        assert adds_until(2.0, 1.0, 2.0) == 0
        assert adds_until(2.0, 1.0, 2.0, inclusive=True) == 1
        assert adds_until(3.0, 1.0, 2.0, inclusive=True) == 0

    def test_stalled_sum_raises(self):
        with pytest.raises(ArithmeticError):
            adds_until(1.0, 2.0 ** -60, 2.0)

    def test_infinite_bound_is_never_reached(self):
        # An empty simulator queue is an event at infinity.
        for d in (0.0, 1e-5):
            for inclusive in (False, True):
                assert first_at(1.0, d, math.inf, inclusive, 7) == 8


# -- the differential oracle ----------------------------------------------

HORIZON = 0.02
NFLAGS = 3


def _unidle(gen):
    """Resume-every-pass twin of ``gen``: idle tokens become bare yields."""
    try:
        for yielded in gen:
            yield None if type(yielded) is _IdleToken else yielded
    finally:
        gen.close()


def _unnamed(token):
    """``token`` without its wait objects: still idle, never held."""
    if type(token) is _IdleToken and token.waits:
        return IDLE if token.deadline is None else idle_until(token.deadline)
    return token


def _obs_state(obs, scheduler_name: str) -> tuple:
    """Every metric value, the flight recorder's next sequence number and
    every telemetry series' length and last value, less the scheduler's
    own pass accounting (its pass counter and series, the gap
    histogram), which an idle pass advances by design."""
    metrics = obs.metrics
    own = f"costate.{scheduler_name}.passes"
    return (
        tuple((n, c.value) for n, c in metrics._counters.items() if n != own),
        tuple((n, g.value, g.high_water)
              for n, g in metrics._gauges.items()),
        tuple((n, h.count, h.total) for n, h in metrics._histograms.items()
              if n != "costate.gap_s"),
        tuple((n, k.count, k.total) for n, k in metrics._sketches.items()),
        obs.recorder._next,
        tuple((n, len(series), series.last)
              for n, series in obs.telemetry._series.items() if n != own),
    )


class _IdlePassVerifier:
    """Wraps costatements like :func:`_unidle` and checks both idle
    promises on the resume-every-pass twin.

    A pass runs from its first resume to its last yield; simulator
    events only run between passes.  After a pass in which every
    resumed costatement yielded ``IDLE``, the next pass -- when no
    simulator event has run in between and it starts before the
    earliest idle deadline -- is one the big loop skips.  Such a pass
    must yield ``IDLE`` everywhere again and leave ``state()`` as it
    found it.

    Per costatement: a resume whose last token names wait objects and
    still holds (no named counter moved, the clock is before its
    deadline) is one the big loop or the pool skips.  It must yield an
    equal token -- same deadline, same wait objects, same counters --
    and leave ``state()`` as it found it.

    :meth:`wrap` is for what the big loop resumes (idle tokens become
    bare), :meth:`wrap_slot` for an indexed cofunction's instances
    (tokens lose their wait objects, so the pool resumes them every
    pass and its own yield stays idle).
    """

    def __init__(self):
        self.scheduler = None
        self.state = None
        self.pass_no = None
        self.all_idle = False
        self.skippable = False
        self.checked = 0
        self.resumes_checked = 0
        self.violations = []

    def wrap(self, gen):
        return self._verified(gen, lambda token: None)

    def wrap_slot(self, gen):
        return self._verified(gen, _unnamed)

    def _verified(self, gen, convert):
        last = None
        try:
            while True:
                self._resuming()
                held = last is not None and last.holds()
                if held:
                    before = self.state()
                try:
                    yielded = next(gen)
                except StopIteration:
                    self.all_idle = False
                    return
                idle = type(yielded) is _IdleToken
                if held:
                    self.resumes_checked += 1
                    same = idle and (
                        (yielded.deadline, yielded.waits, yielded.mark)
                        == (last.deadline, last.waits, last.mark))
                    if not same or self.state() != before:
                        self.violations.append(
                            ("resume", self.pass_no, last, yielded))
                last = yielded if idle and yielded.waits else None
                if idle:
                    d = yielded.deadline
                    if d is not None and (self.deadline is None
                                          or d < self.deadline):
                        self.deadline = d
                else:
                    self.all_idle = False
                if self.skippable:
                    self.after = self.state()
                queue = self.scheduler.sim._queue
                self.head = queue[0] if queue else None
                yield convert(yielded) if idle else yielded
        finally:
            gen.close()

    def _resuming(self):
        if self.scheduler.passes == self.pass_no:
            return
        self.close_pass()
        sim = self.scheduler.sim
        queue = sim._queue
        # Events pop from the head, so an unchanged head object means
        # none ran since the last pass ended (bar the loop's own wake-up).
        head = queue[0] if queue else None
        self.skippable = (
            self.pass_no is not None and self.all_idle
            and head is self.head
            and (self.deadline is None or sim.now < self.deadline)
        )
        self.pass_no = self.scheduler.passes
        if self.skippable:
            self.before = self.after = self.state()
        self.all_idle = True
        self.deadline = None

    def close_pass(self):
        if not self.skippable:
            return
        self.checked += 1
        if not self.all_idle or self.after != self.before:
            changed = [(b, a) for b, a in zip(self.before, self.after)
                       if b != a]
            self.violations.append((self.pass_no, self.all_idle, changed))


#: ``wait`` names its flag; ``poll`` waits on it with a plain IDLE;
#: ``timed`` names its flag and gives up at a deadline.
ops = st.one_of(
    st.tuples(st.just("wait"), st.integers(0, NFLAGS - 1)),
    st.tuples(st.just("poll"), st.integers(0, NFLAGS - 1)),
    st.tuples(st.just("timed"), st.tuples(st.integers(0, NFLAGS - 1),
                                          st.floats(0.0, HORIZON / 4))),
    st.tuples(st.just("signal"), st.integers(0, NFLAGS - 1)),
    st.tuples(st.just("sleep"), st.floats(0.0, HORIZON / 4)),
    st.tuples(st.just("bare"), st.integers(1, 3)),
    st.tuples(st.just("busy"), st.floats(1e-6, 2e-3)),
)
scripts = st.lists(ops, min_size=1, max_size=6)


@st.composite
def worlds(draw):
    return {
        "overhead": draw(overheads.filter(lambda v: v >= 2e-6)),
        "events": draw(st.lists(
            st.tuples(st.floats(0.0, HORIZON), st.integers(0, NFLAGS - 1)),
            max_size=6)),
        "costates": draw(st.lists(scripts, min_size=1, max_size=4)),
        "pool": draw(st.one_of(st.none(),
                               st.lists(scripts, min_size=1, max_size=3))),
        "chunks": sorted(draw(st.lists(st.floats(0.0, HORIZON), max_size=4))),
        # A last bounded run past every queued event: the queue is empty.
        "tail": draw(st.floats(0.0, HORIZON)),
    }


class _Flag:
    """A generated world's wait object: a count, and the change counter
    every change of it bumps."""

    __slots__ = ("count", "changes")

    def __init__(self):
        self.count = 0
        self.changes = 0

    def add(self, delta: int) -> None:
        self.count += delta
        self.changes += 1


def _run_world(world, unidle: bool, verifier=None) -> dict:
    obs = Obs()
    sim = Simulator(obs=obs)
    scheduler = CostateScheduler(sim, pass_overhead_s=world["overhead"],
                                 name="w")
    flags = [_Flag() for _ in range(NFLAGS)]
    log = []
    if verifier is not None:
        verifier.scheduler = scheduler
        verifier.state = lambda: (
            tuple((f.count, f.changes) for f in flags), len(log),
            _obs_state(obs, "w"))

    for when, flag in world["events"]:
        sim.call_at(when, flags[flag].add, 1)

    def body(tag, script):
        # Every op that changes state ends its pass with a non-idle
        # yield: an IDLE pass must be a pure event-wait.
        for op, arg in script:
            if op in ("wait", "poll"):
                flag = flags[arg]
                while not flag.count:
                    yield idle_on((flag,), sim) if op == "wait" else IDLE
                flag.add(-1)
                log.append((tag, "woke", arg, sim.now))
                yield
            elif op == "timed":
                flag = flags[arg[0]]
                deadline = sim.now + arg[1]
                while not flag.count and sim.now < deadline:
                    yield idle_on((flag,), sim, deadline)
                if flag.count:
                    flag.add(-1)
                log.append((tag, "timed", arg[0], sim.now))
                yield
            elif op == "signal":
                flags[arg].add(1)
                log.append((tag, "signal", arg, sim.now))
                yield
            elif op == "sleep":
                deadline = sim.now + arg
                while sim.now < deadline:
                    yield idle_until(deadline)
            elif op == "bare":
                for _ in range(arg):
                    yield
            else:
                log.append((tag, "busy", arg, sim.now))
                yield arg
        log.append((tag, "done", sim.now))

    if verifier is not None:
        wrap, wrap_slot = verifier.wrap, verifier.wrap_slot
    elif unidle:
        wrap = wrap_slot = _unidle
    else:
        wrap = wrap_slot = lambda gen: gen
    costates = []
    for index, script in enumerate(world["costates"]):
        tag = f"c{index}"
        costates.append(scheduler.add(wrap(body(tag, script)), tag))
    slot_passes = []
    if world["pool"] is not None:
        slot_passes = [0] * len(world["pool"])

        def slot(index, script):
            # Counts the slot's resumes: not pass accounting, since a
            # skipped pass never resumes the pool.
            for value in body(f"s{index}", script):
                slot_passes[index] += 1
                yield value

        pool = indexed_cofunctions(
            [wrap_slot(slot(index, script))
             for index, script in enumerate(world["pool"])])
        costates.append(scheduler.add(wrap(pool), "pool"))

    scheduler.start()
    for until in world["chunks"] + [HORIZON, HORIZON + world["tail"]]:
        sim.run(until=until)

    gap = obs.metrics.histogram("costate.gap_s", GAP_BUCKETS)
    series = obs.telemetry.series("costate.w.passes")
    return {
        "passes": scheduler.passes,
        "counter": obs.metrics.counter("costate.w.passes").value,
        "now": sim.now.hex(),
        "costates": [(c.passes, c.done, float(c.last_ran_at or 0.0).hex())
                     for c in costates],
        "slot_passes": slot_passes,
        "gap": (gap.count, list(gap.counts), gap.overflow, gap.total.hex()),
        "telemetry": [(t.hex(), v) for t, v in series.samples()],
        "log": log,
        "flags": [(f.count, f.changes) for f in flags],
    }


class TestIdleDifferential:
    @settings(max_examples=60, deadline=None)
    @given(worlds())
    def test_skip_matches_resuming_every_pass(self, world):
        skipped = _run_world(world, unidle=False)
        verifier = _IdlePassVerifier()
        resumed = _run_world(world, unidle=True, verifier=verifier)
        skipped.pop("slot_passes")
        resumed.pop("slot_passes")
        assert skipped == resumed
        verifier.close_pass()
        assert not verifier.violations

    def test_world_that_skips(self):
        # Guard against a vacuous oracle: this world spends most of its
        # passes idle, and both runs still agree.
        world = {
            "overhead": 10e-6,
            "events": [(0.004, 0), (0.011, 1)],
            "costates": [[("wait", 0), ("busy", 1e-4)],
                         [("sleep", 0.003), ("wait", 1)]],
            "pool": [[("wait", 1), ("signal", 2)], [("wait", 2)]],
            "chunks": [0.005],
            "tail": 0.01,
        }
        skipped = _run_world(world, unidle=False)
        verifier = _IdlePassVerifier()
        resumed = _run_world(world, unidle=True, verifier=verifier)
        verifier.close_pass()
        assert not verifier.violations
        assert verifier.checked > 1000
        assert skipped["passes"] > 1000
        assert len(skipped["telemetry"]) > 50
        # The pool's slots only step when the pool is resumed.
        assert skipped.pop("slot_passes")[0] < resumed.pop("slot_passes")[0]
        assert skipped == resumed

    def test_world_that_skips_named_waits_in_live_passes(self):
        # One costatement keeps every pass live, so no pass is all-idle:
        # only the named waits' own skip can save resumes.
        world = {
            "overhead": 10e-6,
            "events": [(0.004, 0), (0.006, 1)],
            "costates": [[("bare", 1500)],
                         [("wait", 0), ("signal", 2)],
                         [("timed", (1, 0.003)), ("wait", 1)]],
            "pool": [[("wait", 2)], [("timed", (0, 0.002))]],
            "chunks": [0.005],
            "tail": 0.01,
        }
        skipped = _run_world(world, unidle=False)
        verifier = _IdlePassVerifier()
        resumed = _run_world(world, unidle=True, verifier=verifier)
        verifier.close_pass()
        assert not verifier.violations
        assert verifier.resumes_checked > 1000
        skipped_slots = skipped.pop("slot_passes")
        resumed_slots = resumed.pop("slot_passes")
        assert skipped_slots[0] * 10 < resumed_slots[0]
        assert skipped_slots[1] * 10 < resumed_slots[1]
        assert skipped == resumed


class TestParkedInstances:
    def test_a_refilled_entry_is_resumed(self):
        # The pool keeps an instance's token with the generator that
        # yielded it: a new generator in that entry runs at once.
        sim = Simulator()
        flag = _Flag()
        ran = []

        def waiter():
            while True:
                ran.append("waiter")
                yield idle_on((flag,), sim)

        def newcomer():
            ran.append("newcomer")
            yield

        gens = [waiter()]
        pool = indexed_cofunctions(gens)
        next(pool)
        next(pool)
        gens[0] = newcomer()
        next(pool)
        assert ran == ["waiter", "newcomer"]


class TestSlotPoolToken:
    """The token a slot pool yields when all its instances wait: named
    only when every instance's token is, and never held past a counter
    that moved after its waiter yielded."""

    @staticmethod
    def _waiter(flag, clock, deadline=None):
        while True:
            yield idle_on((flag,), clock, deadline)

    @staticmethod
    def _plain(token):
        while True:
            yield token

    @staticmethod
    def _counted(gen, resumes):
        """``gen``, counting its resumes in ``resumes[0]``."""
        for value in gen:
            resumes[0] += 1
            yield value

    def test_names_every_instances_waits(self):
        sim = Simulator()
        first, second = _Flag(), _Flag()
        first.add(1)
        first.add(-1)
        pool = indexed_cofunctions([self._waiter(first, sim), None,
                                    self._waiter(second, sim, 0.5)])
        token = next(pool)
        assert token.waits == (first, second)
        assert (token.deadline, token.mark) == (0.5, 2)
        assert token.holds()
        second.add(1)
        assert not token.holds()

    @pytest.mark.parametrize("plain", [IDLE, idle_until(0.25)],
                             ids=["IDLE", "idle_until"])
    def test_one_unnamed_instance_gives_a_plain_token(self, plain):
        sim = Simulator()
        pool = indexed_cofunctions([self._waiter(_Flag(), sim, 0.5),
                                    self._plain(plain)])
        token = next(pool)
        assert token.waits == ()
        assert token.deadline == min(0.5, plain.deadline or math.inf)

    def test_no_live_instance_gives_idle(self):
        assert next(indexed_cofunctions([None, None])) is IDLE

    @pytest.mark.parametrize("mover", [
        "later-instance", "costate-after", "costate-before"])
    def test_resumed_on_the_next_pass_after_a_counter_moves(self, mover):
        # The waiter parks on ``flag``; at ``act_at`` something else
        # bumps it.  A later instance of the same pool does so after the
        # waiter yielded in that same pass, and then parks too: the
        # pool's token must already fail, so its mark is what the
        # instances recorded, not what the counters read as it yields.
        sim = Simulator()
        scheduler = CostateScheduler(sim, pass_overhead_s=1e-5, name="w")
        flag, other = _Flag(), _Flag()
        act_at = 0.002
        seen = {}
        resumes = [0]

        def waiter():
            while not flag.count:
                yield idle_on((flag,), sim)
            seen["woke"] = scheduler.passes
            yield

        def instance_mover():
            while sim.now < act_at:
                yield idle_on((other,), sim, act_at)
            flag.add(1)
            seen["moved"] = scheduler.passes
            while True:
                yield idle_on((other,), sim)

        def costate_mover():
            # Bare yields keep every pass live, so only the pool's own
            # token decides whether it is resumed.
            while sim.now < act_at:
                yield
            flag.add(1)
            seen["moved"] = scheduler.passes
            while True:
                yield

        def ticker():
            while True:
                yield

        if mover == "later-instance":
            pool = indexed_cofunctions([waiter(), instance_mover()])
            costates = [("pool", pool), ("ticker", ticker())]
        else:
            pool = indexed_cofunctions([waiter(),
                                        self._waiter(other, sim)])
            costates = [("pool", pool), ("mover", costate_mover())]
            if mover == "costate-before":
                costates.reverse()
        for name, gen in costates:
            if name == "pool":
                gen = self._counted(gen, resumes)
            scheduler.add(gen, name)
        scheduler.start()
        sim.run(until=0.01)
        assert scheduler.passes > 900
        assert resumes[0] < 10  # parked, not resumed every pass
        expected = seen["moved"] + (mover != "costate-before")
        assert seen["woke"] == expected

    def test_a_socket_two_instances_name_counts_twice(self):
        board = _Board()
        assert board.stack.tcp_listen(board.sock, board.BOARD_PORT)

        def client():
            csock = socket(board.peer)
            yield from csock.connect(
                (board.stack.host.ip_address, board.BOARD_PORT))
            yield from _silent(csock)

        resumes, polls = [0], [0]

        def waiter(index):
            why = yield from sock_wait(board.sock, board.established)
            board.seen[f"waiter{index}"] = (board.scheduler.passes, why)

        def attached():
            polls[0] += 1
            return board.sock.conn is not None

        # The client connects at 5 ms; until then, events that touch
        # no socket resume the plain-IDLE watcher, not the pool.
        board.sim.call_at(0.005, lambda: board.peer.spawn(client()))
        for tick in range(50):
            board.sim.call_at(tick * 1e-4, lambda: None)
        board.watch("attached", attached)
        pool = indexed_cofunctions([waiter(0), waiter(1)])
        token = next(pool)
        assert token.waits == (board.sock, board.sock)
        assert token.mark == 2 * board.sock.changes
        assert token.holds()
        board.add("pool", self._counted(pool, resumes))
        board.run(until=0.2)
        woke = (board.seen["attached"], None)
        assert board.seen["waiter0"] == board.seen["waiter1"] == woke
        # Resumed on a change of the socket or of its connection, not
        # on every pass after an event, as the plain-IDLE watcher is.
        assert resumes[0] * 10 < polls[0]


class TestEmptyQueue:
    """With nothing queued, a bounded run fast-forwards in place; an
    unbounded one still yields every pass."""

    @staticmethod
    def _start(body):
        sim = Simulator()
        scheduler = CostateScheduler(sim, pass_overhead_s=1e-5, name="w")
        scheduler.add(body, "c")
        scheduler.start()
        return sim, scheduler

    def test_bounded_run_skips_idle_passes(self):
        def waiter():
            while True:
                yield IDLE

        sim, scheduler = self._start(waiter())
        executed = sim.run(until=1.0)
        assert sim.now == 1.0
        assert executed == 1  # the spawn; no pass yields to the queue
        assert scheduler.passes > 99_000

    def test_unbounded_run_yields_every_pass(self):
        def poller():
            for _ in range(2_000):
                yield
            raise AssertionError("passes ran without yielding")

        sim, scheduler = self._start(poller())
        with pytest.raises(SimulationError, match="exceeded 500 events"):
            sim.run(max_events=500)
        assert scheduler.passes == 500


def _socket_state(world) -> tuple:
    """Every TCP connection and listener on every host, and the board
    stack's receive queue, waiting sockets and tick bookkeeping."""
    rows = []
    for name, host in world.hosts.items():
        for key, conn in host.tcp._connections.items():
            rows.append((name, key, conn.state, conn.snd_una, conn.snd_nxt,
                         conn.rcv_nxt, len(conn._send_queue),
                         len(conn._retransmit), len(conn._recv_buffer),
                         conn._fin_queued, conn.fin_received, conn.error))
        for port, listener in host.tcp._listeners.items():
            rows.append((name, port, len(listener.accept_queue),
                         len(listener._embryonic), listener.closed))
    stack = world.stack
    rows.append((len(stack._rx_queue), stack._attach_dirty, stack.ticks,
                 stack.syns_deferred,
                 tuple((port, len(waiting)) for port, waiting
                       in stack._waiting_sockets.items())))
    return tuple(rows)


class _WrappedSlots:
    """A live view of an indexed cofunction's generator list whose
    entries read through ``wrap``, one wrapper per generator; writes go
    to the list itself."""

    def __init__(self, gens, wrap):
        self._gens = gens
        self._wrap = wrap
        self._wrapped = {}

    def __iter__(self):
        index = 0
        while index < len(self._gens):
            gen = self._gens[index]
            if gen is not None:
                wrapped = self._wrapped.get(index)
                if wrapped is None or wrapped[0] is not gen:
                    wrapped = self._wrapped[index] = (gen, self._wrap(gen))
                gen = wrapped[1]
            yield gen
            index += 1

    def __setitem__(self, index, value):
        self._gens[index] = value


def _wrap_every_costatement(monkeypatch, wrap, wrap_slot=None):
    """Route every generator a scheduler registers through ``wrap``, and
    every instance the redirector's slot pool steps through
    ``wrap_slot`` (``wrap`` when not given)."""
    original_add = CostateScheduler.add
    wrap_slot = wrap_slot or wrap

    def add(self, gen, name=""):
        return original_add(self, wrap(gen), name)

    monkeypatch.setattr(CostateScheduler, "add", add)
    monkeypatch.setattr(
        redirector, "indexed_cofunctions",
        lambda gens: indexed_cofunctions(_WrappedSlots(gens, wrap_slot)))


class TestIdlePassesTouchNothing:
    """The per-pass verifier on the redirector, where the costatements
    drive sockets, issl sessions and every obs component."""

    @pytest.mark.parametrize("pooled", [False, True])
    def test_redirector(self, monkeypatch, pooled):
        from repro.crypto.demokeys import DEMO_PSK
        from repro.crypto.prng import CipherRng
        from repro.issl import FREE, UNIX_FULL, IsslContext
        from repro.services import (
            ClientReport,
            TLS_PORT,
            build_redirector_world,
            delayed,
            secure_request_client,
        )

        verifier = _IdlePassVerifier()
        _wrap_every_costatement(monkeypatch, verifier.wrap,
                                verifier.wrap_slot)
        world = build_redirector_world(
            b"idle-verifier", clients=2, obs=Obs(), cost_model=FREE,
            logger_capacity=16, pooled=pooled)
        # Started but not yet run: no costatement has been resumed.
        verifier.scheduler = world.scheduler
        verifier.state = lambda: (_obs_state(world.obs, world.scheduler.name),
                                  _socket_state(world))
        reports, processes = [], []
        for index in range(2):
            host = world.hosts[f"c{index}"]
            report = ClientReport(f"c{index}")
            context = IsslContext(UNIX_FULL, CipherRng(b"c%d" % index),
                                  psk=DEMO_PSK, obs=world.obs)
            reports.append(report)
            client = secure_request_client(
                host, context, str(world.hosts["rmc"].ip_address),
                TLS_PORT, 2, 24, report)
            processes.append(host.spawn(delayed(0.004 * index, client)))
        for process in processes:
            world.sim.run_until_complete(process, timeout=60)
        world.sim.run(until=world.sim.now + 0.005)
        world.scheduler.stop()
        verifier.close_pass()
        assert [r.error for r in reports] == [None, None]
        assert world.stats["redirected"] == 4
        assert not verifier.violations
        assert verifier.checked > 100
        assert verifier.resumes_checked > 1000


class _Board:
    """A Dynamic C stack on ``board``, a BSD peer on the same LAN and a
    big loop.  ``watch`` adds a costatement that yields a plain ``IDLE``
    (so it is resumed in every pass after an event) and records the
    first pass in which its predicate holds; ``seen`` maps each
    recorder to what it recorded."""

    PEER_PORT = 9000
    BOARD_PORT = 4433

    def __init__(self):
        self.sim = Simulator()
        self.lan, hosts = build_lan(self.sim, ["board", "peer"])
        self.peer = hosts["peer"]
        self.stack = DyncTcpStack(hosts["board"])
        self.stack.sock_init()
        self.sock = make_socket(self.stack)
        self.scheduler = CostateScheduler(self.sim, name="w")
        self.seen = {}

    def add(self, name, gen):
        self.scheduler.add(gen, name)

    def watch(self, name, predicate):
        def watcher():
            while not predicate():
                yield IDLE
            self.seen[name] = self.scheduler.passes
        self.add(name, watcher())

    def established(self):
        return self.stack.sock_established(self.sock)

    def state(self):
        conn = self.sock.conn
        return None if conn is None else conn.state

    def open_to_peer(self, serve_peer):
        """Peer listens and runs ``serve_peer(conn)``; the board opens."""
        lsock = socket(self.peer)
        lsock.bind(("", self.PEER_PORT))
        lsock.listen(LISTENQ)

        def peer():
            conn = yield from lsock.accept()
            yield from serve_peer(conn)
        self.peer.spawn(peer())
        self.stack.tcp_open(self.sock, 0, self.peer.ip_address,
                            self.PEER_PORT)

    def run(self, until):
        self.scheduler.add(redirector._tick_driver(self.stack), "tick-driver")
        self.scheduler.start()
        self.sim.run(until=until)


def _silent(conn):
    """A peer that reads until EOF and never closes."""
    while (yield from conn.recv(512)):
        pass


class TestWaitsWakeOnTheNextPass:
    """A change to a named wait object that arrives without a new
    segment -- a timer, another costatement's call, an attach from the
    accept queue, another reader's drain -- resumes the waiter on the
    very next pass: the first pass in which a costatement that polls
    every pass after an event sees the change."""

    def test_retransmission_timeout_closes_the_connection(self):
        board = _Board()
        board.lan.set_drop_filter(lambda frame, index: True)
        board.stack.tcp_open(board.sock, 0, board.peer.ip_address,
                             board.PEER_PORT)

        def waiter():
            why = yield from sock_wait(board.sock, board.established)
            board.seen["waiter"] = (board.scheduler.passes, why)

        board.watch("closed", lambda: board.state() is TcpState.CLOSED)
        board.add("waiter", waiter())
        board.run(until=30.0)
        assert board.sock.conn.error == "too many retransmissions"
        assert board.seen["waiter"] == (board.seen["closed"], "closed")

    def test_time_wait_expiry(self):
        # tcp_listen already accepts a socket in TIME_WAIT, so the
        # expiry timer is checked through a wait for CLOSED.
        board = _Board()

        def hang_up(conn):
            while (yield from conn.recv(512)):
                pass
            conn.close()

        board.open_to_peer(hang_up)

        def waiter():
            yield from sock_wait(board.sock, board.established)
            board.stack.sock_close(board.sock)
            while board.state() is not TcpState.CLOSED:
                yield sock_idle(board.sock)
            board.seen["waiter"] = board.scheduler.passes

        board.watch("time-wait", lambda: board.state() is TcpState.TIME_WAIT)
        board.watch("closed", lambda: board.state() is TcpState.CLOSED)
        board.add("waiter", waiter())
        board.run(until=3.0)
        assert "time-wait" in board.seen
        assert board.seen["waiter"] == board.seen["closed"]

    @pytest.mark.parametrize("call", ["sock_abort", "sock_close"])
    @pytest.mark.parametrize("waiter_first", [True, False],
                             ids=["waiter-first", "caller-first"])
    def test_call_by_another_costatement(self, call, waiter_first):
        board = _Board()
        board.open_to_peer(_silent)
        act_at = 0.05

        def waiter():
            yield from sock_wait(board.sock, board.established)
            why = yield from sock_wait(
                board.sock, lambda: not board.established())
            board.seen["waiter"] = (board.scheduler.passes, why)

        def caller():
            while board.sim.now < act_at:
                yield idle_until(act_at)
            board.seen["call"] = board.scheduler.passes
            getattr(board.stack, call)(board.sock)
            yield

        costates = [("waiter", waiter()), ("caller", caller())]
        for name, gen in costates if waiter_first else costates[::-1]:
            board.add(name, gen)
        board.run(until=0.2)
        woke, why = board.seen["waiter"]
        assert why is None
        assert woke == board.seen["call"] + (1 if waiter_first else 0)

    def test_attach_from_the_accept_queue(self):
        board = _Board()
        assert board.stack.tcp_listen(board.sock, board.BOARD_PORT)

        def client():
            csock = socket(board.peer)
            yield from csock.connect(
                (board.stack.host.ip_address, board.BOARD_PORT))
            yield from _silent(csock)

        def waiter():
            why = yield from sock_wait(board.sock, board.established)
            board.seen["waiter"] = (board.scheduler.passes, why)

        board.peer.spawn(client())
        board.watch("attached", lambda: board.sock.conn is not None)
        board.add("waiter", waiter())
        board.run(until=0.2)
        assert board.seen["waiter"] == (board.seen["attached"], None)

    def test_drain_by_another_reader(self):
        # The peer's FIN is in, but at_eof waits for the receive buffer
        # to drain, and another costatement drains it.
        board = _Board()

        def send_and_close(conn):
            yield from conn.sendall(b"last words")
            conn.close()

        board.open_to_peer(send_and_close)

        def waiter():
            why = yield from sock_wait(board.sock, lambda: False)
            board.seen["waiter"] = (board.scheduler.passes, why)

        def reader():
            while board.sock.conn is None or not board.sock.conn.fin_received:
                yield IDLE
            board.seen["drain"] = board.scheduler.passes
            board.seen["data"] = board.stack.sock_read(board.sock, 512)
            yield

        board.add("waiter", waiter())
        board.add("reader", reader())
        board.run(until=0.2)
        assert board.seen["data"] == b"last words"
        assert board.seen["waiter"] == (board.seen["drain"] + 1, "eof")


@pytest.mark.slow
class TestFullRunsUnskipped:
    """The fault matrix and the scaling points of both wirings, with
    every idle yield made bare (the slot pool's instances' too), produce
    byte-identical JSON."""

    @pytest.fixture
    def unskipped(self, monkeypatch):
        _wrap_every_costatement(monkeypatch, _unidle)

    @staticmethod
    def _dump(value) -> str:
        return json.dumps(value, sort_keys=True, default=repr)

    def test_fault_matrix(self, request):
        from repro.faults.campaign import run_matrix

        skipped = self._dump(run_matrix(seed=2000))
        request.getfixturevalue("unskipped")
        assert self._dump(run_matrix(seed=2000)) == skipped

    @pytest.mark.parametrize("variant, slots",
                             [("static", 3), ("pool", 8)],
                             ids=["static3", "pool8"])
    def test_scaling_point(self, request, variant, slots):
        from repro.services.scaling import run_scaling_point

        skipped = self._dump(
            run_scaling_point(variant=variant, slots=slots, seed=2000))
        request.getfixturevalue("unskipped")
        assert self._dump(run_scaling_point(
            variant=variant, slots=slots, seed=2000)) == skipped
