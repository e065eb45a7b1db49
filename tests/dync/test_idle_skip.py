"""The big loop's closed-form idle skip is exact.

Two layers of evidence:

- the float helpers in :mod:`repro.floatsum` against the naive loops
  they replace, compared with ``float.hex``;
- a differential oracle: random worlds run once as written and once
  with every ``IDLE``/``idle_until`` yield turned into a bare ``yield``
  (so every generator is resumed on every pass and nothing is skipped),
  and every piece of pass accounting must agree bit for bit;
- a per-pass verifier on that resume-every-pass twin: a pass in which
  every resumed costatement yielded ``IDLE`` must leave every metric,
  flight-recorder entry, telemetry sample and socket untouched, apart
  from the scheduler's own pass accounting -- the promise that makes
  skipping such passes sound.
"""

from __future__ import annotations

import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dync.runtime.costate import (
    GAP_BUCKETS,
    IDLE,
    CostateScheduler,
    _IdleToken,
    idle_until,
    indexed_cofunctions,
)
from repro.floatsum import add_repeated, first_at, runs
from repro.net.sim import SimulationError, Simulator
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
starts = st.one_of(st.just(0.0), near_powers_of_two, sim_times)

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
        # runs() needs c <= x; one add gets there.
        if first_at(x, 0.0, bound, inclusive, 0) == 0:
            return 0
        x += c
        n = 1
    for start, d, m in runs(x, c):
        t = first_at(start, d, bound, inclusive, m)
        if t <= m:
            return n + t
        if d == 0.0:
            raise ArithmeticError(f"{start!r} + {c!r} never reaches {bound!r}")
        n += m


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


class TestAddsUntil:
    @settings(max_examples=150, deadline=None)
    @given(starts, addends, st.integers(0, 10**5),
           st.sampled_from([-1, 0, 1]), st.booleans())
    def test_matches_a_linear_scan(self, x, c, steps, nudge, inclusive):
        bound = naive_sum(x, c, steps)
        if nudge:
            bound = math.nextafter(bound, nudge * math.inf)
        assert adds_until(x, c, bound, inclusive) == naive_scan(
            x, c, bound, inclusive)

    @settings(max_examples=60, deadline=None)
    @given(near_powers_of_two, st.integers(1, 6), st.integers(0, 5000),
           st.booleans())
    def test_ties(self, x, halves, steps, inclusive):
        c = _tie_addend(x, halves)
        bound = naive_sum(x, c, steps)
        assert adds_until(x, c, bound, inclusive) == naive_scan(
            x, c, bound, inclusive)

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
    """Wraps costatements like :func:`_unidle` and checks the ``IDLE``
    promise on every pass of the resume-every-pass twin.

    A pass runs from its first resume to its last yield; simulator
    events only run between passes.  After a pass in which every
    resumed costatement yielded ``IDLE``, the next pass -- when no
    simulator event has run in between and it starts before the
    earliest idle deadline -- is one the big loop skips.  Such a pass
    must yield ``IDLE`` everywhere again and leave ``state()`` as it
    found it.
    """

    def __init__(self):
        self.scheduler = None
        self.state = None
        self.pass_no = None
        self.all_idle = False
        self.skippable = False
        self.checked = 0
        self.violations = []

    def wrap(self, gen):
        try:
            while True:
                self._resuming()
                try:
                    yielded = next(gen)
                except StopIteration:
                    self.all_idle = False
                    return
                idle = type(yielded) is _IdleToken
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
                yield None if idle else yielded
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


ops = st.one_of(
    st.tuples(st.just("wait"), st.integers(0, NFLAGS - 1)),
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


def _run_world(world, unidle: bool, verifier=None) -> dict:
    obs = Obs()
    sim = Simulator(obs=obs)
    scheduler = CostateScheduler(sim, pass_overhead_s=world["overhead"],
                                 name="w")
    flags = [0] * NFLAGS
    log = []
    if verifier is not None:
        verifier.scheduler = scheduler
        verifier.state = lambda: (tuple(flags), len(log),
                                  _obs_state(obs, "w"))

    def bump(flag):
        flags[flag] += 1

    for when, flag in world["events"]:
        sim.call_at(when, bump, flag)

    def body(tag, script):
        # Every op that changes state ends its pass with a non-idle
        # yield: an IDLE pass must be a pure event-wait.
        for op, arg in script:
            if op == "wait":
                while not flags[arg]:
                    yield IDLE
                flags[arg] -= 1
                log.append((tag, "woke", arg, sim.now))
                yield
            elif op == "signal":
                flags[arg] += 1
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
        wrap = verifier.wrap
    else:
        wrap = _unidle if unidle else (lambda gen: gen)
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
            [slot(index, script) for index, script in enumerate(world["pool"])])
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
        "flags": flags,
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


def _wrap_every_costatement(monkeypatch, wrap):
    """Route every generator a scheduler registers through ``wrap``."""
    original_add = CostateScheduler.add

    def add(self, gen, name=""):
        return original_add(self, wrap(gen), name)

    monkeypatch.setattr(CostateScheduler, "add", add)


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
        _wrap_every_costatement(monkeypatch, verifier.wrap)
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


@pytest.mark.slow
class TestFullRunsUnskipped:
    """The fault matrix and a scaling point, with every idle yield made
    bare, produce byte-identical JSON."""

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

    def test_scaling_point(self, request):
        from repro.services.scaling import run_scaling_curve

        skipped = self._dump(run_scaling_curve(pool_sizes=(8,), seed=2000))
        request.getfixturevalue("unskipped")
        assert self._dump(
            run_scaling_curve(pool_sizes=(8,), seed=2000)) == skipped
