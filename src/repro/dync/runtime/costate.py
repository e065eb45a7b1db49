"""Costatements and cofunctions: Dynamic C's cooperative multitasking.

Dynamic C's big loop

    for (;;) {
        costate { ... yield; ... waitfor(expr); ... }
        costate { ... }
    }

gives each costatement its own program counter; ``yield`` passes control
to the next costatement and execution resumes after the ``yield`` on the
next pass; ``waitfor(expr)`` is ``while (!expr) yield;``.

Here a costatement is a Python generator added to a
:class:`CostateScheduler`.  A bare ``yield`` is Dynamic C's ``yield``; the
:func:`waitfor` helper is used as ``yield from waitfor(pred)``.  The
scheduler itself runs as one process on the discrete-event simulator,
charging a configurable amount of simulated time per pass through the
big loop (a 30 MHz Rabbit spends real cycles just walking the loop).

Cofunctions -- costatement bodies that take arguments and return a value
-- map onto generator delegation: define a generator function and call
it with ``result = yield from my_cofunc(args)``, which is faithful to
their "callable costatement" semantics.  An indexed cofunction
(``cofunc handler[N]``, N instances stepped from one costatement) is
:func:`indexed_cofunctions`: one generator that advances each generator
in a list once per pass, skipping the ``None`` entries of idle
instances, registered with :meth:`CostateScheduler.add` like any other
costatement.  A costatement (or an instance) whose last token names
wait objects is not resumed while that token still holds; a pool whose
live instances all wait on named objects yields one token naming them
all, so the big loop does not resume it either.

Passes in which every costatement waits are not run at all: the big
loop computes their accounting in closed form (``_skip_idle``, built on
:mod:`repro.floatsum`).
"""

from __future__ import annotations

import math
from typing import Callable, Generator

from repro.floatsum import FOREVER, first_at, stretch
from repro.net.sim import Simulator
from repro.obs.trace import CAT_COSTATE

#: Default simulated cost of one pass through the big loop.  At 30 MHz a
#: few hundred cycles of loop/dispatch overhead is ~10 us.
DEFAULT_PASS_OVERHEAD_S = 10e-6

#: Histogram buckets for the gap between consecutive runs of the same
#: costatement (seconds): big-loop jitter, Figure 3's starvation signal.
GAP_BUCKETS = (20e-6, 50e-6, 100e-6, 500e-6, 1e-3, 5e-3, 20e-3, 100e-3, 1.0)


class _IdleToken:
    """A costatement's declaration that this pass was a pure event-wait.

    Yielding :data:`IDLE` (or a deadline-carrying token from
    :func:`idle_until`) instead of a bare ``yield`` promises: *resuming
    me again is a no-op unless a simulator event has run since, or (for
    a deadline token) the pass starts at or after my deadline*.  The
    resume that yields the token may do work before its wait begins
    (drain a record, then find no next header), but nothing it did may
    let any costatement progress before that event or deadline: the
    passes that follow must yield ``IDLE`` again and change no metric,
    flight-recorder entry, telemetry sample or socket.

    The big loop uses the promise to skip the passes after an all-idle
    one without resuming any generator (see ``_skip_idle``).  The skip
    computes their accounting (pass counters, gap histogram, telemetry
    cadence) in exact closed form, so every deterministic metric is
    byte-identical to the resume-every-pass execution.  A costatement
    that cannot make the promise keeps yielding bare/numeric values and
    simply forfeits the fast-forward -- slower, never wrong.

    A token from :func:`idle_on` also names its *wait objects*: anything
    with an integer ``changes`` counter that only grows.  It records the
    counters' sum when it is made (the sum stands still exactly when
    every counter does), so it must be made at the yield, after every
    read of the wait.  It promises more: *resuming me is a no-op
    that yields an equal token (same deadline, same wait objects) as
    long as no named counter has moved and the clock is before my
    deadline* -- whatever else happened.  The big loop and
    :func:`indexed_cofunctions` then skip the resume itself and reuse
    the token (:meth:`holds`); the pass's accounting still runs.  The
    promise holds only if whoever changes what the wait reads bumps the
    counter: the wait must read nothing else but the clock.  A plain
    ``IDLE``/:func:`idle_until` token names nothing and keeps the weaker
    promise.  :func:`indexed_cofunctions` joins its instances' named
    tokens into one (``mark`` given, not read: see there).
    """

    __slots__ = ("deadline", "waits", "mark", "clock")

    def __init__(self, deadline: float | None = None, waits: tuple = (),
                 clock=None, mark: int | None = None):
        self.deadline = deadline
        self.waits = waits
        if mark is None:
            mark = 0
            for wait in waits:
                mark += wait.changes
        self.mark = mark
        self.clock = clock

    def holds(self) -> bool:
        """True while resuming the waiter would be a no-op: no named
        counter has moved and the clock is before the deadline."""
        deadline = self.deadline
        if deadline is not None and self.clock.now >= deadline:
            return False
        mark = 0
        for wait in self.waits:
            mark += wait.changes
        return mark == self.mark

    def __repr__(self) -> str:
        if self.waits:
            return f"idle_on({self.waits!r}, deadline={self.deadline!r})"
        if self.deadline is None:
            return "IDLE"
        return f"idle_until({self.deadline!r})"


#: The shared no-deadline token: "nothing to do until some event runs".
IDLE = _IdleToken()


def idle_until(deadline: float) -> _IdleToken:
    """An idle declaration bounded by a deadline: resuming this
    costatement in a pass that starts at sim time < ``deadline`` (with
    no events in between) is a no-op; at or past it, the costatement
    must run (its timeout path fires)."""
    return _IdleToken(deadline)


def idle_on(waits: tuple, clock, deadline: float | None = None) -> _IdleToken:
    """An idle declaration that names what it waits on: resuming this
    costatement is a no-op until one of ``waits``' ``changes`` counters
    moves or ``clock.now`` reaches ``deadline`` (see :class:`_IdleToken`).
    Make it at the yield: it reads the counters now."""
    return _IdleToken(deadline, waits, clock)


class CostateError(RuntimeError):
    """Raised on scheduler misuse."""


class Costate:
    """One costatement: a generator with Dynamic C-style lifecycle."""

    def __init__(self, gen: Generator, name: str = ""):
        self.gen = gen
        self.name = name or getattr(gen, "__name__", "costate")
        self.done = False
        self.passes = 0
        # Slice bookkeeping, kept even without a tracer so the scheduler
        # can say *which* costatement starved when a run times out.
        self.last_ran_at: float | None = None
        self.total_busy_s = 0.0
        #: The last token yielded, while it names wait objects.
        self.waiting: _IdleToken | None = None

    def abort(self) -> None:
        """Dynamic C ``abort``: kill the costatement."""
        if not self.done:
            self.gen.close()
            self.done = True

    def __repr__(self) -> str:
        state = "done" if self.done else "active"
        return f"Costate({self.name!r}, {state}, passes={self.passes})"


def waitfor(predicate: Callable[[], bool]):
    """``waitfor(expr)`` == ``while (!expr) yield;``.

    Use as ``yield from waitfor(lambda: sock_established(s))``.
    """
    while not predicate():
        yield


def indexed_cofunctions(gens: list[Generator | None]) -> Generator:
    """Dynamic C's indexed cofunction (``cofunc void handler[N]``) as
    one costatement body: ``for (i = 0; i < N; i++) handler[i]();``.

    ``gens`` is read live, not copied: each resume advances every
    generator in it once, in index order, skips ``None`` entries (idle
    instances) and sets a finished generator's entry to ``None``.  A
    generator may fill a ``None`` entry during a pass; one at a later
    index then runs in that same pass.  The pass yields the sum of the
    numeric yields (starting from 0.0, in index order), so the big loop
    charges exactly what the generators ground through -- unless every
    generator yielded an idle token, in which case it yields one token
    carrying the earliest deadline.

    An instance whose last token names wait objects and still
    :meth:`~_IdleToken.holds` is not resumed: the token stands in for
    its yield.  ``waiting`` keeps that token by index, with the
    generator that yielded it, so a refilled entry is always resumed.

    When every live instance's token names wait objects, the pool's
    token names them too: its ``waits`` joins the instances' ``waits``
    in index order (a wait two instances name is named twice), and its
    ``mark`` is the sum of the marks they recorded -- not a fresh read,
    so a counter that moved after its waiter yielded, later in the same
    pass, already fails it.  It holds exactly while every instance's
    token does, so the big loop may skip resuming the pool, which would
    only reuse those tokens.  That needs one rule of the caller:
    entries of ``gens`` are filled only during the pool's own resume
    (by an instance), never from outside it.  Otherwise -- an instance
    yielded a plain :data:`IDLE`/:func:`idle_until`, or every entry is
    ``None`` -- the token names nothing (:data:`IDLE` when no instance
    has a deadline).
    """
    waiting = {}
    while True:
        busy = 0.0
        idle = True
        deadline = None
        # The joined waits and recorded marks of this pass's tokens,
        # while every one of them names its waits (None once one does not).
        waits, mark, clock = (), 0, None
        for index, gen in enumerate(gens):
            if gen is None:
                continue
            parked = waiting.get(index)
            if parked is not None and parked[0] is gen and parked[1].holds():
                yielded = parked[1]
            else:
                try:
                    yielded = next(gen)
                except StopIteration:
                    gens[index] = None
                    continue
                if type(yielded) is _IdleToken and yielded.waits:
                    waiting[index] = (gen, yielded)
                elif parked is not None:
                    del waiting[index]
            if type(yielded) is _IdleToken:
                d = yielded.deadline
                if d is not None and (deadline is None or d < deadline):
                    deadline = d
                if waits is not None:
                    if yielded.waits:
                        waits += yielded.waits
                        mark += yielded.mark
                        clock = yielded.clock
                    else:
                        waits = None
                continue
            idle = False
            if isinstance(yielded, (int, float)):
                busy += yielded
        if not idle:
            yield busy
        elif waits:
            yield _IdleToken(deadline, waits, clock, mark)
        else:
            yield IDLE if deadline is None else idle_until(deadline)


class CostateScheduler:
    """The big loop: round-robin over costatements, forever."""

    def __init__(self, sim: Simulator,
                 pass_overhead_s: float = DEFAULT_PASS_OVERHEAD_S,
                 name: str = "bigloop"):
        self.sim = sim
        self.pass_overhead_s = pass_overhead_s
        self.name = name
        self._costates: list[Costate] = []
        self._process = None
        self.passes = 0
        self.running = False
        self.obs = sim.obs
        self._ctr_passes = self.obs.metrics.counter(f"costate.{name}.passes")
        self._gap_histogram = self.obs.metrics.histogram(
            "costate.gap_s", GAP_BUCKETS
        )
        #: Iteration snapshot of ``_costates``; rebuilt after add().
        #: Replaces the per-pass ``list(...)`` copy -- additions only
        #: take effect on the next pass either way.
        self._snapshot: tuple[Costate, ...] | None = None

    def add(self, gen: Generator, name: str = "") -> Costate:
        """Register a one-shot costatement (runs to completion once)."""
        costate = Costate(gen, name)
        self._costates.append(costate)
        self._snapshot = None
        return costate

    def start(self):
        """Spawn the big loop on the simulator; returns the process."""
        if self.running:
            raise CostateError("scheduler already started")
        self.running = True
        self._process = self.sim.spawn(self._big_loop(), name=self.name)
        return self._process

    def stop(self) -> None:
        self.running = False

    def _big_loop(self):
        # The hottest loop in the network experiments: every pass walks
        # every live costatement, resuming it unless its named-wait token
        # still holds, so the costate step is written inline and the
        # per-pass invariants (sim.now, the overhead, the gap
        # histogram's bound method) are hoisted out of the costate loop.
        tracer = self.obs.tracer
        sim = self.sim
        queue = sim._queue
        observe_gap = self._gap_histogram.observe
        inc_passes = self._ctr_passes.inc
        overhead = self.pass_overhead_s
        # Cadence-gated telemetry: one cumulative-passes sample every
        # 16 trips, hoisted to a bound method (None when disabled).
        telemetry = self.obs.telemetry
        sample_passes = (
            telemetry.series(f"costate.{self.name}.passes").record_at
            if telemetry.enabled else None
        )
        while self.running:
            self.passes += 1
            inc_passes()
            if sample_passes is not None and not (self.passes & 15):
                sample_passes(sim.now, float(self.passes))
            busy = 0.0
            ran = 0
            idle = 0
            idle_deadline = None
            snapshot = self._snapshot
            if snapshot is None:
                snapshot = self._snapshot = tuple(self._costates)
            base = sim.now + overhead
            for costate in snapshot:
                if costate.done:
                    continue
                # Reconstruct where this slice sits on the board's
                # timeline: the simulator charges the whole pass in one
                # lump at the trailing yield, but on hardware the slices
                # run back to back after the loop overhead.
                slice_start = base + busy
                if costate.last_ran_at is not None:
                    observe_gap(slice_start - costate.last_ran_at)
                costate.last_ran_at = slice_start
                # Advance to the next yield, one pass (the done case is
                # handled above) -- or, while the token it last yielded
                # names wait objects and still holds, reuse that token:
                # the resume would yield an equal one and change nothing.
                costate.passes += 1
                ran += 1
                waiting = costate.waiting
                if waiting is not None and waiting.holds():
                    yielded = waiting
                else:
                    try:
                        yielded = next(costate.gen)
                    except StopIteration:
                        costate.done = True
                        continue
                    costate.waiting = (
                        yielded if type(yielded) is _IdleToken
                        and yielded.waits else None)
                if type(yielded) is _IdleToken:
                    # A declared event-wait: resuming this costatement
                    # is a no-op until the next simulator event (or its
                    # deadline, whichever comes first).
                    idle += 1
                    d = yielded.deadline
                    if d is not None and (
                            idle_deadline is None or d < idle_deadline):
                        idle_deadline = d
                elif isinstance(yielded, (int, float)):
                    step_busy = float(yielded)
                    if step_busy != 0.0:
                        costate.total_busy_s += step_busy
                        busy += step_busy
                    if step_busy > 0:
                        # Idle polling slices are counted, not traced;
                        # busy slices are what starves the others.
                        tracer.add_complete(
                            f"costate.{costate.name}", slice_start,
                            slice_start + step_busy, cat=CAT_COSTATE,
                            tid=self.name, run=costate.passes,
                        )
            # One trip around the for(;;) loop costs real time, plus
            # whatever blocking computation the costatements performed.
            # Fast-forward: yielding here schedules a wake-up at
            # ``wake``; if no queued event precedes it (strict -- an
            # equal-time event was enqueued first and must run first)
            # and it stays inside the driver's run bound, the simulator
            # round trip would pop exactly the event we are about to
            # push.  Advance the clock in place and run the next pass.
            # An empty queue is an event at infinity, but only under a
            # finite run bound: an unbounded run still yields every pass
            # so deadlock detection in the drive loops keeps working.
            wake = sim.now + overhead + busy
            bound = sim._run_until
            next_event = (queue[0][0] if queue
                          else math.inf if bound is not None else None)
            if next_event is not None and wake < next_event and (
                    bound is None or wake <= bound):
                sim.now = wake
                if idle and idle == ran and busy == 0.0 and self._skip_idle(
                        snapshot, idle_deadline, next_event, bound,
                        sample_passes):
                    yield overhead
                continue
            yield overhead + busy

    def _skip_idle(self, snapshot, idle_deadline, next_event, run_bound,
                   sample_passes) -> bool:
        """Fast-forward the passes after an all-idle one, in closed form.

        Every live costatement declared the pass that just ended a pure
        event-wait, so every following pass is a no-op until the next
        queued event pops or the earliest idle deadline arrives -- and
        neither can happen while this process does not yield.  Those
        passes are not run; their accounting is computed instead, bit
        for bit as the pass-by-pass loop would leave it.  The clock
        ``T = T + overhead`` advances through stretches of constant step
        ``d`` (:func:`~repro.floatsum.stretch`), so every gap in a
        stretch is ``d`` (each live costatement's slice started at
        ``base == sim.now`` in the pass that qualified).  Returns True
        when the last skipped pass is the one that really yields: its
        wake-up reaches the next event or leaves the run bound.
        Otherwise the next pass starts at or past the idle deadline and
        must run live.
        """
        sim = self.sim
        overhead = self.pass_overhead_s
        live = [c for c in snapshot if not c.done]
        observe_gap = self._gap_histogram.observe
        passes = self.passes
        start = sim.now
        while True:
            d, m = stretch(start, overhead)
            # Pass j of this stretch starts at start + (j-1)*d and
            # would wake at start + j*d.  It does not run if it starts
            # at or past the idle deadline; it runs and then yields for
            # real if its wake-up reaches the next event or passes the
            # run bound.  Every stretch starts at a wake-up that passed
            # those two checks, so ``wakes >= 1``.
            stop = (m + 1 if idle_deadline is None
                    else first_at(start, d, idle_deadline, False, m))
            wakes = first_at(start, d, next_event, False, m)
            if run_bound is not None:
                wakes = min(wakes, first_at(start, d, run_bound, True, m))
            n = min(m, stop, wakes)
            if n == FOREVER:
                raise CostateError(
                    f"pass overhead {overhead!r}s no longer advances the "
                    f"clock at t={start!r}"
                )
            if n:
                observe_gap(d, n * len(live))
                if sample_passes is not None:
                    # The every-16th-pass sample, taken at pass start.
                    for p in range((passes | 15) + 1, passes + n + 1, 16):
                        sample_passes(start + (p - passes - 1) * d, float(p))
                passes += n
            if n == wakes or n == stop:
                break
            start += m * d
        skipped = passes - self.passes
        self.passes = passes
        self._ctr_passes.inc(skipped)
        last = start + n * d
        for costate in live:
            costate.last_ran_at = last
            costate.passes += skipped
        if n == wakes:
            sim.now = last - d
            return True
        sim.now = last
        return False

    @property
    def costate_names(self) -> list[str]:
        """Names of the registered costatements, in big-loop order."""
        return [costate.name for costate in self._costates]

    @property
    def all_done(self) -> bool:
        return all(costate.done for costate in self._costates)

    def run_until_all_done(self, timeout: float = 60.0) -> None:
        """Convenience for tests: start (if needed) and run the sim until
        every one-shot costatement finishes.

        ``timeout`` bounds *simulated* seconds.  On expiry the error
        names the starved costatement, derived from the same slice
        bookkeeping the tracer's spans come from.
        """
        if not self.running:
            self.start()
        deadline = self.sim.now + timeout
        while not self.all_done:
            if self.sim.now >= deadline:
                raise CostateError(self._starvation_report("timeout"))
            if not self.sim.pending_events:
                raise CostateError(self._starvation_report("deadlock"))
            self.sim.run(until=min(deadline, self.sim.now + 0.05))
        self.stop()

    def _starvation_report(self, reason: str) -> str:
        """Who is stuck, and who got the least CPU while we waited."""
        stuck = [c for c in self._costates if not c.done]
        parts = []
        for c in stuck:
            last = ("never ran" if c.last_ran_at is None
                    else f"last ran t={c.last_ran_at:.6g}")
            parts.append(
                f"{c.name}(passes={c.passes}, "
                f"busy={c.total_busy_s:.6g}s, {last})"
            )
        details = ", ".join(parts) or "(none)"
        message = (
            f"costates not done by t={self.sim.now:.6g} after "
            f"{self.passes} passes ({reason}): {details}"
        )
        if stuck:
            starved = min(stuck, key=lambda c: (c.total_busy_s, c.passes))
            message += (
                f"; most starved: {starved.name!r} "
                f"(busy {starved.total_busy_s:.6g}s over {starved.passes} "
                "passes)"
            )
        # Attach the flight-recorder tail: the last events before the
        # budget ran out usually name the wedged state machine directly.
        recorder = self.obs.recorder
        if recorder.enabled:
            recorder.error("costate", self.name, f"run aborted: {reason}")
            tail = recorder.tail_lines()
            if tail:
                message += "\nflight recorder (most recent last):\n"
                message += "\n".join(tail)
        return message
