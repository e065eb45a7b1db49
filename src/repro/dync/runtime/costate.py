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
their "callable costatement" semantics.
"""

from __future__ import annotations

from typing import Callable, Generator

from repro.floatsum import FOREVER, first_at, runs
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
    """

    __slots__ = ("deadline",)

    def __init__(self, deadline: float | None = None):
        self.deadline = deadline

    def __repr__(self) -> str:
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


class CostateError(RuntimeError):
    """Raised on scheduler misuse."""


class Costate:
    """One costatement: a generator with Dynamic C-style lifecycle."""

    #: How many connection slots this costatement represents.  A plain
    #: costatement is one; a pooled costatement (see
    #: :class:`IndexedCofunctionPool`) reports its configured capacity,
    #: mirroring how dclint's DC003 counts the indexed-cofunction idiom.
    slot_capacity = 1

    def __init__(self, gen: Generator, name: str = ""):
        self.gen = gen
        self.name = name or getattr(gen, "__name__", "costate")
        self.done = False
        self.passes = 0
        # Slice bookkeeping, kept even without a tracer so the scheduler
        # can say *which* costatement starved when a run times out.
        self.last_ran_at: float | None = None
        self.total_busy_s = 0.0

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


def wait_delay(scheduler: "CostateScheduler", seconds: float):
    """``waitfor(DelaySec(n))``: park this costatement for sim time."""
    deadline = scheduler.sim.now + seconds
    token = _IdleToken(deadline)
    while scheduler.sim.now < deadline:
        yield token


class CofunctionSlot:
    """One indexed-cofunction instance inside a pooled costatement.

    Dynamic C's indexed cofunctions give one costatement body N
    program counters (``cofunc void handler[NSLOTS](...)``); each slot
    here owns one generator and the same lifecycle bookkeeping a
    :class:`Costate` keeps.  ``busy`` is a service-level occupancy flag
    (a slot mid-connection); the runtime never sets it, only reports it.
    """

    __slots__ = ("index", "name", "gen", "done", "busy", "passes",
                 "total_busy_s", "last_idle")

    def __init__(self, index: int, gen: Generator | None, name: str = ""):
        self.index = index
        self.name = name or f"slot{index + 1}"
        self.gen = gen
        self.done = False
        self.busy = False
        self.passes = 0
        self.total_busy_s = 0.0
        #: The :class:`_IdleToken` this slot yielded on its most recent
        #: step, or ``None`` when the step was bare/numeric (not a
        #: declared event-wait).  Pool drivers aggregate it so a fully
        #: idle sweep can surface as one pool-level idle declaration.
        self.last_idle: _IdleToken | None = None

    def bind(self, gen: Generator) -> None:
        """Attach the slot body; lets builders create the slot first so
        the body can close over its own handle (occupancy marking)."""
        self.gen = gen

    def step(self) -> float:
        """Advance this slot to its next yield; returns CPU-busy seconds."""
        if self.done or self.gen is None:
            return 0.0
        self.passes += 1
        self.last_idle = None
        try:
            yielded = next(self.gen)
        except StopIteration:
            self.done = True
            return 0.0
        if type(yielded) is _IdleToken:
            self.last_idle = yielded
            return 0.0
        if isinstance(yielded, (int, float)):
            busy = float(yielded)
            self.total_busy_s += busy
            return busy
        return 0.0

    def __repr__(self) -> str:
        state = "done" if self.done else ("busy" if self.busy else "idle")
        return f"CofunctionSlot({self.name!r}, {state}, passes={self.passes})"


class IndexedCofunctionPool:
    """A pooled costatement: ``for (slot = 0; slot < NSLOTS; slot++)``.

    The Dynamic C idiom dclint DC003 counts by trip count -- one
    constant-bound loop with a scheduling point whose body indexes
    per-slot state -- modelled as N slot generators advanced in fixed
    index order inside a single costatement slice.  The capacity is set
    at build time (``add_slot`` calls) and reported through the owning
    :class:`Costate`'s ``slot_capacity``, so the scheduler's slot
    census matches what the lint sees in the firmware source.
    """

    def __init__(self, name: str = "slot-pool"):
        self.name = name
        self._slots: list[CofunctionSlot] = []

    def add_slot(self, gen: Generator | None = None,
                 name: str = "") -> CofunctionSlot:
        slot = CofunctionSlot(len(self._slots), gen, name)
        self._slots.append(slot)
        return slot

    @property
    def slots(self) -> tuple:
        return tuple(self._slots)

    @property
    def slot_capacity(self) -> int:
        return len(self._slots)

    @property
    def occupied(self) -> int:
        """Slots currently mid-connection (service-marked ``busy``)."""
        return sum(1 for slot in self._slots if slot.busy)

    def step_all(self) -> float:
        """One trip through the indexed loop: every live slot advances
        once, in index order; returns the summed CPU-busy seconds so
        the owning costatement charges the big loop exactly what the
        slots ground through."""
        busy = 0.0
        for slot in self._slots:
            if not slot.done:
                busy += slot.step()
        return busy

    def sweep_yield(self, busy: float, extra_idle: bool = True):
        """What the pooled costatement should yield after a sweep that
        ground ``busy`` seconds: the summed busy time, unless every live
        slot declared idle (and ``extra_idle`` covers any interleaved
        per-pass work), in which case one pool-level idle token carrying
        the earliest slot deadline.  A pool whose slots are all done is
        idle by definition -- stepping it is a no-op forever."""
        if busy != 0.0 or not extra_idle:
            return busy
        deadline = None
        for slot in self._slots:
            if slot.done:
                continue
            token = slot.last_idle
            if token is None:
                return busy
            d = token.deadline
            if d is not None and (deadline is None or d < deadline):
                deadline = d
        return IDLE if deadline is None else _IdleToken(deadline)

    def driver(self) -> Generator:
        """The pooled costatement body: loop the slots forever."""
        while True:
            yield self.sweep_yield(self.step_all())


class CostateScheduler:
    """The big loop: round-robin over costatements, forever.

    ``restart_done`` mirrors the default Dynamic C behaviour in which a
    completed ``costate`` block simply runs again on the next pass; pass
    a factory instead of a generator to enable it per costatement.
    """

    def __init__(self, sim: Simulator,
                 pass_overhead_s: float = DEFAULT_PASS_OVERHEAD_S,
                 name: str = "bigloop"):
        self.sim = sim
        self.pass_overhead_s = pass_overhead_s
        self.name = name
        self._costates: list[Costate] = []
        self._factories: dict[Costate, Callable[[], Generator]] = {}
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

    def add_restarting(self, factory: Callable[[], Generator],
                       name: str = "") -> Costate:
        """Register a costatement that restarts after completing."""
        costate = Costate(factory(), name or factory.__name__)
        self._costates.append(costate)
        self._factories[costate] = factory
        self._snapshot = None
        return costate

    def add_pool(self, pool: IndexedCofunctionPool, name: str = "",
                 driver: Generator | None = None) -> Costate:
        """Register a pooled costatement (indexed cofunction slots).

        The pool runs as ONE costatement in the big loop -- its slots
        share the slice, exactly like the indexed-cofunction loop they
        model -- but the returned :class:`Costate` reports the pool's
        configured capacity via ``slot_capacity``.  ``driver`` overrides
        the default :meth:`IndexedCofunctionPool.driver` body for
        builders that interleave per-pass work (admission control) with
        the slot sweep.
        """
        costate = Costate(driver if driver is not None else pool.driver(),
                          name or pool.name)
        costate.slot_capacity = pool.slot_capacity
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
        # The hottest loop in the network experiments (every idle
        # costatement is polled every pass), so the costate step is
        # written inline and the per-pass invariants (sim.now, the
        # overhead, the gap histogram's bound method) are hoisted out of
        # the costate loop.
        tracer = self.obs.tracer
        sim = self.sim
        queue = sim._queue
        factories = self._factories
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
                    factory = factories.get(costate)
                    if factory is not None:
                        costate.gen = factory()
                        costate.done = False
                    else:
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
                # handled above).
                costate.passes += 1
                ran += 1
                try:
                    yielded = next(costate.gen)
                except StopIteration:
                    costate.done = True
                    continue
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
            # An empty queue still yields so deadlock detection in the
            # drive loops keeps working.
            wake = sim.now + overhead + busy
            bound = sim._run_until
            if queue and wake < queue[0][0] and (
                    bound is None or wake <= bound):
                sim.now = wake
                if idle and idle == ran and busy == 0.0 and self._skip_idle(
                        snapshot, idle_deadline, queue[0][0], bound,
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
        ``T = T + overhead`` advances through :func:`runs` stretches of
        constant step ``d``, so every gap in a stretch is ``d`` (each
        live costatement's slice started at ``base == sim.now`` in the
        pass that qualified).  Returns True when the last skipped pass
        is the one that really yields: its wake-up reaches the next
        event or leaves the run bound.  Otherwise the next pass starts
        at or past the idle deadline and must run live.
        """
        sim = self.sim
        overhead = self.pass_overhead_s
        live = [c for c in snapshot if not c.done]
        observe_gap = self._gap_histogram.observe
        passes = self.passes
        for start, d, m in runs(sim.now, overhead):
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
    def costate_count(self) -> int:
        """Figure 3's static concurrency number: costatements in the loop."""
        return len(self._costates)

    @property
    def connection_slot_count(self) -> int:
        """Connection capacity including pooled costatements: each plain
        costatement counts one, a pooled costatement its configured
        capacity -- the runtime mirror of dclint DC003's census."""
        return sum(costate.slot_capacity for costate in self._costates)

    @property
    def all_done(self) -> bool:
        return all(
            costate.done and costate not in self._factories
            for costate in self._costates
        )

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
