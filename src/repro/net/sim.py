"""Discrete-event simulation kernel (DESIGN.md S1).

Everything that "runs" in this reproduction -- Unix processes, the
RMC2000 board's firmware loop, TCP timers, links -- executes on one of
these simulators.  Processes are Python generators that yield:

* a number: sleep that many simulated seconds,
* an :class:`Event`: park until it is triggered,
* ``None``: yield the CPU and resume in the same instant (after other
  ready events), which is exactly the semantics of Dynamic C's
  ``yield`` inside a costatement.

The kernel is deliberately deterministic: same program, same event
ordering, every run.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Generator


class SimulationError(RuntimeError):
    """Raised for kernel misuse (bad yield values, dead simulator...)."""


class Event:
    """A triggerable rendezvous point.

    Processes wait on an event by yielding it; :meth:`trigger` wakes all
    current waiters and delivers ``value`` as the result of their yield.
    Events may be triggered repeatedly; each trigger releases only the
    processes waiting at that moment.
    """

    __slots__ = ("_sim", "_waiters", "name")

    def __init__(self, sim: "Simulator", name: str = ""):
        self._sim = sim
        self._waiters: list[Process] = []
        self.name = name

    def trigger(self, value: Any = None) -> int:
        """Wake all waiters; returns how many were woken."""
        waiters = self._waiters
        if not waiters:
            return 0
        self._waiters = []
        # Pushes the (now, seq, fn, args) entry call_soon would, without
        # its past check: ``now`` is never in the past.
        sim = self._sim
        for process in waiters:
            sim._seq += 1
            heapq.heappush(
                sim._queue, (sim.now, sim._seq, process.step, (value,))
            )
        return len(waiters)

    def _add_waiter(self, process: "Process") -> None:
        self._waiters.append(process)

    def __repr__(self) -> str:
        return f"Event({self.name!r}, waiters={len(self._waiters)})"


class Process:
    """A generator scheduled on a :class:`Simulator`."""

    __slots__ = ("_sim", "_gen", "name", "alive", "result", "done_event")

    def __init__(self, sim: "Simulator", gen: Generator, name: str = ""):
        self._sim = sim
        self._gen = gen
        self.name = name or getattr(gen, "__name__", "process")
        self.alive = True
        self.result: Any = None
        self.done_event = Event(sim, f"done:{self.name}")

    def step(self, wake_value: Any = None) -> None:
        """Advance the generator one step and reschedule per its yield."""
        if not self.alive:
            return
        try:
            yielded = self._gen.send(wake_value)
        except StopIteration as stop:
            self.alive = False
            self.result = stop.value
            self.done_event.trigger(stop.value)
            return
        # This dispatch runs once per simulated tick of every process,
        # so the two dominant yields (a sleep, a bare yield) take exact
        # class checks and push onto the heap directly -- the scheduled
        # tuple has the same (when, seq, fn, args) shape call_at builds,
        # and a non-negative sleep can never land in the past, which is
        # all call_at would have verified.  Numeric subclasses (bool,
        # IntEnum, ...) fall through to the original isinstance branch.
        cls = yielded.__class__
        sim = self._sim
        if cls is float or cls is int:
            if yielded < 0:
                self.kill(SimulationError(f"negative sleep: {yielded}"))
                return
            sim._seq += 1
            heapq.heappush(
                sim._queue, (sim.now + yielded, sim._seq, self.step, (None,))
            )
        elif yielded is None:
            sim._seq += 1
            heapq.heappush(
                sim._queue, (sim.now, sim._seq, self.step, (None,))
            )
        elif isinstance(yielded, Event):
            yielded._add_waiter(self)
        elif isinstance(yielded, (int, float)):
            if yielded < 0:
                self.kill(SimulationError(f"negative sleep: {yielded}"))
                return
            sim.call_after(yielded, self.step, None)
        else:
            self.kill(
                SimulationError(f"process yielded unsupported value {yielded!r}")
            )

    def kill(self, exc: BaseException | None = None) -> None:
        """Terminate the process, optionally raising ``exc`` inside it."""
        if not self.alive:
            return
        self.alive = False
        if exc is not None:
            self._sim.obs.recorder.error(
                "sim", self.name,
                f"process killed: {type(exc).__name__}: {exc}",
            )
            try:
                self._gen.throw(exc)
            except (StopIteration, type(exc)):
                pass
        else:
            self._gen.close()
        self.done_event.trigger(None)

    def __repr__(self) -> str:
        state = "alive" if self.alive else "done"
        return f"Process({self.name!r}, {state})"


class Simulator:
    """The event loop: a time-ordered queue of callbacks.

    ``obs`` is an optional :class:`repro.obs.Obs` handle; passing one
    binds its tracer to this simulator's clock and makes the handle
    reachable (``sim.obs``) by everything running on the simulation --
    TCP connections, schedulers, services -- without threading it
    through every constructor.  Default: the shared null handle.
    """

    def __init__(self, obs=None):
        self.now = 0.0
        self._queue: list[tuple[float, int, Callable, tuple]] = []
        self._seq = 0
        #: Upper bound of the drive loop currently executing (run's
        #: ``until``, run_until_complete's deadline), or None.  Lets a
        #: process that fast-forwards the clock in place (see
        #: CostateScheduler._big_loop) respect the driver's horizon.
        self._run_until: float | None = None
        if obs is None:
            from repro.obs import NULL_OBS
            obs = NULL_OBS
        else:
            obs.bind_clock(lambda: self.now)
        self.obs = obs
        #: Trace-context side channels (:class:`repro.obs.TraceContext`).
        #: TCP raises ``wire_trace_ctx`` for the synchronous instant a
        #: data frame is emitted; the link captures it and re-raises it
        #: as ``rx_trace_ctx`` around delivery on the receiving host --
        #: so causality crosses simulated hosts without widening the
        #: frame format.  Both are only ever set around synchronous
        #: call chains (no yields), never left raised across events.
        self.wire_trace_ctx = None
        self.rx_trace_ctx = None

    # -- scheduling -----------------------------------------------------
    def call_at(self, when: float, fn: Callable, *args) -> None:
        if when < self.now:
            raise SimulationError(f"cannot schedule in the past: {when} < {self.now}")
        self._seq += 1
        heapq.heappush(self._queue, (when, self._seq, fn, args))

    def call_after(self, delay: float, fn: Callable, *args) -> None:
        self.call_at(self.now + delay, fn, *args)

    def call_soon(self, fn: Callable, *args) -> None:
        self.call_at(self.now, fn, *args)

    def event(self, name: str = "") -> Event:
        return Event(self, name)

    def spawn(self, gen: Generator, name: str = "") -> Process:
        """Start a generator as a process; it runs from the current time."""
        process = Process(self, gen, name)
        self.call_soon(process.step, None)
        return process

    # -- execution ------------------------------------------------------
    def run(self, until: float | None = None, max_events: int = 10_000_000) -> int:
        """Drain the queue; returns the number of events executed.

        ``until`` bounds simulated time (events at exactly ``until`` still
        run); ``max_events`` guards against runaway loops.
        """
        executed = 0
        previous_bound = self._run_until
        self._run_until = until
        # Hoisted telemetry: one bound method when sampling is on, None
        # when it is not, so the per-event cost is a masked int test.
        telemetry = self.obs.telemetry
        sample_depth = (telemetry.series("sim.pending_events").record_at
                        if telemetry.enabled else None)
        queue = self._queue
        try:
            while queue:
                when, _seq, fn, args = queue[0]
                if until is not None and when > until:
                    self.now = until
                    break
                heapq.heappop(queue)
                self.now = when
                fn(*args)
                executed += 1
                if sample_depth is not None and not (executed & 63):
                    sample_depth(self.now, float(len(queue)))
                if executed >= max_events:
                    raise SimulationError(f"exceeded {max_events} events")
            else:
                if until is not None:
                    self.now = max(self.now, until)
        finally:
            self._run_until = previous_bound
        return executed

    def run_until_complete(self, process: Process,
                           timeout: float | None = None) -> Any:
        """Run until ``process`` finishes; returns its result.

        Raises :class:`SimulationError` if the queue drains or the
        timeout passes with the process still alive.
        """
        deadline = None if timeout is None else self.now + timeout
        previous_bound = self._run_until
        self._run_until = deadline
        telemetry = self.obs.telemetry
        sample_depth = (telemetry.series("sim.pending_events").record_at
                        if telemetry.enabled else None)
        executed = 0
        queue = self._queue
        try:
            while process.alive:
                if not queue:
                    raise SimulationError(
                        f"deadlock: {process!r} alive but no pending events"
                    )
                if deadline is not None and queue[0][0] > deadline:
                    raise SimulationError(f"timeout waiting for {process!r}")
                when, _seq, fn, args = heapq.heappop(queue)
                self.now = when
                fn(*args)
                executed += 1
                if sample_depth is not None and not (executed & 63):
                    sample_depth(self.now, float(len(queue)))
        finally:
            self._run_until = previous_bound
        return process.result

    @property
    def pending_events(self) -> int:
        return len(self._queue)


def sleep(duration: float):
    """Readable alias for a bare numeric yield inside processes."""
    yield duration
