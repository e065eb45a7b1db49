"""A µC/OS-II-flavoured priority scheduler (paper, Section 4.2).

"Dynamic C provides ... preemptive multitasking through either the
slice statement or a port of Labrosse's µC/OS-II real-time operating
system.  ... We did not use µC/OS-II."

The port didn't, but the runtime offered it, so the reproduction does
too: a strict-priority preemptive kernel in the µC/OS-II style —
unique priorities (lower number = more urgent), the highest-priority
ready task always runs, and ``OSTimeDly`` tick delays.

Tasks are generators; their yields are the preemption points (the
simulation analogue of µC/OS-II's timer-interrupt preemption):

    yield                 -> still runnable; scheduler may switch if a
                             higher-priority task became ready
    yield ("dly", ticks)  -> OSTimeDly: sleep that many ticks
"""

from __future__ import annotations

from typing import Generator

from repro.net.sim import Simulator

#: µC/OS-II's classic tick rate neighbourhood.
DEFAULT_TICK_S = 1e-3

#: Lowest (numerically highest) priority allowed, like OS_LOWEST_PRIO.
LOWEST_PRIO = 63


class UcosError(RuntimeError):
    """Kernel misuse: duplicate priorities, bad yields..."""


class Task:
    """One µC/OS-II task: a generator with a unique priority."""

    def __init__(self, gen: Generator, priority: int, name: str = ""):
        self.gen = gen
        self.priority = priority
        self.name = name or getattr(gen, "__name__", f"task{priority}")
        self.state = "ready"      # ready | delayed | done
        self.wake_at_tick = 0
        self.steps = 0
        self.preempted = 0

    def __repr__(self) -> str:
        return f"Task({self.name!r}, prio={self.priority}, {self.state})"


class MicroCos:
    """The kernel: strict-priority preemptive scheduling over sim time."""

    def __init__(self, sim: Simulator, tick_s: float = DEFAULT_TICK_S,
                 steps_per_tick: int = 10):
        self.sim = sim
        self.tick_s = tick_s
        self.steps_per_tick = max(1, steps_per_tick)
        self._tasks: dict[int, Task] = {}
        self.ticks = 0
        self.context_switches = 0
        self.running = False
        self._current: Task | None = None

    # -- API --------------------------------------------------------------
    def task_create(self, gen: Generator, priority: int,
                    name: str = "") -> Task:
        """OSTaskCreate: unique priority per task, like the real kernel."""
        if not 0 <= priority <= LOWEST_PRIO:
            raise UcosError(f"priority {priority} out of range")
        if priority in self._tasks:
            raise UcosError(f"priority {priority} already in use")
        task = Task(gen, priority, name)
        self._tasks[priority] = task
        return task

    def start(self):
        """OSStart: spawn the kernel loop on the simulator."""
        if self.running:
            raise UcosError("kernel already started")
        self.running = True
        return self.sim.spawn(self._loop(), name="ucos")

    def stop(self) -> None:
        self.running = False

    @property
    def all_done(self) -> bool:
        return all(task.state == "done" for task in self._tasks.values())

    # -- scheduling --------------------------------------------------------
    def _ready_task(self) -> Task | None:
        ready = [task for task in self._tasks.values()
                 if task.state == "ready"]
        if not ready:
            return None
        return min(ready, key=lambda task: task.priority)

    def _advance_clock(self) -> None:
        self.ticks += 1
        for task in self._tasks.values():
            if task.state == "delayed" and task.wake_at_tick <= self.ticks:
                task.state = "ready"

    def _loop(self):
        while self.running and not self.all_done:
            task = self._ready_task()
            if task is None:
                # Idle: burn one tick waiting for delays to expire.
                yield self.tick_s
                self._advance_clock()
                continue
            if task is not self._current:
                self.context_switches += 1
                if self._current is not None \
                        and self._current.state == "ready":
                    self._current.preempted += 1
                self._current = task
            # Run up to steps_per_tick generator steps, then a tick passes.
            for _ in range(self.steps_per_tick):
                if task.state != "ready":
                    break
                try:
                    yielded = task.gen.send(None)
                except StopIteration:
                    task.state = "done"
                    break
                task.steps += 1
                if yielded is None:
                    # Preemption check: a higher-priority task may have
                    # become ready (one this task created).
                    better = self._ready_task()
                    if better is not None and better is not task:
                        break
                    continue
                kind = yielded[0]
                if kind == "dly":
                    ticks = int(yielded[1])
                    if ticks <= 0:
                        raise UcosError("OSTimeDly needs positive ticks")
                    task.state = "delayed"
                    task.wake_at_tick = self.ticks + ticks
                else:
                    raise UcosError(f"bad task yield {yielded!r}")
                break
            yield self.tick_s
            self._advance_clock()
        self.running = False

    def run_until_all_done(self, timeout: float = 120.0) -> None:
        if not self.running:
            self.start()
        deadline = self.sim.now + timeout
        while not self.all_done:
            if self.sim.now >= deadline or not self.sim.pending_events:
                raise UcosError(
                    f"tasks not done by t={self.sim.now}: "
                    f"{[t for t in self._tasks.values() if t.state != 'done']}"
                )
            self.sim.run(until=min(deadline, self.sim.now + 0.1))
