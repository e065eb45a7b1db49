"""Unix process model: fork, exit and signals.

The original issl service leans on ``fork`` for its connection-per-child
structure and on ``signal`` for its control channel, and the paper calls
out both as unavailable on the RMC2000.  This module supplies them for
the simulated Unix host.

**Deviation from real fork** (recorded in DESIGN.md): Python generators
cannot be cloned mid-execution, so ``fork`` takes the child's entry
generator explicitly -- ``kernel.fork(child_main(fd))`` -- rather than
duplicating the caller.  The paper's call shape

    if ((childpid = fork()) == 0) { handle(accept_fd); exit(0); }

becomes ``child = kernel.fork(handle(accept_fd))``; the parent continues
in both versions, and that structural property (parent loops on accept
while children serve) is what the experiments depend on.
"""

from __future__ import annotations

import enum
from typing import Callable, Generator

from repro.net.sim import Process, Simulator


class Signal(enum.IntEnum):
    SIGHUP = 1
    SIGINT = 2
    SIGKILL = 9
    SIGUSR1 = 10
    SIGTERM = 15
    SIGCHLD = 17


class ProcessState(enum.Enum):
    RUNNING = "running"
    ZOMBIE = "zombie"


class UnixProcess:
    """A PCB: pid, parent, exit status, signal dispositions."""

    def __init__(self, kernel: "UnixKernel", pid: int, ppid: int,
                 proc: Process, name: str):
        self.kernel = kernel
        self.pid = pid
        self.ppid = ppid
        self.proc = proc
        self.name = name
        self.state = ProcessState.RUNNING
        self.exit_status: int | None = None
        self.handlers: dict[Signal, Callable[[Signal], None]] = {}

    def signal(self, signum: Signal, handler: Callable[[Signal], None]) -> None:
        """Install a handler, like ``signal(2)``."""
        self.handlers[signum] = handler

    def deliver(self, signum: Signal) -> None:
        if self.state != ProcessState.RUNNING:
            return
        handler = self.handlers.get(signum)
        if handler is not None:
            handler(signum)
        elif signum in (Signal.SIGKILL, Signal.SIGTERM, Signal.SIGINT,
                        Signal.SIGHUP):
            self.kernel._terminate(self, status=128 + int(signum))
        # Default action for the rest: ignore.

    def __repr__(self) -> str:
        return f"UnixProcess(pid={self.pid}, {self.name!r}, {self.state.value})"


class UnixKernel:
    """Process table + scheduler glue for one simulated Unix host."""

    def __init__(self, sim: Simulator):
        self.sim = sim
        self._table: dict[int, UnixProcess] = {}
        self._next_pid = 1
        self.forks = 0

    # -- lifecycle ------------------------------------------------------
    def spawn(self, gen: Generator, name: str = "init",
              ppid: int = 0) -> UnixProcess:
        pid = self._next_pid
        self._next_pid += 1
        wrapper = self._run(gen, pid)
        proc = self.sim.spawn(wrapper, name=f"pid{pid}:{name}")
        unix_proc = UnixProcess(self, pid, ppid, proc, name)
        self._table[pid] = unix_proc
        return unix_proc

    def fork(self, child_gen: Generator, parent: UnixProcess | None = None,
             name: str = "child") -> UnixProcess:
        """Create a child process running ``child_gen`` (see module doc)."""
        self.forks += 1
        ppid = parent.pid if parent is not None else 0
        return self.spawn(child_gen, name=name, ppid=ppid)

    def _run(self, gen: Generator, pid: int):
        try:
            result = yield from gen
        except _ExitProcess as exit_exc:
            result = exit_exc.status
        self._finish(pid, result if isinstance(result, int) else 0)
        return result

    def _finish(self, pid: int, status: int) -> None:
        unix_proc = self._table.get(pid)
        if unix_proc is None or unix_proc.state != ProcessState.RUNNING:
            return
        unix_proc.state = ProcessState.ZOMBIE
        unix_proc.exit_status = status
        parent = self._table.get(unix_proc.ppid)
        if parent is not None:
            parent.deliver(Signal.SIGCHLD)

    def _terminate(self, unix_proc: UnixProcess, status: int) -> None:
        unix_proc.proc.kill()
        unix_proc.state = ProcessState.ZOMBIE
        unix_proc.exit_status = status

    # -- syscalls --------------------------------------------------------
    def kill(self, pid: int, signum: Signal) -> bool:
        """Deliver a signal; returns False if no such process."""
        unix_proc = self._table.get(pid)
        if unix_proc is None:
            return False
        unix_proc.deliver(signum)
        return True

    def process(self, pid: int) -> UnixProcess | None:
        return self._table.get(pid)

    @property
    def running(self) -> list[UnixProcess]:
        return [p for p in self._table.values() if p.state == ProcessState.RUNNING]


class _ExitProcess(Exception):
    def __init__(self, status: int):
        super().__init__(status)
        self.status = status


def exit_process(status: int = 0):
    """``exit(2)``: terminate the calling simulated process."""
    raise _ExitProcess(status)
