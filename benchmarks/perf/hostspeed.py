"""Host-speed sampler: corrects pass times for how fast the host ran.

The benchmark's host is a VM on a shared machine.  When its neighbours
are busy the CPU runs identical work up to 2.7x slower, for seconds to
minutes at a time, and ``process_time`` slows with it, so no statistic
of raw times within one run can remove an episode longer than the run.
What the benchmark can do is measure the host while the workload runs:
the canary is a fixed piece of pure-Python work owned by the benchmark,
so its duration moves with the host and never with the program.

While a :class:`Sampler` is active, ``SIGALRM`` runs the canary every
:data:`PERIOD_S` seconds of wall time, between the program's bytecodes.
Each sample gives a speed, :data:`NOMINAL_S` over its duration.  Work
done is speed integrated over time, so a pass's time at reference speed
is its wall time (minus the canary's own) times the mean sampled speed.
"""

from __future__ import annotations

import signal
import time
from array import array

#: Canary steps: about 0.4 ms on the reference host.
CANARY_ROUNDS = 700
#: The canary's median duration, run back to back on the reference host
#: (a 2-vCPU Intel Xeon VM, CPython 3.11.7), so corrected times read
#: roughly as seconds on that host.  It only scales the corrected
#: times; any value would do.
NOMINAL_S = 0.00042
#: Seconds of wall time between canary samples.
PERIOD_S = 0.0125
#: Unsampled canary runs before the first sample.
WARMUP_RUNS = 2


class Canary:
    """Interpreter work shaped like the emulator's: a toy register file
    stepped through a table of bound methods, with slot attributes, list
    and dict reads and a little string formatting.

    The shape matters.  A tight arithmetic loop slows less than the
    program when the host is busy (it under-corrected slow passes by
    7%); this mix of opcodes tracks the program within about 2%.  Its
    state is allocated once, so a sample allocates nothing the
    program's garbage collector tracks.
    """

    __slots__ = ("a", "f", "pc", "memory", "ops", "names")

    def __init__(self):
        self.a = self.f = self.pc = 0
        self.memory = [0] * 1024
        self.ops = (self.add, self.xor, self.store, self.load, self.jump,
                    self.add, self.store, self.jump)
        self.names = {i: f"r{i}" for i in range(64)}

    def add(self, value: int) -> None:
        total = self.a + value
        self.f = (total >> 8) & 1
        self.a = total & 0xFF

    def xor(self, value: int) -> None:
        self.a ^= value
        self.f = 0

    def store(self, value: int) -> None:
        self.memory[(self.pc + value) & 1023] = self.a

    def load(self, value: int) -> None:
        self.a = self.memory[(self.pc ^ value) & 1023] & 0xFF

    def jump(self, value: int) -> None:
        self.pc = (self.pc + value + self.f) & 0xFFFF

    def run(self, rounds: int = CANARY_ROUNDS) -> int:
        ops, names = self.ops, self.names
        acc = 0
        for i in range(rounds):
            ops[i & 7](i & 0xFF)
            name = names[(i + self.a) & 63]
            acc = (acc * 31 + self.a + len(name) + (self.pc & 7)) & 0xFFFF
            acc ^= len("%s:%d" % (name, self.f))
        return acc


class Sampler:
    """Context manager that samples the canary on a wall-clock timer."""

    def __init__(self, period: float = PERIOD_S):
        self.period = period
        self.canary = Canary()
        self.starts = array("d")
        self.durations = array("d")
        self._previous = None

    def _tick(self, _signum, _frame) -> None:
        start = time.perf_counter()
        self.canary.run()
        self.durations.append(time.perf_counter() - start)
        self.starts.append(start)

    def __enter__(self) -> Sampler:
        # The interpreter specialises the canary's bytecode over its first
        # runs; sample it warm, and once now so that every window has a
        # sample.
        for _ in range(WARMUP_RUNS):
            self.canary.run()
        self._tick(None, None)
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)
        return self

    def __exit__(self, *_exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def window(self, start: float, end: float) -> tuple[float, float]:
        """``(canary seconds, mean speed)`` of the ``perf_counter``
        interval ``[start, end)``: the time the canary itself took in
        it, and the mean speed of the samples started in it (of every
        sample so far when it holds none).  The interval's time at
        reference speed is its wall time less the canary's, times the
        speed."""
        inside = [d for s, d in zip(self.starts, self.durations)
                  if start <= s < end]
        durations = inside or self.durations
        return sum(inside), sum(NOMINAL_S / d for d in durations) / len(durations)
