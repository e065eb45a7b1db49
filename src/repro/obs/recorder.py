"""Flight recorder: an always-on, fixed-size ring of structured events.

The paper's authors debugged the port with printf-over-serial; the
reproduction's answer is a bounded, deterministic event ring that every
layer can write into for free and every failure report can dump.  The
ring is preallocated (``capacity`` slots, overwritten in seq order), so
the hot path is one tuple build and one index store -- no list growth,
no formatting, no host clock.  Time comes from the same injectable
``clock`` the tracer uses (the simulator's ``now``), so two runs of the
same seed produce byte-identical dumps.

Events carry a severity, a category (the span categories from
:mod:`repro.obs.trace`), a ``tid`` naming the logical timeline, and a
preformatted message.  ``dump()`` renders the surviving window as plain
dicts for JSON reports; ``tail_lines()`` renders it for humans (the
costate starvation report).

:class:`NullFlightRecorder` is the disabled variant used by
:data:`repro.obs.NULL_OBS` and by harness code that must measure the
recorder's own overhead.
"""

from __future__ import annotations

from typing import Callable

#: Severity levels, syslog-ish ordering: filter with ``sev >= WARN``.
DEBUG = 10
INFO = 20
WARN = 30
ERROR = 40

_SEV_NAMES = {DEBUG: "DEBUG", INFO: "INFO", WARN: "WARN", ERROR: "ERROR"}

#: How many trailing events failure reports attach by default.
DEFAULT_TAIL = 32


class FlightRecorder:
    """Fixed-capacity ring buffer of ``(seq, t, sev, cat, tid, msg)``."""

    __slots__ = ("capacity", "clock", "_ring", "_next")

    def __init__(self, capacity: int = 256,
                 clock: Callable[[], float] | None = None):
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity!r}")
        self.capacity = capacity
        self.clock = clock
        self._ring: list[tuple | None] = [None] * capacity
        self._next = 0

    # -- recording ------------------------------------------------------
    def record(self, sev: int, cat: str, tid: str, msg: str) -> None:
        """Append one event, overwriting the oldest past capacity."""
        seq = self._next
        self._ring[seq % self.capacity] = (
            seq, self.clock() if self.clock is not None else 0.0,
            sev, cat, tid, msg,
        )
        self._next = seq + 1

    def debug(self, cat: str, tid: str, msg: str) -> None:
        self.record(DEBUG, cat, tid, msg)

    def warn(self, cat: str, tid: str, msg: str) -> None:
        self.record(WARN, cat, tid, msg)

    def error(self, cat: str, tid: str, msg: str) -> None:
        self.record(ERROR, cat, tid, msg)

    @property
    def enabled(self) -> bool:
        return True

    def __len__(self) -> int:
        return min(self._next, self.capacity)

    @property
    def dropped(self) -> int:
        """Events overwritten before anyone dumped them."""
        return max(0, self._next - self.capacity)

    # -- exports --------------------------------------------------------
    def events(self, last: int | None = None) -> list[tuple]:
        """The surviving window in seq order (oldest first)."""
        if self._next <= self.capacity:
            window = [e for e in self._ring[:self._next]]
        else:
            split = self._next % self.capacity
            window = self._ring[split:] + self._ring[:split]
        if last is not None:
            window = window[-last:]
        return window  # type: ignore[return-value]

    def dump(self, last: int | None = None) -> list[dict]:
        """Plain-data rendering for JSON reports (sorted keys downstream).

        Key and value vocabulary is deliberately host-clock free: ``t``
        is simulated seconds and nothing here names a wall clock, so a
        dump embedded in a fault report keeps the report byte-stable.
        """
        return [
            {"seq": seq, "t": round(t, 9), "sev": _SEV_NAMES.get(sev, str(sev)),
             "cat": cat, "tid": tid, "msg": msg}
            for seq, t, sev, cat, tid, msg in self.events(last)
        ]

    def tail_lines(self, last: int = DEFAULT_TAIL) -> list[str]:
        """Human-oriented rendering for diagnostic reports."""
        return [
            f"  [{seq:>6}] t={t:.6f}s {_SEV_NAMES.get(sev, str(sev)):<5} "
            f"{cat}/{tid}: {msg}"
            for seq, t, sev, cat, tid, msg in self.events(last)
        ]


class NullFlightRecorder(FlightRecorder):
    """Recorder off: every operation is a no-op on a shared instance."""

    def __init__(self):
        super().__init__(capacity=1)

    def record(self, sev: int, cat: str, tid: str, msg: str) -> None:
        pass

    def debug(self, cat: str, tid: str, msg: str) -> None:
        pass

    def warn(self, cat: str, tid: str, msg: str) -> None:
        pass

    def error(self, cat: str, tid: str, msg: str) -> None:
        pass

    @property
    def enabled(self) -> bool:
        return False

    def events(self, last: int | None = None) -> list[tuple]:
        return []
