"""issl logging backends.

The Unix issl appends to a log file and assumes "a filesystem with
nearly unlimited capacity"; the paper names two port strategies: remove
logging, or rework it into a circular buffer.  All three options exist
here so the port profiles can choose.
"""

from __future__ import annotations

from repro.obs import NULL_OBS
from repro.unixsim.fs import FileSystem


class Logger:
    """Interface: ``log(message)`` and ``tail(count)``.

    Every backend counts its traffic into the ``issl.log.messages``
    metric when built with an :class:`repro.obs.Obs` handle; the
    circular backend additionally reports how many messages the ring
    has dropped (``issl.log.dropped`` gauge).
    """

    def __init__(self, obs=None):
        obs = obs if obs is not None else NULL_OBS
        self._ctr_messages = obs.metrics.counter("issl.log.messages")

    def log(self, message: str) -> None:
        raise NotImplementedError

    def tail(self, count: int) -> list[str]:
        raise NotImplementedError


class NullLogger(Logger):
    """Strategy 'remove the functionality': drop every message."""

    def log(self, message: str) -> None:
        self._ctr_messages.inc()

    def tail(self, count: int) -> list[str]:
        return []


class FileLogger(Logger):
    """The original: append lines to a file, forever."""

    def __init__(self, fs: FileSystem, path: str = "/var/log/issl.log",
                 obs=None):
        super().__init__(obs)
        self._fs = fs
        self.path = path
        if not fs.exists(path):
            fs.write_file(path, b"")

    def log(self, message: str) -> None:
        with self._fs.open(self.path, "a") as fh:
            fh.write(message.encode() + b"\n")
        self._ctr_messages.inc()

    def tail(self, count: int) -> list[str]:
        lines = self._fs.read_file(self.path).decode().splitlines()
        return lines[-count:]


class CircularLogger(Logger):
    """The reworked port: fixed-capacity ring of messages."""

    def __init__(self, capacity: int = 32, obs=None):
        super().__init__(obs)
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self._ring: list[str] = []
        self.overwrites = 0
        obs = obs if obs is not None else NULL_OBS
        self._gauge_dropped = obs.metrics.gauge("issl.log.dropped")

    def log(self, message: str) -> None:
        if len(self._ring) == self.capacity:
            self._ring.pop(0)
            self.overwrites += 1
            self._gauge_dropped.set(self.overwrites)
        self._ring.append(message)
        self._ctr_messages.inc()

    def tail(self, count: int) -> list[str]:
        return self._ring[-count:]
