"""An in-memory Unix-like filesystem.

The paper's third class of porting problem is workstation assumptions
like "a filesystem with nearly unlimited capacity (e.g., for keeping a
log)" -- something the RMC2000 simply lacks.  The Unix build profile of
issl reads key material from files and appends to a log through this
module; the embedded profile has no filesystem at all, and its logging
is a circular buffer (:mod:`repro.issl.log`).
"""

from __future__ import annotations


class FsError(OSError):
    """Raised on missing files, bad modes, or a full disk."""


class FileHandle:
    """An open file with a cursor, like a Unix file descriptor."""

    def __init__(self, fs: "FileSystem", path: str, mode: str):
        if mode not in ("r", "w", "a", "r+"):
            raise FsError(f"bad mode {mode!r}")
        self._fs = fs
        self.path = path
        self.mode = mode
        self.closed = False
        if mode == "w":
            fs._files[path] = bytearray()
        elif path not in fs._files:
            if mode == "r" or mode == "r+":
                raise FsError(f"no such file: {path}")
            fs._files[path] = bytearray()
        self._offset = len(fs._files[path]) if mode == "a" else 0

    def read(self, nbytes: int | None = None) -> bytes:
        self._check_open()
        if self.mode in ("w", "a"):
            raise FsError(f"file {self.path} not open for reading")
        data = self._fs._files[self.path]
        if nbytes is None:
            nbytes = len(data) - self._offset
        chunk = bytes(data[self._offset: self._offset + nbytes])
        self._offset += len(chunk)
        return chunk

    def write(self, data: bytes) -> int:
        self._check_open()
        if self.mode == "r":
            raise FsError(f"file {self.path} not open for writing")
        self._fs._charge(len(data))
        buf = self._fs._files[self.path]
        end = self._offset + len(data)
        if self._offset == len(buf):
            buf += data
        else:
            buf[self._offset: end] = data
        self._offset = end
        return len(data)

    def close(self) -> None:
        self.closed = True

    def _check_open(self) -> None:
        if self.closed:
            raise FsError(f"I/O on closed file {self.path}")

    def __enter__(self) -> "FileHandle":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class FileSystem:
    """Path -> bytes store with an optional capacity ceiling.

    ``capacity=None`` models the workstation's "nearly unlimited" disk;
    a finite capacity lets tests demonstrate why append-forever logging
    cannot survive a port.
    """

    def __init__(self, capacity: int | None = None):
        self._files: dict[str, bytearray] = {}
        self.capacity = capacity
        self.bytes_written = 0

    def _charge(self, nbytes: int) -> None:
        self.bytes_written += nbytes
        if self.capacity is not None and self.total_size() + nbytes > self.capacity:
            raise FsError("disk full")

    def open(self, path: str, mode: str = "r") -> FileHandle:
        return FileHandle(self, path, mode)

    def exists(self, path: str) -> bool:
        return path in self._files

    def size(self, path: str) -> int:
        if path not in self._files:
            raise FsError(f"no such file: {path}")
        return len(self._files[path])

    def total_size(self) -> int:
        return sum(len(data) for data in self._files.values())

    def write_file(self, path: str, data: bytes) -> None:
        """Convenience: create/overwrite ``path`` with ``data``."""
        with self.open(path, "w") as fh:
            fh.write(data)

    def read_file(self, path: str) -> bytes:
        with self.open(path, "r") as fh:
            return fh.read()
