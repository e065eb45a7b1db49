"""MD5, implemented from scratch (RFC 1321).

SSL 3.0-era key derivation mixed MD5 with SHA-1, as issl's PRF does.
This is the reference :func:`repro.crypto.host.md5` is tested against.
"""

from __future__ import annotations

import math
import struct

_MASK = 0xFFFFFFFF

_S = (
    [7, 12, 17, 22] * 4
    + [5, 9, 14, 20] * 4
    + [4, 11, 16, 23] * 4
    + [6, 10, 15, 21] * 4
)
_K = [int(abs(math.sin(i + 1)) * 2**32) & _MASK for i in range(64)]


def _rotl(value: int, amount: int) -> int:
    return ((value << amount) | (value >> (32 - amount))) & _MASK


class Md5:
    """Streaming MD5 hash."""

    digest_size = 16
    block_size = 64

    def __init__(self, data: bytes = b""):
        self._h = [0x67452301, 0xEFCDAB89, 0x98BADCFE, 0x10325476]
        self._buffer = b""
        self._length = 0
        if data:
            self.update(data)

    def update(self, data: bytes) -> "Md5":
        self._length += len(data)
        self._buffer += data
        while len(self._buffer) >= 64:
            self._compress(self._buffer[:64])
            self._buffer = self._buffer[64:]
        return self

    def _compress(self, chunk: bytes) -> None:
        m = struct.unpack("<16L", chunk)
        a, b, c, d = self._h
        for i in range(64):
            if i < 16:
                f = (b & c) | (~b & d)
                g = i
            elif i < 32:
                f = (d & b) | (~d & c)
                g = (5 * i + 1) % 16
            elif i < 48:
                f = b ^ c ^ d
                g = (3 * i + 5) % 16
            else:
                f = c ^ (b | (~d & _MASK))
                g = (7 * i) % 16
            f = (f + a + _K[i] + m[g]) & _MASK
            a, d, c, b = d, c, b, (b + _rotl(f, _S[i])) & _MASK
        self._h = [(x + y) & _MASK for x, y in zip(self._h, (a, b, c, d))]

    def copy(self) -> "Md5":
        clone = Md5()
        clone._h = list(self._h)
        clone._buffer = self._buffer
        clone._length = self._length
        return clone

    def digest(self) -> bytes:
        clone = self.copy()
        bit_len = (clone._length * 8) & 0xFFFFFFFFFFFFFFFF
        clone.update(b"\x80")
        while len(clone._buffer) != 56:
            clone.update(b"\x00")
        clone._compress(clone._buffer + struct.pack("<Q", bit_len))
        return struct.pack("<4L", *clone._h)

    def hexdigest(self) -> str:
        return self.digest().hex()


def md5(data: bytes) -> bytes:
    """One-shot MD5 digest of ``data``."""
    return Md5(data).digest()
