"""SHA-1, implemented from scratch (RFC 3174).

SSL 3.0-era stacks MACed records with MD5 or SHA-1.  This streaming
``update``/``digest`` implementation reads like the RFC; it is the
reference that :func:`repro.crypto.host.sha1` is tested against.
"""

from __future__ import annotations

import struct

_MASK = 0xFFFFFFFF


def _rotl(value: int, amount: int) -> int:
    return ((value << amount) | (value >> (32 - amount))) & _MASK


class Sha1:
    """Streaming SHA-1 hash."""

    digest_size = 20
    block_size = 64

    def __init__(self, data: bytes = b""):
        self._h = [0x67452301, 0xEFCDAB89, 0x98BADCFE, 0x10325476, 0xC3D2E1F0]
        self._buffer = b""
        self._length = 0
        if data:
            self.update(data)

    def update(self, data: bytes) -> "Sha1":
        self._length += len(data)
        self._buffer += data
        while len(self._buffer) >= 64:
            self._compress(self._buffer[:64])
            self._buffer = self._buffer[64:]
        return self

    def _compress(self, chunk: bytes) -> None:
        w = list(struct.unpack(">16L", chunk))
        for i in range(16, 80):
            w.append(_rotl(w[i - 3] ^ w[i - 8] ^ w[i - 14] ^ w[i - 16], 1))
        a, b, c, d, e = self._h
        for i in range(80):
            if i < 20:
                f, k = (b & c) | (~b & d), 0x5A827999
            elif i < 40:
                f, k = b ^ c ^ d, 0x6ED9EBA1
            elif i < 60:
                f, k = (b & c) | (b & d) | (c & d), 0x8F1BBCDC
            else:
                f, k = b ^ c ^ d, 0xCA62C1D6
            temp = (_rotl(a, 5) + f + e + k + w[i]) & _MASK
            a, b, c, d, e = temp, a, _rotl(b, 30), c, d
        self._h = [(x + y) & _MASK for x, y in zip(self._h, (a, b, c, d, e))]

    def copy(self) -> "Sha1":
        clone = Sha1()
        clone._h = list(self._h)
        clone._buffer = self._buffer
        clone._length = self._length
        return clone

    def digest(self) -> bytes:
        clone = self.copy()
        bit_len = clone._length * 8
        clone.update(b"\x80")
        while len(clone._buffer) != 56:
            clone.update(b"\x00")
        clone._compress(clone._buffer + struct.pack(">Q", bit_len))
        return struct.pack(">5L", *clone._h)

    def hexdigest(self) -> str:
        return self.digest().hex()


def sha1(data: bytes) -> bytes:
    """One-shot SHA-1 digest of ``data``."""
    return Sha1(data).digest()
