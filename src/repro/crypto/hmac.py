"""HMAC (RFC 2104) over any of this package's hash classes."""

from __future__ import annotations

from repro.crypto.sha1 import Sha1


class Hmac:
    """Keyed-hash message authentication code.

    ``hash_cls`` is a class with the streaming interface of
    :class:`repro.crypto.sha1.Sha1` (``update``/``digest``/``block_size``).
    """

    def __init__(self, key: bytes, data: bytes = b"", hash_cls=Sha1):
        self._hash_cls = hash_cls
        block = hash_cls.block_size
        if len(key) > block:
            key = hash_cls(key).digest()
        key = key + b"\x00" * (block - len(key))
        self._okey = bytes(b ^ 0x5C for b in key)
        self._inner = hash_cls(bytes(b ^ 0x36 for b in key))
        self.digest_size = hash_cls.digest_size
        if data:
            self._inner.update(data)

    def update(self, data: bytes) -> "Hmac":
        self._inner.update(data)
        return self

    def digest(self) -> bytes:
        return self._hash_cls(self._okey + self._inner.digest()).digest()

    def hexdigest(self) -> str:
        return self.digest().hex()


def hmac_sha1(key: bytes, data: bytes) -> bytes:
    """One-shot HMAC-SHA1."""
    return Hmac(key, data, Sha1).digest()

