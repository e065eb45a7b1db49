"""Host crypto for the running system, from the Python stdlib.

issl charges crypto time through :mod:`repro.issl.costmodel`, so how the
host computes a digest or a cipher block moves no simulated number.
The from-scratch ``Sha1``, ``Md5``, ``Hmac`` and ``Rijndael`` are the
specification these functions are tested against.
"""

from __future__ import annotations

import hashlib
import hmac

from repro.crypto.aes_ttable import AesTTable


def sha1(data: bytes) -> bytes:
    """SHA-1 digest of ``data``."""
    return hashlib.sha1(data, usedforsecurity=False).digest()


def md5(data: bytes) -> bytes:
    """MD5 digest of ``data``."""
    return hashlib.md5(data, usedforsecurity=False).digest()


def hmac_sha1(key: bytes, data: bytes) -> bytes:
    """HMAC-SHA1 of ``data`` under ``key``."""
    return hmac.digest(key, data, "sha1")


def digest_equal(a: bytes, b: bytes) -> bool:
    """Compare MACs in time independent of where they first differ."""
    return hmac.compare_digest(a, b)


def aes(key: bytes) -> AesTTable:
    """AES (the stdlib has none) under a 16/24/32-byte ``key``."""
    return AesTTable(key)
