"""Host crypto for the running system, from the Python stdlib.

issl charges crypto time through :mod:`repro.issl.costmodel`, so how the
host computes a digest or a cipher block moves no simulated number.
The from-scratch ``Sha1``, ``Md5``, ``Hmac`` and ``Rijndael`` are the
specification these functions are tested against.

CBC goes through :func:`cbc_encrypt` and :func:`cbc_decrypt`, which
share one exact memo (below); :func:`aes_key` checks a key up front as
:func:`aes` would.
"""

from __future__ import annotations

import hashlib
import hmac

from repro.crypto import modes
from repro.crypto.aes_ttable import AesTTable, aes_key


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


#: Exact CBC memo, ``(encrypt, key, iv, input) -> output``.  Seeded
#: clients replay identical sessions, and every record one end seals
#: the other end opens in the same process, so most CBC calls repeat
#: an earlier one (seed 2000 ``records``: 664 of 898 seals, and 882 of
#: 882 opens).  Each real call stores both directions; under a fixed key
#: and IV, CBC is a bijection on whole blocks, so the entry written from
#: a real encryption answers the decryption of its output exactly, and
#: vice versa.  Nothing else writes an entry, so a hit returns the bytes
#: the real call would.  A tampered or out-of-sync input misses and runs
#: real AES.
_CBC_MEMO: dict[tuple[bool, bytes, bytes, bytes], bytes] = {}
#: Input plus output bytes the memo holds before it is cleared (a
#: ``records`` pass stores about 126 KB).
_CBC_MEMO_MAX_BYTES = 1 << 20
_cbc_memo_bytes = 0


def _remember(key: bytes, iv: bytes, plaintext: bytes,
              ciphertext: bytes) -> None:
    global _cbc_memo_bytes
    size = len(plaintext) + len(ciphertext)
    if _cbc_memo_bytes + size > _CBC_MEMO_MAX_BYTES:
        _CBC_MEMO.clear()
        _cbc_memo_bytes = 0
    _CBC_MEMO[True, key, iv, plaintext] = ciphertext
    _CBC_MEMO[False, key, iv, ciphertext] = plaintext
    _cbc_memo_bytes += size


def cbc_encrypt(key: bytes, iv: bytes, plaintext: bytes) -> bytes:
    """AES-CBC of already-padded ``plaintext`` under ``key`` and ``iv``."""
    ciphertext = _CBC_MEMO.get((True, key, iv, plaintext))
    if ciphertext is None:
        ciphertext = modes.cbc_encrypt(aes(key), iv, plaintext)
        _remember(key, iv, plaintext, ciphertext)
    return ciphertext


def cbc_decrypt(key: bytes, iv: bytes, ciphertext: bytes) -> bytes:
    """AES-CBC decryption of ``ciphertext`` (padding left in place)."""
    plaintext = _CBC_MEMO.get((False, key, iv, ciphertext))
    if plaintext is None:
        plaintext = modes.cbc_decrypt(aes(key), iv, ciphertext)
        _remember(key, iv, plaintext, ciphertext)
    return plaintext
