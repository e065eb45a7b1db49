"""T-table AES (128-bit block), the "hand-optimized" implementation.

The paper compared a straightforward C port of Rijndael against a
hand-coded assembly version supplied by Rabbit Semiconductor and found
the assembly more than an order of magnitude faster.  At the Python
library level this module plays the optimized role: the classic
32-bit-word, four-table formulation in which SubBytes, ShiftRows and
MixColumns collapse into four table lookups and three XORs per column
per round.  (The cycle-accurate reproduction of the experiment runs on
the emulated Rabbit -- see ``repro.rabbit.programs``.)

Only the AES profile of Rijndael (Nb = 4) is table-optimized; 192/256-bit
*blocks* need the reference :class:`Rijndael`.  issl's record layer uses
128-bit blocks only and gets this class through :mod:`repro.crypto.host`.
"""

from __future__ import annotations

from repro.crypto.gf import gmul, INV_SBOX, SBOX
from repro.crypto.rijndael import expand_key, RijndaelError

_MASK = 0xFFFFFFFF


def _rotr8(word: int) -> int:
    return ((word >> 8) | (word << 24)) & _MASK


def _build_enc_tables() -> list[list[int]]:
    t0 = []
    for x in range(256):
        s = SBOX[x]
        t0.append(
            (gmul(s, 2) << 24 | s << 16 | s << 8 | gmul(s, 3)) & _MASK
        )
    tables = [t0]
    for _ in range(3):
        tables.append([_rotr8(w) for w in tables[-1]])
    return tables


def _build_dec_tables() -> list[list[int]]:
    d0 = []
    for x in range(256):
        s = INV_SBOX[x]
        d0.append(
            (
                gmul(s, 14) << 24
                | gmul(s, 9) << 16
                | gmul(s, 13) << 8
                | gmul(s, 11)
            )
            & _MASK
        )
    tables = [d0]
    for _ in range(3):
        tables.append([_rotr8(w) for w in tables[-1]])
    return tables


_TE = _build_enc_tables()
_TD = _build_dec_tables()

#: InvMixColumns on a 32-bit word, used to derive decryption round keys.
_IMC = [
    (
        gmul(a, 14) << 24 | gmul(a, 9) << 16 | gmul(a, 13) << 8 | gmul(a, 11)
    )
    & _MASK
    for a in range(256)
]


def _inv_mix_word(word: int) -> int:
    return (
        _IMC[(word >> 24) & 0xFF]
        ^ _rotr8(_IMC[(word >> 16) & 0xFF])
        ^ _rotr8(_rotr8(_IMC[(word >> 8) & 0xFF]))
        ^ _rotr8(_rotr8(_rotr8(_IMC[word & 0xFF])))
    )


def aes_key(key: bytes) -> bytes:
    """``key`` as bytes; raises :class:`RijndaelError` unless it is an
    AES key (16, 24 or 32 bytes)."""
    if len(key) not in (16, 24, 32):
        raise RijndaelError(f"key must be 16/24/32 bytes, got {len(key)}")
    return bytes(key)


#: Expanded-schedule cache.  ``repro.crypto.host`` builds a cipher on
#: each CBC memo miss, many misses share a session key, and seeded runs
#: replay clients that derive identical keys (seed 2000: 441 of the
#: scaling curve's 738 constructions hit, 218 of the fault matrix's
#: 331), so the expansion and the lazily derived decryption schedule
#: are shared.  Entries are
#: ``[rk, nr, drk-or-None]``, never mutated once derived.  Bounded
#: crudely (~4 KB an entry): a full cache is cleared.
_SCHEDULE_CACHE: dict[bytes, list] = {}
_SCHEDULE_CACHE_MAX = 256


class AesTTable:
    """AES with precomputed encryption/decryption tables.

    Accepts 128-, 192- or 256-bit keys; the block is always 16 bytes.
    Produces byte-identical results to :class:`repro.crypto.rijndael.Rijndael`
    with ``block_bits=128``.
    """

    block_size = 16

    def __init__(self, key: bytes):
        key = aes_key(key)
        entry = _SCHEDULE_CACHE.get(key)
        if entry is None:
            words = expand_key(key, block_bits=128)
            rk = [
                (w[0] << 24 | w[1] << 16 | w[2] << 8 | w[3]) & _MASK
                for w in words
            ]
            entry = [rk, len(words) // 4 - 1, None]
            if len(_SCHEDULE_CACHE) >= _SCHEDULE_CACHE_MAX:
                _SCHEDULE_CACHE.clear()
            _SCHEDULE_CACHE[key] = entry
        self._entry = entry
        self._rk = entry[0]
        self._nr = entry[1]
        self.key = key

    @property
    def rounds(self) -> int:
        """Number of rounds (Nr)."""
        return self._nr

    @property
    def _drk(self) -> list[int]:
        """Decryption round keys, derived on first decrypt and cached
        on the shared schedule entry (encrypt-only users never pay)."""
        drk = self._entry[2]
        if drk is None:
            drk = self._entry[2] = self._derive_dec_keys()
        return drk

    def _derive_dec_keys(self) -> list[int]:
        nr = self._nr
        drk = [0] * (4 * (nr + 1))
        for rnd in range(nr + 1):
            src = 4 * (nr - rnd)
            for col in range(4):
                word = self._rk[src + col]
                if 0 < rnd < nr:
                    word = _inv_mix_word(word)
                drk[4 * rnd + col] = word
        return drk

    def encrypt_block(self, block: bytes) -> bytes:
        if len(block) != 16:
            raise RijndaelError(f"block must be 16 bytes, got {len(block)}")
        rk = self._rk
        te0, te1, te2, te3 = _TE
        s0 = int.from_bytes(block[0:4], "big") ^ rk[0]
        s1 = int.from_bytes(block[4:8], "big") ^ rk[1]
        s2 = int.from_bytes(block[8:12], "big") ^ rk[2]
        s3 = int.from_bytes(block[12:16], "big") ^ rk[3]
        k = 4
        for _ in range(self._nr - 1):
            t0 = (
                te0[(s0 >> 24) & 0xFF]
                ^ te1[(s1 >> 16) & 0xFF]
                ^ te2[(s2 >> 8) & 0xFF]
                ^ te3[s3 & 0xFF]
                ^ rk[k]
            )
            t1 = (
                te0[(s1 >> 24) & 0xFF]
                ^ te1[(s2 >> 16) & 0xFF]
                ^ te2[(s3 >> 8) & 0xFF]
                ^ te3[s0 & 0xFF]
                ^ rk[k + 1]
            )
            t2 = (
                te0[(s2 >> 24) & 0xFF]
                ^ te1[(s3 >> 16) & 0xFF]
                ^ te2[(s0 >> 8) & 0xFF]
                ^ te3[s1 & 0xFF]
                ^ rk[k + 2]
            )
            t3 = (
                te0[(s3 >> 24) & 0xFF]
                ^ te1[(s0 >> 16) & 0xFF]
                ^ te2[(s1 >> 8) & 0xFF]
                ^ te3[s2 & 0xFF]
                ^ rk[k + 3]
            )
            s0, s1, s2, s3 = t0, t1, t2, t3
            k += 4
        out = bytearray(16)
        cols = (s0, s1, s2, s3)
        for col in range(4):
            a, b, c, d = cols[col], cols[(col + 1) % 4], cols[(col + 2) % 4], cols[(col + 3) % 4]
            word = (
                SBOX[(a >> 24) & 0xFF] << 24
                | SBOX[(b >> 16) & 0xFF] << 16
                | SBOX[(c >> 8) & 0xFF] << 8
                | SBOX[d & 0xFF]
            ) ^ rk[k + col]
            out[4 * col: 4 * col + 4] = (word & _MASK).to_bytes(4, "big")
        return bytes(out)

    def decrypt_block(self, block: bytes) -> bytes:
        if len(block) != 16:
            raise RijndaelError(f"block must be 16 bytes, got {len(block)}")
        rk = self._drk
        td0, td1, td2, td3 = _TD
        s0 = int.from_bytes(block[0:4], "big") ^ rk[0]
        s1 = int.from_bytes(block[4:8], "big") ^ rk[1]
        s2 = int.from_bytes(block[8:12], "big") ^ rk[2]
        s3 = int.from_bytes(block[12:16], "big") ^ rk[3]
        k = 4
        for _ in range(self._nr - 1):
            t0 = (
                td0[(s0 >> 24) & 0xFF]
                ^ td1[(s3 >> 16) & 0xFF]
                ^ td2[(s2 >> 8) & 0xFF]
                ^ td3[s1 & 0xFF]
                ^ rk[k]
            )
            t1 = (
                td0[(s1 >> 24) & 0xFF]
                ^ td1[(s0 >> 16) & 0xFF]
                ^ td2[(s3 >> 8) & 0xFF]
                ^ td3[s2 & 0xFF]
                ^ rk[k + 1]
            )
            t2 = (
                td0[(s2 >> 24) & 0xFF]
                ^ td1[(s1 >> 16) & 0xFF]
                ^ td2[(s0 >> 8) & 0xFF]
                ^ td3[s3 & 0xFF]
                ^ rk[k + 2]
            )
            t3 = (
                td0[(s3 >> 24) & 0xFF]
                ^ td1[(s2 >> 16) & 0xFF]
                ^ td2[(s1 >> 8) & 0xFF]
                ^ td3[s0 & 0xFF]
                ^ rk[k + 3]
            )
            s0, s1, s2, s3 = t0, t1, t2, t3
            k += 4
        out = bytearray(16)
        cols = (s0, s1, s2, s3)
        for col in range(4):
            a = cols[col]
            b = cols[(col - 1) % 4]
            c = cols[(col - 2) % 4]
            d = cols[(col - 3) % 4]
            word = (
                INV_SBOX[(a >> 24) & 0xFF] << 24
                | INV_SBOX[(b >> 16) & 0xFF] << 16
                | INV_SBOX[(c >> 8) & 0xFF] << 8
                | INV_SBOX[d & 0xFF]
            ) ^ rk[k + col]
            out[4 * col: 4 * col + 4] = (word & _MASK).to_bytes(4, "big")
        return bytes(out)
