"""GF(2^8) arithmetic for Rijndael.

The field is GF(2^8) with the AES reduction polynomial
x^8 + x^4 + x^3 + x + 1 (0x11B).  Everything here is table-free and
byte-oriented on purpose: it mirrors the arithmetic a straightforward C
port performs, which is the baseline implementation the paper measured.
"""

from __future__ import annotations

AES_POLY = 0x11B


def xtime(a: int) -> int:
    """Multiply ``a`` by x (i.e. 2) in GF(2^8)."""
    a <<= 1
    if a & 0x100:
        a ^= AES_POLY
    return a & 0xFF


def gmul(a: int, b: int) -> int:
    """Multiply ``a`` and ``b`` in GF(2^8) (shift-and-add)."""
    result = 0
    a &= 0xFF
    b &= 0xFF
    while b:
        if b & 1:
            result ^= a
        a = xtime(a)
        b >>= 1
    return result


def gpow(a: int, n: int) -> int:
    """Raise ``a`` to the ``n``-th power in GF(2^8)."""
    result = 1
    base = a & 0xFF
    while n:
        if n & 1:
            result = gmul(result, base)
        base = gmul(base, base)
        n >>= 1
    return result


def ginv(a: int) -> int:
    """Multiplicative inverse in GF(2^8); ``ginv(0) == 0`` by convention."""
    if a == 0:
        return 0
    # The multiplicative group has order 255, so a^254 = a^-1.
    return gpow(a, 254)


def _affine(x: int) -> int:
    """The AES S-box affine transform over GF(2)."""
    result = 0
    for bit in range(8):
        b = (
            (x >> bit)
            ^ (x >> ((bit + 4) % 8))
            ^ (x >> ((bit + 5) % 8))
            ^ (x >> ((bit + 6) % 8))
            ^ (x >> ((bit + 7) % 8))
            ^ (0x63 >> bit)
        ) & 1
        result |= b << bit
    return result


def _build_sbox() -> tuple[bytes, bytes]:
    sbox = bytearray(256)
    inv_sbox = bytearray(256)
    for i in range(256):
        s = _affine(ginv(i))
        sbox[i] = s
        inv_sbox[s] = i
    return bytes(sbox), bytes(inv_sbox)


#: The AES substitution box, derived (not transcribed) from field inversion
#: plus the affine transform, and its inverse.
SBOX, INV_SBOX = _build_sbox()

#: Round constants: rcon[i] = x^(i-1) in GF(2^8); index 0 unused.
RCON = bytes([0x8D] + [gpow(2, i) for i in range(30)])
