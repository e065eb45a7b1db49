"""RSA on top of :mod:`repro.crypto.bignum`.

This is the public-key half of issl: key generation and
PKCS#1-v1.5-style encryption padding.  Only the Unix build profile of
issl links it; the RMC2000 port dropped RSA because the bignum package
was too complex to carry (paper, Sections 2 and 5), which the port
profile reproduces by refusing to load this module's cipher suite.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.crypto.bignum import BigNum, BignumError, generate_prime

#: Standard RSA public exponent.
F4 = 65537


class RsaError(ValueError):
    """Raised on malformed ciphertexts or undersized keys."""


@dataclass(frozen=True)
class RsaPublicKey:
    """Modulus and public exponent."""

    n: BigNum
    e: BigNum

    @property
    def modulus_bytes(self) -> int:
        return (self.n.bit_length() + 7) // 8


@dataclass(frozen=True)
class RsaPrivateKey:
    """Full private key (keeps p/q for tests and CRT-style checks)."""

    n: BigNum
    e: BigNum
    d: BigNum
    p: BigNum
    q: BigNum

    def public_key(self) -> RsaPublicKey:
        return RsaPublicKey(self.n, self.e)

    @property
    def modulus_bytes(self) -> int:
        return (self.n.bit_length() + 7) // 8


def generate_keypair(bits: int, rng) -> RsaPrivateKey:
    """Generate an RSA keypair with an exactly-``bits``-bit modulus.

    ``rng`` is any object with ``next_u16``; the simulation passes a
    seeded generator so handshakes replay deterministically.
    """
    if bits < 128:
        raise RsaError(f"modulus must be >= 128 bits, got {bits}")
    e = BigNum.from_int(F4)
    one = BigNum([1])
    while True:
        p = generate_prime(bits // 2, rng)
        q = generate_prime(bits - bits // 2, rng)
        if p == q:
            continue
        n = p.mul(q)
        if n.bit_length() != bits:
            continue
        phi = p.sub(one).mul(q.sub(one))
        if not phi.gcd(e).compare(one) == 0:
            continue
        try:
            d = e.modinv(phi)
        except BignumError:
            continue
        return RsaPrivateKey(n=n, e=e, d=d, p=p, q=q)


def _pad_pkcs1_v15(message: bytes, k: int, rng) -> bytes:
    """EB = 00 || 02 || nonzero-random || 00 || message (RFC 2313)."""
    if len(message) > k - 11:
        raise RsaError(
            f"message too long for modulus: {len(message)} > {k - 11}"
        )
    pad_len = k - 3 - len(message)
    padding = bytearray()
    while len(padding) < pad_len:
        chunk = rng.next_bytes(pad_len - len(padding))
        padding += bytes(b for b in chunk if b != 0)
    return b"\x00\x02" + bytes(padding) + b"\x00" + message


def _unpad_pkcs1_v15(block: bytes) -> bytes:
    if len(block) < 11 or block[0] != 0 or block[1] != 2:
        raise RsaError("bad PKCS#1 block header")
    try:
        sep = block.index(0, 2)
    except ValueError as exc:
        raise RsaError("missing PKCS#1 separator") from exc
    if sep < 10:
        raise RsaError("PKCS#1 padding too short")
    return block[sep + 1:]


def encrypt(public: RsaPublicKey, message: bytes, rng) -> bytes:
    """PKCS#1 v1.5 encrypt ``message`` under ``public``."""
    k = public.modulus_bytes
    block = _pad_pkcs1_v15(message, k, rng)
    m = BigNum.from_bytes(block)
    c = m.modexp(public.e, public.n)
    return c.to_bytes(k)


def decrypt(private: RsaPrivateKey, ciphertext: bytes) -> bytes:
    """PKCS#1 v1.5 decrypt."""
    k = private.modulus_bytes
    if len(ciphertext) != k:
        raise RsaError(f"ciphertext must be {k} bytes, got {len(ciphertext)}")
    c = BigNum.from_bytes(ciphertext)
    if c.compare(private.n) >= 0:
        raise RsaError("ciphertext out of range")
    m = c.modexp(private.d, private.n)
    return _unpad_pkcs1_v15(m.to_bytes(k))

