"""Pseudo-random number generation.

The paper lists the missing standard ``random`` function as the simplest
class of porting problem: "Dynamic C does not provide the standard
random function", so the porters wrote one.  :class:`Lcg` is that
function -- the classic C-library linear congruential generator -- and
is what the embedded profile uses for nonces.

:class:`CipherRng` is the better generator the Unix profile uses for key
material: AES-CTR over an incrementing counter (deterministic given a
seed, which the simulation needs for reproducibility).
"""

from __future__ import annotations

from repro.crypto import host


class Lcg:
    """ANSI-C style ``rand()``: X' = (1103515245 * X + 12345) mod 2^31.

    Matches the constants in the C standard's reference implementation,
    which is the obvious thing a porter re-creating ``random`` writes.
    """

    MULTIPLIER = 1103515245
    INCREMENT = 12345
    MODULUS = 1 << 31

    def __init__(self, seed: int = 1):
        self._state = seed % self.MODULUS

    def seed(self, value: int) -> None:
        """Re-seed, like ``srand``."""
        self._state = value % self.MODULUS

    def rand(self) -> int:
        """Next value in [0, 2^15), like ANSI ``rand()`` with RAND_MAX 32767."""
        self._state = (
            self.MULTIPLIER * self._state + self.INCREMENT
        ) % self.MODULUS
        return (self._state >> 16) & 0x7FFF

    def next_u8(self) -> int:
        return self.rand() & 0xFF

    def next_u16(self) -> int:
        return ((self.rand() & 0xFF) << 8) | (self.rand() & 0xFF)

    def next_bytes(self, n: int) -> bytes:
        return bytes(self.next_u8() for _ in range(n))


class CipherRng:
    """Deterministic random byte stream from a block cipher in CTR mode.

    Used where the Unix issl would have read ``/dev/random`` -- a
    facility the simulation replaces with a seeded stream so experiments
    replay exactly.
    """

    def __init__(self, seed: bytes):
        self._cipher = host.aes(host.sha1(b"cipher-rng:" + seed)[:16])
        self._counter = 0
        self._pool = b""

    def next_bytes(self, n: int) -> bytes:
        while len(self._pool) < n:
            block = self._counter.to_bytes(16, "big")
            self._pool += self._cipher.encrypt_block(block)
            self._counter += 1
        out, self._pool = self._pool[:n], self._pool[n:]
        return out

    def next_u16(self) -> int:
        return int.from_bytes(self.next_bytes(2), "big")
