"""Reference Rijndael with variable key *and* block sizes.

issl (the library the paper ported) "supports key lengths of 128, 192, or
256 bits and block lengths of 128, 192, and 256 bits" -- i.e. full
Rijndael, of which AES is the 128-bit-block profile.  This module is the
*straightforward* implementation: byte-oriented, table-free beyond the
S-box, structured like the C code a porter would carry across platforms.
The optimized counterpart lives in :mod:`repro.crypto.aes_ttable`.

Conventions follow FIPS-197: the state is a 4 x Nb byte matrix stored
column-major, input byte ``i`` landing at row ``i % 4``, column ``i // 4``.
"""

from __future__ import annotations

from repro.crypto.gf import gmul, INV_SBOX, RCON, SBOX

#: Block/key sizes supported by issl, in bits.
SUPPORTED_BITS = (128, 192, 256)

#: ShiftRows offsets (rows 1..3) per block length in words, from the
#: Rijndael specification (Daemen & Rijmen).
_SHIFT_OFFSETS = {4: (1, 2, 3), 6: (1, 2, 3), 8: (1, 3, 4)}


class RijndaelError(ValueError):
    """Raised for unsupported sizes or malformed inputs."""


def _check_bits(bits: int, what: str) -> int:
    if bits not in SUPPORTED_BITS:
        raise RijndaelError(
            f"{what} must be one of {SUPPORTED_BITS} bits, got {bits}"
        )
    return bits // 32


def expand_key(key: bytes, block_bits: int = 128) -> list[list[int]]:
    """Expand ``key`` into ``Nb * (Nr + 1)`` four-byte words.

    Returns a list of words, each a list of 4 ints, per the Rijndael key
    schedule generalized to all key/block size combinations.
    """
    nk = _check_bits(len(key) * 8, "key length")
    nb = _check_bits(block_bits, "block length")
    nr = max(nk, nb) + 6
    words: list[list[int]] = [list(key[4 * i: 4 * i + 4]) for i in range(nk)]
    for i in range(nk, nb * (nr + 1)):
        temp = list(words[i - 1])
        if i % nk == 0:
            temp = temp[1:] + temp[:1]
            temp = [SBOX[b] for b in temp]
            temp[0] ^= RCON[i // nk]
        elif nk > 6 and i % nk == 4:
            temp = [SBOX[b] for b in temp]
        words.append([words[i - nk][j] ^ temp[j] for j in range(4)])
    return words


class Rijndael:
    """Rijndael block cipher with independent key and block sizes.

    >>> cipher = Rijndael(bytes(16))
    >>> cipher.decrypt_block(cipher.encrypt_block(bytes(16))) == bytes(16)
    True
    """

    def __init__(self, key: bytes, block_bits: int = 128):
        self._nk = _check_bits(len(key) * 8, "key length")
        self._nb = _check_bits(block_bits, "block length")
        self._nr = max(self._nk, self._nb) + 6
        self._shifts = _SHIFT_OFFSETS[self._nb]
        self._words = expand_key(key, block_bits)
        self.key = bytes(key)

    @property
    def block_size(self) -> int:
        """Block size in bytes."""
        return 4 * self._nb

    @property
    def rounds(self) -> int:
        """Number of rounds (Nr)."""
        return self._nr

    # -- state helpers ------------------------------------------------
    def _to_state(self, block: bytes) -> list[list[int]]:
        nb = self._nb
        return [[block[row + 4 * col] for col in range(nb)] for row in range(4)]

    def _from_state(self, state: list[list[int]]) -> bytes:
        nb = self._nb
        return bytes(state[i % 4][i // 4] for i in range(4 * nb))

    def _add_round_key(self, state: list[list[int]], rnd: int) -> None:
        nb = self._nb
        base = rnd * nb
        for col in range(nb):
            word = self._words[base + col]
            for row in range(4):
                state[row][col] ^= word[row]

    # -- forward rounds -----------------------------------------------
    def _sub_bytes(self, state: list[list[int]]) -> None:
        for row in state:
            for col, val in enumerate(row):
                row[col] = SBOX[val]

    def _shift_rows(self, state: list[list[int]]) -> None:
        for row in range(1, 4):
            shift = self._shifts[row - 1]
            state[row] = state[row][shift:] + state[row][:shift]

    def _mix_columns(self, state: list[list[int]]) -> None:
        row0, row1, row2, row3 = state
        for col in range(self._nb):
            a0, a1, a2, a3 = row0[col], row1[col], row2[col], row3[col]
            row0[col] = gmul(a0, 2) ^ gmul(a1, 3) ^ a2 ^ a3
            row1[col] = a0 ^ gmul(a1, 2) ^ gmul(a2, 3) ^ a3
            row2[col] = a0 ^ a1 ^ gmul(a2, 2) ^ gmul(a3, 3)
            row3[col] = gmul(a0, 3) ^ a1 ^ a2 ^ gmul(a3, 2)

    # -- inverse rounds -----------------------------------------------
    def _inv_sub_bytes(self, state: list[list[int]]) -> None:
        for row in state:
            for col, val in enumerate(row):
                row[col] = INV_SBOX[val]

    def _inv_shift_rows(self, state: list[list[int]]) -> None:
        for row in range(1, 4):
            shift = self._shifts[row - 1]
            state[row] = state[row][-shift:] + state[row][:-shift]

    def _inv_mix_columns(self, state: list[list[int]]) -> None:
        row0, row1, row2, row3 = state
        for col in range(self._nb):
            a0, a1, a2, a3 = row0[col], row1[col], row2[col], row3[col]
            row0[col] = (gmul(a0, 14) ^ gmul(a1, 11)
                         ^ gmul(a2, 13) ^ gmul(a3, 9))
            row1[col] = (gmul(a0, 9) ^ gmul(a1, 14)
                         ^ gmul(a2, 11) ^ gmul(a3, 13))
            row2[col] = (gmul(a0, 13) ^ gmul(a1, 9)
                         ^ gmul(a2, 14) ^ gmul(a3, 11))
            row3[col] = (gmul(a0, 11) ^ gmul(a1, 13)
                         ^ gmul(a2, 9) ^ gmul(a3, 14))

    # -- public API ----------------------------------------------------
    def encrypt_block(self, block: bytes) -> bytes:
        """Encrypt one block of exactly :attr:`block_size` bytes."""
        if len(block) != self.block_size:
            raise RijndaelError(
                f"block must be {self.block_size} bytes, got {len(block)}"
            )
        state = self._to_state(block)
        self._add_round_key(state, 0)
        for rnd in range(1, self._nr):
            self._sub_bytes(state)
            self._shift_rows(state)
            self._mix_columns(state)
            self._add_round_key(state, rnd)
        self._sub_bytes(state)
        self._shift_rows(state)
        self._add_round_key(state, self._nr)
        return self._from_state(state)

    def decrypt_block(self, block: bytes) -> bytes:
        """Decrypt one block of exactly :attr:`block_size` bytes."""
        if len(block) != self.block_size:
            raise RijndaelError(
                f"block must be {self.block_size} bytes, got {len(block)}"
            )
        state = self._to_state(block)
        self._add_round_key(state, self._nr)
        for rnd in range(self._nr - 1, 0, -1):
            self._inv_shift_rows(state)
            self._inv_sub_bytes(state)
            self._add_round_key(state, rnd)
            self._inv_mix_columns(state)
        self._inv_shift_rows(state)
        self._inv_sub_bytes(state)
        self._add_round_key(state, 0)
        return self._from_state(state)
