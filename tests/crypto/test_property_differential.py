"""Seeded property/differential tests for the ported crypto.

The paper's port had no room for a crypto test battery on the target;
the reproduction does.  Every case here draws randomized inputs from a
fixed-seed ``random.Random`` (reproducible by construction, no new
dependencies) and checks the port against an independent authority:

* the two AES implementations against *each other* (a table lookup bug
  that self-inverts would survive a round-trip test but not this),
* SHA-1/MD5/HMAC against ``hashlib``/``hmac``,
* block modes round-trip across random key/plaintext/length choices,
* corrupted ciphertext must *fail* -- never silently decrypt to the
  original -- which is the property the issl MAC teardown stands on.
"""

import hashlib
import hmac as py_hmac
import random

import pytest

from repro.crypto.aes_ttable import AesTTable
from repro.crypto import host
from repro.crypto.hmac import Hmac, hmac_sha1
from repro.crypto.md5 import Md5, md5
from repro.crypto.modes import (
    PaddingError,
    cbc_decrypt,
    cbc_encrypt,
    pkcs7_pad,
    pkcs7_unpad,
)
from repro.crypto.rijndael import Rijndael
from repro.crypto.sha1 import sha1

SEED = 20030310  # the paper's DATE 2003 session, fixed forever
CASES = 40

KEY_SIZES = (16, 24, 32)


def _rng() -> random.Random:
    return random.Random(SEED)


def _rand_bytes(rng: random.Random, n: int) -> bytes:
    return rng.randbytes(n)


class TestAesDifferential:
    """Reference Rijndael vs the T-table port, same inputs."""

    def test_encrypt_block_agrees(self):
        rng = _rng()
        for _ in range(CASES):
            key = _rand_bytes(rng, rng.choice(KEY_SIZES))
            block = _rand_bytes(rng, 16)
            assert (AesTTable(key).encrypt_block(block)
                    == Rijndael(key).encrypt_block(block))

    def test_decrypt_block_agrees(self):
        rng = _rng()
        for _ in range(CASES):
            key = _rand_bytes(rng, rng.choice(KEY_SIZES))
            block = _rand_bytes(rng, 16)
            assert (AesTTable(key).decrypt_block(block)
                    == Rijndael(key).decrypt_block(block))

    def test_round_trip_both_implementations(self):
        rng = _rng()
        for _ in range(CASES):
            key = _rand_bytes(rng, rng.choice(KEY_SIZES))
            block = _rand_bytes(rng, 16)
            for implementation in (AesTTable, Rijndael):
                cipher = implementation(key)
                assert cipher.decrypt_block(
                    cipher.encrypt_block(block)
                ) == block


class TestModesProperties:
    def test_ecb_cbc_round_trip_random_lengths(self):
        rng = _rng()
        for _ in range(CASES):
            cipher = AesTTable(_rand_bytes(rng, rng.choice(KEY_SIZES)))
            iv = _rand_bytes(rng, 16)
            plaintext = _rand_bytes(rng, rng.randrange(0, 200))
            padded = pkcs7_pad(plaintext, 16)
            assert pkcs7_unpad(
                cbc_decrypt(cipher, iv, cbc_encrypt(cipher, iv, padded)),
                16,
            ) == plaintext

    def test_cbc_differs_from_ecb_on_repeated_blocks(self):
        rng = _rng()
        cipher = AesTTable(_rand_bytes(rng, 16))
        iv = _rand_bytes(rng, 16)
        repeated = _rand_bytes(rng, 16) * 4
        cbc = cbc_encrypt(cipher, iv, repeated)
        # ECB would leak the repetition as four equal blocks; CBC must not.
        assert len({cbc[i:i + 16] for i in range(0, 64, 16)}) == 4


class TestHashDifferential:
    """The hand-ported digests against the platform's own."""

    def test_sha1_matches_hashlib(self):
        rng = _rng()
        # Lengths straddling the 64-byte block boundary and beyond.
        lengths = [0, 1, 55, 56, 63, 64, 65, 127, 128]
        lengths += [rng.randrange(0, 500) for _ in range(CASES)]
        for length in lengths:
            data = _rand_bytes(rng, length)
            assert sha1(data) == hashlib.sha1(data).digest()

    def test_md5_matches_hashlib(self):
        rng = _rng()
        lengths = [0, 1, 55, 56, 63, 64, 65, 127, 128]
        lengths += [rng.randrange(0, 500) for _ in range(CASES)]
        for length in lengths:
            data = _rand_bytes(rng, length)
            assert md5(data) == hashlib.md5(data).digest()

    def test_hmac_matches_stdlib(self):
        rng = _rng()
        for _ in range(CASES):
            # Keys shorter, equal to, and longer than the block size.
            key = _rand_bytes(rng, rng.choice([0, 1, 16, 64, 65, 200]))
            data = _rand_bytes(rng, rng.randrange(0, 300))
            assert hmac_sha1(key, data) == py_hmac.new(
                key, data, hashlib.sha1
            ).digest()
            assert Hmac(key, data, Md5).digest() == py_hmac.new(
                key, data, hashlib.md5
            ).digest()

    def test_hmac_incremental_matches_oneshot(self):
        rng = _rng()
        for _ in range(10):
            key = _rand_bytes(rng, 20)
            parts = [
                _rand_bytes(rng, rng.randrange(0, 50)) for _ in range(5)
            ]
            mac = Hmac(key)
            for part in parts:
                mac.update(part)
            assert mac.digest() == hmac_sha1(key, b"".join(parts))


class TestCorruptionMustFail:
    """One flipped bit anywhere in the protected stream must be caught
    -- the property every fault scenario's MAC-teardown check relies
    on."""

    def test_corrupted_cbc_never_yields_original(self):
        rng = _rng()
        for _ in range(CASES):
            cipher = AesTTable(_rand_bytes(rng, 16))
            iv = _rand_bytes(rng, 16)
            plaintext = _rand_bytes(rng, rng.randrange(1, 100))
            ciphertext = bytearray(
                cbc_encrypt(cipher, iv, pkcs7_pad(plaintext, 16))
            )
            position = rng.randrange(len(ciphertext))
            ciphertext[position] ^= 1 << rng.randrange(8)
            try:
                recovered = pkcs7_unpad(
                    cbc_decrypt(cipher, iv, bytes(ciphertext)), 16
                )
            except PaddingError:
                continue  # failing loudly is the good outcome
            assert recovered != plaintext

    def test_mac_catches_every_single_bit_flip(self):
        rng = _rng()
        key = _rand_bytes(rng, 20)
        message = _rand_bytes(rng, 48)
        tag = hmac_sha1(key, message)
        for position in range(len(message)):
            for bit in range(8):
                corrupted = bytearray(message)
                corrupted[position] ^= 1 << bit
                assert not host.digest_equal(
                    hmac_sha1(key, bytes(corrupted)), tag
                )

    def test_constant_time_equal_requires_equality(self):
        rng = _rng()
        for _ in range(CASES):
            data = _rand_bytes(rng, rng.randrange(1, 40))
            assert host.digest_equal(data, bytes(data))
            assert not host.digest_equal(data, data + b"\x00")


def test_seed_is_pinned():
    """The whole module is reproducible: same seed, same draws."""
    assert _rng().randbytes(8) == random.Random(SEED).randbytes(8)


if __name__ == "__main__":  # pragma: no cover
    pytest.main([__file__, "-v"])
