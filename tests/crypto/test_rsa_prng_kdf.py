"""RSA, PRNG and KDF tests."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.kdf import derive_key_block, derive_master_secret, ssl3_prf
from repro.crypto.prng import CipherRng, Lcg
from repro.crypto.rsa import (
    RsaError,
    decrypt,
    encrypt,
    generate_keypair,
)


@pytest.fixture(scope="module")
def keypair():
    # Deterministic seed keeps the suite reproducible; 256 bits keeps it fast.
    return generate_keypair(256, CipherRng(b"rsa-test-seed"))


class TestLcg:
    def test_deterministic(self):
        a, b = Lcg(42), Lcg(42)
        assert [a.rand() for _ in range(20)] == [b.rand() for _ in range(20)]

    def test_seed_changes_stream(self):
        assert [Lcg(1).rand() for _ in range(5)] != [Lcg(2).rand() for _ in range(5)]

    def test_reseed(self):
        rng = Lcg(1)
        first = [rng.rand() for _ in range(5)]
        rng.seed(1)
        assert [rng.rand() for _ in range(5)] == first

    def test_range(self):
        rng = Lcg(7)
        for _ in range(1000):
            assert 0 <= rng.rand() <= 0x7FFF

    def test_ansi_c_reference_values(self):
        # First outputs of the ANSI C reference rand() with seed 1.
        rng = Lcg(1)
        assert [rng.rand() for _ in range(3)] == [16838, 5758, 10113]

    def test_next_bytes_length(self):
        assert len(Lcg(3).next_bytes(17)) == 17

    def test_u16_covers_both_bytes(self):
        rng = Lcg(11)
        values = {rng.next_u16() for _ in range(200)}
        assert any(v > 0xFF for v in values)
        assert len(values) > 100


class TestCipherRng:
    def test_deterministic(self):
        assert CipherRng(b"s").next_bytes(64) == CipherRng(b"s").next_bytes(64)

    def test_seed_sensitivity(self):
        assert CipherRng(b"s1").next_bytes(32) != CipherRng(b"s2").next_bytes(32)

    def test_stream_continuation(self):
        rng = CipherRng(b"s")
        combined = rng.next_bytes(10) + rng.next_bytes(22)
        assert combined == CipherRng(b"s").next_bytes(32)

    def test_output_looks_uniform(self):
        data = CipherRng(b"uniformity").next_bytes(4096)
        # Chi-squared-free sanity check: every byte value appears.
        assert len(set(data)) == 256


class TestRsa:
    def test_roundtrip(self, keypair):
        rng = CipherRng(b"pad")
        ct = encrypt(keypair.public_key(), b"hello", rng)
        assert decrypt(keypair, ct) == b"hello"

    def test_ciphertext_length_is_modulus_size(self, keypair):
        rng = CipherRng(b"pad")
        ct = encrypt(keypair.public_key(), b"x", rng)
        assert len(ct) == keypair.modulus_bytes

    def test_randomized_padding(self, keypair):
        rng = CipherRng(b"pad")
        c1 = encrypt(keypair.public_key(), b"same", rng)
        c2 = encrypt(keypair.public_key(), b"same", rng)
        assert c1 != c2
        assert decrypt(keypair, c1) == decrypt(keypair, c2) == b"same"

    def test_message_too_long(self, keypair):
        rng = CipherRng(b"pad")
        limit = keypair.modulus_bytes - 11
        encrypt(keypair.public_key(), b"x" * limit, rng)  # fits
        with pytest.raises(RsaError):
            encrypt(keypair.public_key(), b"x" * (limit + 1), rng)

    def test_tampered_ciphertext_rejected(self, keypair):
        rng = CipherRng(b"pad")
        ct = bytearray(encrypt(keypair.public_key(), b"msg", rng))
        ct[0] ^= 0xFF
        # Either the padding check fires or the plaintext differs.
        try:
            assert decrypt(keypair, bytes(ct)) != b"msg"
        except RsaError:
            pass

    def test_wrong_length_ciphertext(self, keypair):
        with pytest.raises(RsaError):
            decrypt(keypair, b"short")

    def test_keypair_algebra(self, keypair):
        # d*e == 1 mod phi(n) implies m^(ed) == m mod n.
        from repro.crypto.bignum import BigNum

        m = BigNum.from_int(12345)
        c = m.modexp(keypair.e, keypair.n)
        assert c.modexp(keypair.d, keypair.n) == m

    def test_modulus_bits_exact(self, keypair):
        assert keypair.n.bit_length() == 256

    def test_too_small_modulus_rejected(self):
        with pytest.raises(RsaError):
            generate_keypair(64, CipherRng(b"s"))


class TestKdf:
    def test_prf_deterministic(self):
        assert ssl3_prf(b"s", b"r", 48) == ssl3_prf(b"s", b"r", 48)

    def test_prf_length(self):
        for n in (1, 16, 47, 48, 49, 100):
            assert len(ssl3_prf(b"secret", b"seed", n)) == n

    def test_prf_secret_and_seed_sensitivity(self):
        base = ssl3_prf(b"s", b"r", 32)
        assert ssl3_prf(b"S", b"r", 32) != base
        assert ssl3_prf(b"s", b"R", 32) != base

    def test_prf_prefix_property(self):
        assert ssl3_prf(b"s", b"r", 16) == ssl3_prf(b"s", b"r", 64)[:16]

    def test_prf_limit(self):
        with pytest.raises(ValueError):
            ssl3_prf(b"s", b"r", 16 * 27)

    def test_master_secret_is_48_bytes(self):
        ms = derive_master_secret(b"pre", b"c" * 16, b"s" * 16)
        assert len(ms) == 48

    def test_key_block_directional_asymmetry(self):
        # Client and server randoms swap order between master-secret and
        # key-block derivation, so the two differ even with equal inputs.
        ms = derive_master_secret(b"pre", b"r" * 16, b"r" * 16)
        kb = derive_key_block(ms, b"r" * 16, b"r" * 16, 48)
        assert kb != ms

    @given(n=st.integers(min_value=1, max_value=200))
    @settings(max_examples=20, deadline=None)
    def test_key_block_length(self, n):
        assert len(derive_key_block(b"m" * 48, b"c", b"s", n)) == n
