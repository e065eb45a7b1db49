"""AES decryption on the board, both implementations."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.rijndael import Rijndael
from repro.dync.compiler import CompilerOptions
from repro.rabbit.board import Board
from repro.rabbit.programs.aes_asm import AesAsm, build_aes_asm
from repro.rabbit.programs.aes_c import AesC, build_aes_c

FIPS_KEY = bytes.fromhex("000102030405060708090a0b0c0d0e0f")
FIPS_PT = bytes.fromhex("00112233445566778899aabbccddeeff")
FIPS_CT = bytes.fromhex("69c4e0d86a7b0430d8cdb78070b4c55a")


@pytest.fixture(scope="module")
def asm_aes():
    return AesAsm(Board(), build_aes_asm())


@pytest.fixture(scope="module")
def c_aes():
    return AesC(Board(), build_aes_c(CompilerOptions()))


class TestAsmDecrypt:
    def test_fips_vector(self, asm_aes):
        asm_aes.set_key(FIPS_KEY)
        plaintext, _cycles = asm_aes.decrypt_block(FIPS_CT)
        assert plaintext == FIPS_PT

    @given(key=st.binary(min_size=16, max_size=16),
           block=st.binary(min_size=16, max_size=16))
    @settings(max_examples=5, deadline=None)
    def test_roundtrip(self, asm_aes, key, block):
        asm_aes.set_key(key)
        ciphertext, _ = asm_aes.encrypt_block(block)
        plaintext, _ = asm_aes.decrypt_block(ciphertext)
        assert plaintext == block

    def test_matches_reference_decrypt(self, asm_aes):
        key = bytes(range(16, 32))
        ciphertext = bytes(range(16))
        asm_aes.set_key(key)
        plaintext, _ = asm_aes.decrypt_block(ciphertext)
        assert plaintext == Rijndael(key).decrypt_block(ciphertext)

    def test_decrypt_cycles_same_order_as_encrypt(self, asm_aes):
        asm_aes.set_key(FIPS_KEY)
        _, enc_cycles = asm_aes.encrypt_block(FIPS_PT)
        _, dec_cycles = asm_aes.decrypt_block(FIPS_CT)
        # InvMixColumns costs a bit more (4 tables); same magnitude.
        assert enc_cycles < dec_cycles < 2 * enc_cycles

    def test_rejects_bad_block(self, asm_aes):
        with pytest.raises(ValueError):
            asm_aes.decrypt_block(bytes(15))


class TestCDecrypt:
    def test_fips_vector(self, c_aes):
        c_aes.set_key(FIPS_KEY)
        plaintext, _ = c_aes.decrypt_block(FIPS_CT)
        assert plaintext == FIPS_PT

    def test_roundtrip(self, c_aes):
        key = b"0123456789abcdef"
        block = b"fedcba9876543210"
        c_aes.set_key(key)
        ciphertext, _ = c_aes.encrypt_block(block)
        plaintext, _ = c_aes.decrypt_block(ciphertext)
        assert plaintext == block

    def test_optimized_build_decrypts(self):
        implementation = AesC(Board(), build_aes_c(
            CompilerOptions(debug=False, optimize=True,
                            data_placement="root_ram"),
        ))
        implementation.set_key(FIPS_KEY)
        plaintext, _ = implementation.decrypt_block(FIPS_CT)
        assert plaintext == FIPS_PT


class TestDecryptGap:
    def test_asm_decrypt_also_order_of_magnitude_faster(self, asm_aes, c_aes):
        asm_aes.set_key(FIPS_KEY)
        c_aes.set_key(FIPS_KEY)
        _, asm_cycles = asm_aes.decrypt_block(FIPS_CT)
        _, c_cycles = c_aes.decrypt_block(FIPS_CT)
        assert c_cycles >= 10 * asm_cycles

    def test_c_decrypt_slower_than_c_encrypt(self, c_aes):
        # InvMixColumns needs 4 multiplications per byte vs ~2; the
        # naive port pays the full price (real deployments noticed).
        c_aes.set_key(FIPS_KEY)
        _, enc = c_aes.encrypt_block(FIPS_PT)
        _, dec = c_aes.decrypt_block(FIPS_CT)
        assert dec > 1.5 * enc
