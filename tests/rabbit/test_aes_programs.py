"""The two AES implementations on the emulated board (DESIGN.md S13)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.rijndael import Rijndael
from repro.dync.compiler import CompilerOptions
from repro.rabbit.board import Board
from repro.rabbit.programs.aes_asm import AesAsm, build_aes_asm, generate_source
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


class TestAsmAes:
    def test_fips_vector(self, asm_aes):
        asm_aes.set_key(FIPS_KEY)
        ciphertext, _cycles = asm_aes.encrypt_block(FIPS_PT)
        assert ciphertext == FIPS_CT

    def test_appendix_a_vector(self, asm_aes):
        key = bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c")
        plaintext = bytes.fromhex("3243f6a8885a308d313198a2e0370734")
        asm_aes.set_key(key)
        ciphertext, _ = asm_aes.encrypt_block(plaintext)
        assert ciphertext.hex() == "3925841d02dc09fbdc118597196a0b32"

    @given(key=st.binary(min_size=16, max_size=16),
           block=st.binary(min_size=16, max_size=16))
    @settings(max_examples=5, deadline=None)
    def test_matches_reference(self, asm_aes, key, block):
        asm_aes.set_key(key)
        ciphertext, _ = asm_aes.encrypt_block(block)
        assert ciphertext == Rijndael(key).encrypt_block(block)

    def test_cycles_deterministic(self, asm_aes):
        asm_aes.set_key(FIPS_KEY)
        _, first = asm_aes.encrypt_block(FIPS_PT)
        asm_aes.set_key(FIPS_KEY)
        _, second = asm_aes.encrypt_block(FIPS_PT)
        assert first == second

    def test_rejects_bad_sizes(self, asm_aes):
        with pytest.raises(ValueError):
            asm_aes.set_key(bytes(8))
        with pytest.raises(ValueError):
            asm_aes.encrypt_block(bytes(8))

    def test_generated_source_is_unrolled(self):
        source = generate_source()
        # Nine middle rounds, each with four columns, fully unrolled.
        assert source.count("; round") == 36
        assert "djnz" not in source.split("aes_encrypt")[1].split("ret")[0]


class TestCAes:
    def test_fips_vector(self, c_aes):
        c_aes.set_key(FIPS_KEY)
        ciphertext, _ = c_aes.encrypt_block(FIPS_PT)
        assert ciphertext == FIPS_CT

    @given(key=st.binary(min_size=16, max_size=16),
           block=st.binary(min_size=16, max_size=16))
    @settings(max_examples=3, deadline=None)
    def test_matches_reference(self, c_aes, key, block):
        c_aes.set_key(key)
        ciphertext, _ = c_aes.encrypt_block(block)
        assert ciphertext == Rijndael(key).encrypt_block(block)

    def test_all_option_combinations_correct(self):
        for options in (CompilerOptions(debug=False),
                        CompilerOptions(optimize=True),
                        CompilerOptions(unroll=True),
                        CompilerOptions(data_placement="root_ram"),
                        CompilerOptions(data_placement="xmem")):
            implementation = AesC(Board(), build_aes_c(options))
            implementation.set_key(FIPS_KEY)
            ciphertext, _ = implementation.encrypt_block(FIPS_PT)
            assert ciphertext == FIPS_CT, options.describe()


class TestRelativePerformance:
    def test_asm_at_least_10x(self, asm_aes, c_aes):
        asm_aes.set_key(FIPS_KEY)
        c_aes.set_key(FIPS_KEY)
        _, asm_cycles = asm_aes.encrypt_block(FIPS_PT)
        _, c_cycles = c_aes.encrypt_block(FIPS_PT)
        assert c_cycles >= 10 * asm_cycles

    def test_key_schedule_also_faster(self, asm_aes, c_aes):
        asm_cycles = asm_aes.set_key(FIPS_KEY)
        c_cycles = c_aes.set_key(FIPS_KEY)
        assert c_cycles > 2 * asm_cycles
