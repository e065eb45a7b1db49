"""NIST SP 800-38A known-answer tests for CBC over AES-128."""

import pytest

from repro.crypto.aes_ttable import AesTTable
from repro.crypto.modes import cbc_decrypt, cbc_encrypt
from repro.crypto.rijndael import Rijndael

# SP 800-38A F.2.1 (CBC-AES128) vectors.
KEY = bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c")
PLAINTEXT = bytes.fromhex(
    "6bc1bee22e409f96e93d7e117393172a"
    "ae2d8a571e03ac9c9eb76fac45af8e51"
    "30c81c46a35ce411e5fbc1191a0a52ef"
    "f69f2445df4f9b17ad2b417be66c3710"
)

CBC_IV = bytes.fromhex("000102030405060708090a0b0c0d0e0f")
CBC_CIPHERTEXT = bytes.fromhex(
    "7649abac8119b246cee98e9b12e9197d"
    "5086cb9b507219ee95db113a917678b2"
    "73bed6b8e3c1743b7116e69e22229516"
    "3ff1caa1681fac09120eca307586e1a7"
)

@pytest.mark.parametrize("cipher_cls", [AesTTable, Rijndael])
def test_cbc_encrypt_nist_f21(cipher_cls):
    cipher = cipher_cls(KEY)
    assert cbc_encrypt(cipher, CBC_IV, PLAINTEXT) == CBC_CIPHERTEXT


@pytest.mark.parametrize("cipher_cls", [AesTTable, Rijndael])
def test_cbc_decrypt_nist_f22(cipher_cls):
    cipher = cipher_cls(KEY)
    assert cbc_decrypt(cipher, CBC_IV, CBC_CIPHERTEXT) == PLAINTEXT


def test_board_aes_matches_nist_cbc_first_block():
    """Close the loop: the emulated Rabbit's AES agrees with NIST too."""
    from repro.rabbit.board import Board
    from repro.rabbit.programs.aes_asm import AesAsm, build_aes_asm

    implementation = AesAsm(Board(), build_aes_asm())
    implementation.set_key(KEY)
    first_input = bytes(a ^ b for a, b in zip(PLAINTEXT[:16], CBC_IV))
    ciphertext, _cycles = implementation.encrypt_block(first_input)
    assert ciphertext == CBC_CIPHERTEXT[:16]
