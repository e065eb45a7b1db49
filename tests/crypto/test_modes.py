"""Block-mode and padding tests."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.aes_ttable import AesTTable
from repro.crypto.modes import (
    PaddingError,
    cbc_decrypt,
    cbc_encrypt,
    pkcs7_pad,
    pkcs7_unpad,
)
from repro.crypto.rijndael import Rijndael

KEY = bytes(range(16))
IV = bytes(range(16, 32))


@pytest.fixture(scope="module")
def cipher():
    return AesTTable(KEY)


@given(st.binary(max_size=100), st.sampled_from([8, 16, 24, 32]))
def test_pkcs7_roundtrip(data, block_size):
    padded = pkcs7_pad(data, block_size)
    assert len(padded) % block_size == 0
    assert len(padded) > len(data)
    assert pkcs7_unpad(padded, block_size) == data


def test_pkcs7_always_adds_padding():
    # A full block of data gets a whole extra block of padding.
    padded = pkcs7_pad(bytes(16), 16)
    assert len(padded) == 32
    assert padded[-1] == 16


def test_pkcs7_unpad_rejects_garbage():
    with pytest.raises(PaddingError):
        pkcs7_unpad(b"", 16)
    with pytest.raises(PaddingError):
        pkcs7_unpad(bytes(15), 16)
    with pytest.raises(PaddingError):
        pkcs7_unpad(bytes(16), 16)  # pad byte 0 invalid
    with pytest.raises(PaddingError):
        pkcs7_unpad(b"\x01" * 15 + b"\x11", 16)  # pad byte 17 > block
    with pytest.raises(PaddingError):
        pkcs7_unpad(b"\x00" * 14 + b"\x01\x02", 16)  # inconsistent bytes


def test_pkcs7_bad_block_size():
    with pytest.raises(ValueError):
        pkcs7_pad(b"x", 0)
    with pytest.raises(ValueError):
        pkcs7_pad(b"x", 256)


@given(data=st.binary(max_size=96))
@settings(max_examples=30, deadline=None)
def test_cbc_roundtrip_padded(data):
    cipher = AesTTable(KEY)
    padded = pkcs7_pad(data, 16)
    ct = cbc_encrypt(cipher, IV, padded)
    assert len(ct) == len(padded)
    assert pkcs7_unpad(cbc_decrypt(cipher, IV, ct), 16) == data


def test_cbc_chaining_differs_from_ecb(cipher):
    # Two identical plaintext blocks: ECB would repeat, CBC does not.
    pt = bytes(16) * 2
    cbc = cbc_encrypt(cipher, IV, pt)
    assert cbc[:16] == cipher.encrypt_block(IV)  # zero block XOR IV
    assert cbc[16:] == cipher.encrypt_block(cbc[:16])
    assert cbc[:16] != cbc[16:]


def test_cbc_iv_sensitivity(cipher):
    pt = pkcs7_pad(b"secret", 16)
    assert cbc_encrypt(cipher, IV, pt) != cbc_encrypt(cipher, bytes(16), pt)


def test_cbc_rejects_bad_iv(cipher):
    with pytest.raises(ValueError):
        cbc_encrypt(cipher, b"short", bytes(16))
    with pytest.raises(ValueError):
        cbc_decrypt(cipher, b"short", bytes(16))


def test_cbc_rejects_partial_blocks(cipher):
    with pytest.raises(ValueError):
        cbc_encrypt(cipher, IV, bytes(15))
    with pytest.raises(ValueError):
        cbc_decrypt(cipher, IV, bytes(17))


def test_modes_work_with_reference_cipher():
    ref = Rijndael(KEY)
    pt = pkcs7_pad(b"interop", 16)
    assert cbc_decrypt(ref, IV, cbc_encrypt(ref, IV, pt)) == pt


def test_modes_work_with_large_blocks():
    big = Rijndael(KEY, block_bits=256)
    pt = pkcs7_pad(b"large-block rijndael", 32)
    assert pkcs7_unpad(cbc_decrypt(big, bytes(32), cbc_encrypt(big, bytes(32), pt)), 32) \
        == b"large-block rijndael"
