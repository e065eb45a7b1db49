"""Block cipher modes of operation and padding used by issl.

issl secures a TCP byte stream, so its record layer needs CBC (with
PKCS#7 padding) for bulk data.  CBC works with any object exposing
``block_size``, ``encrypt_block`` and ``decrypt_block``.
"""

from __future__ import annotations


class PaddingError(ValueError):
    """Raised when PKCS#7 unpadding encounters malformed input."""


def pkcs7_pad(data: bytes, block_size: int) -> bytes:
    """Pad ``data`` to a multiple of ``block_size`` (always adds >= 1 byte)."""
    if not 1 <= block_size <= 255:
        raise ValueError(f"block_size out of range: {block_size}")
    pad = block_size - (len(data) % block_size)
    return data + bytes([pad] * pad)


def pkcs7_unpad(data: bytes, block_size: int) -> bytes:
    """Remove PKCS#7 padding, validating every pad byte."""
    if not data or len(data) % block_size:
        raise PaddingError("input not a whole number of blocks")
    pad = data[-1]
    if not 1 <= pad <= block_size:
        raise PaddingError(f"invalid pad byte {pad:#x}")
    if data[-pad:] != bytes([pad] * pad):
        raise PaddingError("inconsistent padding bytes")
    return data[:-pad]


def _check_blocks(data: bytes, block_size: int, what: str) -> None:
    if len(data) % block_size:
        raise ValueError(
            f"{what} length {len(data)} is not a multiple of {block_size}"
        )


def cbc_encrypt(cipher, iv: bytes, plaintext: bytes) -> bytes:
    """CBC over already-padded ``plaintext``."""
    bs = cipher.block_size
    if len(iv) != bs:
        raise ValueError(f"IV must be {bs} bytes, got {len(iv)}")
    _check_blocks(plaintext, bs, "plaintext")
    out = bytearray()
    prev = iv
    for i in range(0, len(plaintext), bs):
        block = int.from_bytes(plaintext[i: i + bs], "big") ^ int.from_bytes(prev, "big")
        prev = cipher.encrypt_block(block.to_bytes(bs, "big"))
        out += prev
    return bytes(out)


def cbc_decrypt(cipher, iv: bytes, ciphertext: bytes) -> bytes:
    bs = cipher.block_size
    if len(iv) != bs:
        raise ValueError(f"IV must be {bs} bytes, got {len(iv)}")
    _check_blocks(ciphertext, bs, "ciphertext")
    out = bytearray()
    prev = iv
    for i in range(0, len(ciphertext), bs):
        block = ciphertext[i: i + bs]
        plain = int.from_bytes(cipher.decrypt_block(block), "big")
        out += (plain ^ int.from_bytes(prev, "big")).to_bytes(bs, "big")
        prev = block
    return bytes(out)

