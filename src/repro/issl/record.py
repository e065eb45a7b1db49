"""issl record layer: framing, MAC-then-encrypt, sequence numbers.

Wire format per record (SSL 3.0-shaped):

    type(1) | version(2) = 0x0300 | length(2) | body

Before keys are established the body is plaintext.  After the key
switch, ``body = CBC-AES(key, payload || HMAC-SHA1(mac_key, seq || type
|| len || payload) || PKCS#7 pad)`` with the IV carried forward from the
previous record's last ciphertext block (CBC residue, as SSL 3.0 did).
Sequence numbers are implicit 64-bit counters, so replayed or reordered
records fail their MAC.
"""

from __future__ import annotations

import struct

from repro.crypto import host
from repro.crypto.modes import PaddingError, pkcs7_pad, pkcs7_unpad

VERSION = 0x0300
HEADER_LEN = 5

CT_CHANGE_CIPHER_SPEC = 20
CT_ALERT = 21
CT_HANDSHAKE = 22
CT_APPLICATION_DATA = 23

CONTENT_TYPES = (
    CT_CHANGE_CIPHER_SPEC,
    CT_ALERT,
    CT_HANDSHAKE,
    CT_APPLICATION_DATA,
)

MAC_LEN = 20
AES_BLOCK = 16


class RecordError(ValueError):
    """Raised on malformed records or MAC failures."""


class RecordCipherState:
    """One direction's keys: AES key, MAC secret, rolling IV, sequence."""

    def __init__(self, key: bytes, mac_key: bytes, iv: bytes):
        self.key = host.aes_key(key)
        self.mac_key = mac_key
        self.iv = iv
        self.seq = 0

    def _mac(self, content_type: int, payload: bytes) -> bytes:
        header = struct.pack(">QBH", self.seq, content_type, len(payload))
        return host.hmac_sha1(self.mac_key, header + payload)

    def seal(self, content_type: int, payload: bytes) -> bytes:
        """Protect ``payload``; advances the sequence number."""
        mac = self._mac(content_type, payload)
        plaintext = pkcs7_pad(payload + mac, AES_BLOCK)
        ciphertext = host.cbc_encrypt(self.key, self.iv, plaintext)
        self.iv = ciphertext[-AES_BLOCK:]
        self.seq += 1
        return ciphertext

    def open(self, content_type: int, ciphertext: bytes) -> bytes:
        """Verify and strip protection; advances the sequence number."""
        if len(ciphertext) % AES_BLOCK or not ciphertext:
            raise RecordError("ciphertext not a whole number of blocks")
        plaintext = host.cbc_decrypt(self.key, self.iv, ciphertext)
        try:
            unpadded = pkcs7_unpad(plaintext, AES_BLOCK)
        except PaddingError as exc:
            raise RecordError(f"bad record padding: {exc}") from exc
        if len(unpadded) < MAC_LEN:
            raise RecordError("record shorter than its MAC")
        payload, mac = unpadded[:-MAC_LEN], unpadded[-MAC_LEN:]
        expected = self._mac(content_type, payload)
        if not host.digest_equal(mac, expected):
            raise RecordError("bad record MAC")
        self.iv = ciphertext[-AES_BLOCK:]
        self.seq += 1
        return payload


def encode_record(content_type: int, body: bytes) -> bytes:
    """Attach the 5-byte record header."""
    if content_type not in CONTENT_TYPES:
        raise RecordError(f"bad content type {content_type}")
    if len(body) > 0xFFFF:
        raise RecordError(f"record body too long: {len(body)}")
    return struct.pack(">BHH", content_type, VERSION, len(body)) + body


def decode_header(header: bytes) -> tuple[int, int]:
    """Parse the header; returns (content_type, body_length)."""
    if len(header) != HEADER_LEN:
        raise RecordError(f"header must be {HEADER_LEN} bytes")
    content_type, version, length = struct.unpack(">BHH", header)
    if content_type not in CONTENT_TYPES:
        raise RecordError(f"bad content type {content_type}")
    if version != VERSION:
        raise RecordError(f"bad version {version:#06x}")
    return content_type, length


# Alert descriptions (subset).
ALERT_CLOSE_NOTIFY = 0
ALERT_UNEXPECTED_MESSAGE = 10
ALERT_BAD_RECORD_MAC = 20
ALERT_HANDSHAKE_FAILURE = 40


def encode_alert(level: int, description: int) -> bytes:
    return bytes([level, description])


def decode_alert(body: bytes) -> tuple[int, int]:
    if len(body) != 2:
        raise RecordError(f"alert body must be 2 bytes, got {len(body)}")
    return body[0], body[1]
