"""issl handshake messages: encoding, decoding, and key derivation.

Message flow (RSA suites, the Unix build)::

    C -> S  ClientHello(client_random, offered suites)
    S -> C  ServerHello(server_random, chosen suite, RSA public key)
    C -> S  ClientKeyExchange(RSA-encrypted 48-byte pre-master secret)
    C -> S  ChangeCipherSpec ; Finished (under new keys)
    S -> C  ChangeCipherSpec ; Finished (under new keys)

PSK_AES128 (the port's RSA-less mode) replaces the public key with an
identity hint and the encrypted pre-master with an identity; both sides
form the pre-master from the shared key.  Key material then derives via
the SSL3-flavoured PRF in :mod:`repro.crypto.kdf`.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

from repro.crypto import host
from repro.crypto.bignum import BigNum
from repro.crypto.kdf import derive_key_block, derive_master_secret
from repro.crypto.rsa import RsaPublicKey
from repro.issl.config import CipherSuite

HS_CLIENT_HELLO = 1
HS_SERVER_HELLO = 2
HS_CLIENT_KEY_EXCHANGE = 16
HS_FINISHED = 20

RANDOM_LEN = 32
PRE_MASTER_LEN = 48
FINISHED_LEN = 36  # MD5 (16) + SHA1 (20)

MAC_KEY_LEN = 20
IV_LEN = 16


class HandshakeError(ValueError):
    """Raised on malformed or out-of-order handshake messages."""


def encode_handshake(msg_type: int, body: bytes) -> bytes:
    """``type(1) || length(3) || body`` framing inside handshake records."""
    if len(body) > 0xFFFFFF:
        raise HandshakeError("handshake body too long")
    return bytes([msg_type]) + len(body).to_bytes(3, "big") + body


def decode_handshake(data: bytes) -> tuple[int, bytes]:
    if len(data) < 4:
        raise HandshakeError(f"handshake message too short: {len(data)}")
    msg_type = data[0]
    length = int.from_bytes(data[1:4], "big")
    if len(data) != 4 + length:
        raise HandshakeError("handshake length mismatch")
    return msg_type, data[4:]


@dataclass(frozen=True)
class ClientHello:
    client_random: bytes
    suites: tuple[CipherSuite, ...]

    def encode(self) -> bytes:
        body = self.client_random + bytes([len(self.suites)])
        body += bytes(int(s) for s in self.suites)
        return encode_handshake(HS_CLIENT_HELLO, body)

    @classmethod
    def decode(cls, body: bytes) -> "ClientHello":
        if len(body) < RANDOM_LEN + 1:
            raise HandshakeError("ClientHello too short")
        random = body[:RANDOM_LEN]
        count = body[RANDOM_LEN]
        raw = body[RANDOM_LEN + 1: RANDOM_LEN + 1 + count]
        if len(raw) != count:
            raise HandshakeError("ClientHello suite list truncated")
        try:
            suites = tuple(CipherSuite(b) for b in raw)
        except ValueError as exc:
            raise HandshakeError(f"unknown cipher suite: {exc}") from exc
        return cls(random, suites)


@dataclass(frozen=True)
class ServerHello:
    server_random: bytes
    suite: CipherSuite
    rsa_n: bytes = b""   # RSA suites: modulus big-endian
    rsa_e: bytes = b""   # RSA suites: public exponent
    psk_hint: bytes = b""  # PSK suite: identity hint

    def encode(self) -> bytes:
        body = self.server_random + bytes([int(self.suite)])
        if self.suite.uses_rsa:
            body += struct.pack(">H", len(self.rsa_n)) + self.rsa_n
            body += struct.pack(">H", len(self.rsa_e)) + self.rsa_e
        else:
            body += struct.pack(">H", len(self.psk_hint)) + self.psk_hint
        return encode_handshake(HS_SERVER_HELLO, body)

    @classmethod
    def decode(cls, body: bytes) -> "ServerHello":
        if len(body) < RANDOM_LEN + 1:
            raise HandshakeError("ServerHello too short")
        random = body[:RANDOM_LEN]
        try:
            suite = CipherSuite(body[RANDOM_LEN])
        except ValueError as exc:
            raise HandshakeError(f"unknown suite: {exc}") from exc
        rest = body[RANDOM_LEN + 1:]

        def take(buf: bytes) -> tuple[bytes, bytes]:
            if len(buf) < 2:
                raise HandshakeError("ServerHello field truncated")
            n = struct.unpack(">H", buf[:2])[0]
            if len(buf) < 2 + n:
                raise HandshakeError("ServerHello field truncated")
            return buf[2: 2 + n], buf[2 + n:]

        if suite.uses_rsa:
            n_bytes, rest = take(rest)
            e_bytes, rest = take(rest)
            return cls(random, suite, rsa_n=n_bytes, rsa_e=e_bytes)
        hint, rest = take(rest)
        return cls(random, suite, psk_hint=hint)

    def public_key(self) -> RsaPublicKey:
        if not self.suite.uses_rsa:
            raise HandshakeError("no public key in a PSK ServerHello")
        return RsaPublicKey(
            n=BigNum.from_bytes(self.rsa_n), e=BigNum.from_bytes(self.rsa_e)
        )


@dataclass(frozen=True)
class ClientKeyExchange:
    suite: CipherSuite
    encrypted_pre_master: bytes = b""
    psk_identity: bytes = b""

    def encode(self) -> bytes:
        if self.suite.uses_rsa:
            payload = self.encrypted_pre_master
        else:
            payload = self.psk_identity
        body = struct.pack(">H", len(payload)) + payload
        return encode_handshake(HS_CLIENT_KEY_EXCHANGE, body)

    @classmethod
    def decode(cls, body: bytes, suite: CipherSuite) -> "ClientKeyExchange":
        if len(body) < 2:
            raise HandshakeError("ClientKeyExchange too short")
        n = struct.unpack(">H", body[:2])[0]
        payload = body[2: 2 + n]
        if len(payload) != n:
            raise HandshakeError("ClientKeyExchange truncated")
        if suite.uses_rsa:
            return cls(suite, encrypted_pre_master=payload)
        return cls(suite, psk_identity=payload)


def psk_pre_master(psk: bytes) -> bytes:
    """Pad the pre-shared key to the 48-byte pre-master shape."""
    if not psk:
        raise HandshakeError("empty pre-shared key")
    padded = (psk * ((PRE_MASTER_LEN // len(psk)) + 1))[:PRE_MASTER_LEN]
    return padded


def finished_verify(master: bytes, transcript: bytes, role: str) -> bytes:
    """The 36-byte Finished payload for ``role`` in {'client','server'}."""
    label = {"client": b"CLNT", "server": b"SRVR"}[role]
    data = master + transcript + label
    return host.md5(data) + host.sha1(data)


@dataclass(frozen=True)
class SessionKeys:
    """Both directions' record-layer keys."""

    client_mac: bytes
    server_mac: bytes
    client_key: bytes
    server_key: bytes
    client_iv: bytes
    server_iv: bytes
    master: bytes


def derive_session_keys(pre_master: bytes, client_random: bytes,
                        server_random: bytes, suite: CipherSuite) -> SessionKeys:
    """Master secret, then the key block, sliced per direction."""
    master = derive_master_secret(pre_master, client_random, server_random)
    key_len = suite.key_bytes
    block_len = 2 * MAC_KEY_LEN + 2 * key_len + 2 * IV_LEN
    block = derive_key_block(master, client_random, server_random, block_len)
    offset = 0

    def take(n: int) -> bytes:
        nonlocal offset
        piece = block[offset: offset + n]
        offset += n
        return piece

    return SessionKeys(
        client_mac=take(MAC_KEY_LEN),
        server_mac=take(MAC_KEY_LEN),
        client_key=take(key_len),
        server_key=take(key_len),
        client_iv=take(IV_LEN),
        server_iv=take(IV_LEN),
        master=master,
    )
