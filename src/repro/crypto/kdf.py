"""Session-key derivation (the SSL 3.0-flavoured PRF issl used).

Key material expansion mixes MD5 and SHA-1 the way SSL 3.0 did:
``block_i = MD5(secret || SHA1(label_i || secret || seed))`` with
labels 'A', 'BB', 'CCC', ...  The exact construction matters less than
its properties (deterministic, keyed, domain-separated); we follow the
historical one so the handshake transcript reads like the early-2000s
stack the paper ported.
"""

from __future__ import annotations

from repro.crypto import host


def ssl3_prf(secret: bytes, seed: bytes, nbytes: int) -> bytes:
    """Expand ``secret`` + ``seed`` into ``nbytes`` of key material."""
    out = bytearray()
    i = 0
    while len(out) < nbytes:
        i += 1
        if i > 26:
            raise ValueError("requested too much key material")
        label = bytes([ord("A") + i - 1]) * i
        out += host.md5(secret + host.sha1(label + secret + seed))
    return bytes(out[:nbytes])


def derive_master_secret(pre_master: bytes, client_random: bytes,
                         server_random: bytes) -> bytes:
    """48-byte master secret from the pre-master secret and nonces."""
    return ssl3_prf(pre_master, client_random + server_random, 48)


def derive_key_block(master: bytes, client_random: bytes,
                     server_random: bytes, nbytes: int) -> bytes:
    """Expand the master secret into the record-layer key block."""
    return ssl3_prf(master, server_random + client_random, nbytes)
