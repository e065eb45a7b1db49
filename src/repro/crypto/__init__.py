"""Cryptographic substrate for issl (see DESIGN.md, S6).

Everything is implemented from scratch in this package: GF(2^8)
arithmetic, Rijndael with variable key and block sizes, the T-table AES
used as the optimized comparator, block modes, MD5/SHA-1/HMAC, a
16-bit-limb bignum, RSA, and PRNGs.

The running system gets its host crypto through :mod:`repro.crypto.host`
(stdlib ``hashlib``/``hmac``, and the T-table AES the stdlib lacks); the
from-scratch hashes, HMAC and Rijndael are the spec it is tested against.
"""

from repro.crypto.aes_ttable import AesTTable
from repro.crypto.bignum import BigNum, BignumError, generate_prime, is_probable_prime
from repro.crypto.hmac import Hmac, hmac_sha1
from repro.crypto.kdf import derive_key_block, derive_master_secret, ssl3_prf
from repro.crypto.md5 import Md5, md5
from repro.crypto.modes import (
    PaddingError,
    cbc_decrypt,
    cbc_encrypt,
    pkcs7_pad,
    pkcs7_unpad,
)
from repro.crypto.prng import CipherRng, Lcg
from repro.crypto.rijndael import Rijndael, RijndaelError, expand_key
from repro.crypto.rsa import (
    RsaError,
    RsaPrivateKey,
    RsaPublicKey,
    decrypt,
    encrypt,
    generate_keypair,
)
from repro.crypto.sha1 import Sha1, sha1

__all__ = [
    "AesTTable",
    "BigNum",
    "BignumError",
    "CipherRng",
    "Hmac",
    "Lcg",
    "Md5",
    "PaddingError",
    "Rijndael",
    "RijndaelError",
    "RsaError",
    "RsaPrivateKey",
    "RsaPublicKey",
    "Sha1",
    "cbc_decrypt",
    "cbc_encrypt",
    "decrypt",
    "derive_key_block",
    "derive_master_secret",
    "encrypt",
    "expand_key",
    "generate_keypair",
    "generate_prime",
    "hmac_sha1",
    "is_probable_prime",
    "md5",
    "pkcs7_pad",
    "pkcs7_unpad",
    "sha1",
    "ssl3_prf",
]
