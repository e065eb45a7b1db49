"""``repro.crypto.host`` against the from-scratch reference crypto.

The running system hashes, MACs and encrypts through ``host`` (stdlib
``hashlib``/``hmac`` plus the T-table AES); the hand-written ``Sha1``,
``Md5``, ``Hmac`` and ``Rijndael`` are the specification.  Each host
function must agree with its reference on generated keys and messages,
and so must the PRF built on top of them.
"""

from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto import host, modes
from repro.crypto.hmac import Hmac
from repro.crypto.kdf import derive_key_block, derive_master_secret, ssl3_prf
from repro.crypto.md5 import md5
from repro.crypto.rijndael import Rijndael
from repro.crypto.sha1 import Sha1, sha1

#: Lengths up to 300 straddle the 64-byte hash block several times.
messages = st.binary(max_size=300)
#: Keys shorter than, equal to and longer than the HMAC block size.
mac_keys = st.binary(max_size=130)
aes_keys = st.sampled_from((16, 24, 32)).flatmap(
    lambda n: st.binary(min_size=n, max_size=n)
)
blocks = st.binary(min_size=16, max_size=16)


def reference_prf(secret: bytes, seed: bytes, nbytes: int) -> bytes:
    """SSL 3.0 key expansion from the reference MD5 and SHA-1."""
    out = b""
    for i in range(1, 27):
        if len(out) >= nbytes:
            break
        label = bytes([ord("A") + i - 1]) * i
        out += md5(secret + sha1(label + secret + seed))
    return out[:nbytes]


@given(data=messages)
@settings(max_examples=60, deadline=None)
def test_sha1_matches_reference(data):
    assert host.sha1(data) == sha1(data)


@given(data=messages)
@settings(max_examples=60, deadline=None)
def test_md5_matches_reference(data):
    assert host.md5(data) == md5(data)


@given(key=mac_keys, data=messages)
@settings(max_examples=60, deadline=None)
def test_hmac_sha1_matches_reference(key, data):
    assert host.hmac_sha1(key, data) == Hmac(key, data, Sha1).digest()


@given(key=aes_keys, block=blocks)
@settings(max_examples=40, deadline=None)
def test_aes_matches_reference_rijndael(key, block):
    cipher, reference = host.aes(key), Rijndael(key)
    assert cipher.block_size == reference.block_size == 16
    assert cipher.encrypt_block(block) == reference.encrypt_block(block)
    assert cipher.decrypt_block(block) == reference.decrypt_block(block)


@given(tag=st.binary(min_size=1, max_size=36), position=st.integers(0, 35))
@settings(max_examples=40, deadline=None)
def test_digest_equal_matches_reference(tag, position):
    """Equal, one-bit-different, longer and shorter tags."""
    flipped = bytearray(tag)
    flipped[position % len(tag)] ^= 0x01
    for other, equal in ((bytes(tag), True), (bytes(flipped), False),
                         (tag + b"\x00", False), (tag[:-1], False)):
        assert host.digest_equal(tag, other) == equal


@given(secret=messages, seed=st.binary(max_size=80),
       nbytes=st.integers(min_value=0, max_value=16 * 26))
@settings(max_examples=40, deadline=None)
def test_ssl3_prf_matches_reference(secret, seed, nbytes):
    assert ssl3_prf(secret, seed, nbytes) == reference_prf(secret, seed, nbytes)


@given(pre_master=st.binary(min_size=48, max_size=48),
       client_random=st.binary(min_size=32, max_size=32),
       server_random=st.binary(min_size=32, max_size=32),
       nbytes=st.integers(min_value=1, max_value=136))
@settings(max_examples=25, deadline=None)
def test_key_schedule_matches_reference(pre_master, client_random,
                                        server_random, nbytes):
    master = derive_master_secret(pre_master, client_random, server_random)
    assert master == reference_prf(pre_master, client_random + server_random, 48)
    assert derive_key_block(master, client_random, server_random, nbytes) == (
        reference_prf(master, server_random + client_random, nbytes)
    )


#: One CBC call: encrypt?, key, IV, which recent input or output to
#: reuse as data (0: the last output, 1: the last input, ...), and a bit
#: to flip in it (None: none).
cbc_calls = st.tuples(st.booleans(), st.integers(0, 1), st.integers(0, 1),
                      st.integers(0, 3),
                      st.none() | st.integers(0, 8 * 48 - 1))


@given(keys=st.lists(aes_keys, min_size=1, max_size=2),
       ivs=st.lists(blocks, min_size=2, max_size=2, unique=True),
       seeds=st.lists(st.integers(0, 3).flatmap(
           lambda n: st.binary(min_size=16 * n, max_size=16 * n)),
           min_size=1, max_size=2),
       calls=st.lists(cbc_calls, min_size=1, max_size=12),
       bound=st.sampled_from((64, 160, host._CBC_MEMO_MAX_BYTES)))
@settings(max_examples=60, deadline=None)
def test_cbc_matches_reference_modes(keys, ivs, seeds, calls, bound):
    """``host.cbc_*`` against ``modes.cbc_*`` over the reference
    ``Rijndael``.  Data is drawn from earlier inputs and outputs, so a
    sequence repeats calls exactly, decrypts its own output, decrypts an
    earlier plaintext and reuses data under another IV; flipped bits
    tamper with any of them.  Each sequence starts from an empty memo,
    and the smaller bounds clear it mid-sequence."""
    pool = list(seeds)
    with mock.patch.multiple(host, _CBC_MEMO={}, _cbc_memo_bytes=0,
                             _CBC_MEMO_MAX_BYTES=bound):
        for encrypt, key_at, iv_at, back, flip in calls:
            key, iv = keys[key_at % len(keys)], ivs[iv_at]
            data = bytearray(pool[-1 - back % len(pool)])
            if data and flip is not None:
                data[flip % (8 * len(data)) // 8] ^= 1 << flip % 8
            data = bytes(data)
            if encrypt:
                got = host.cbc_encrypt(key, iv, data)
                want = modes.cbc_encrypt(Rijndael(key), iv, data)
            else:
                got = host.cbc_decrypt(key, iv, data)
                want = modes.cbc_decrypt(Rijndael(key), iv, data)
            assert got == want
            pool += [data, got]
