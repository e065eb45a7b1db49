"""SHA-1 / MD5 / HMAC tests against RFC vectors, hashlib, and streaming
properties."""

import hashlib
import hmac as py_hmac

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto import host
from repro.crypto.hmac import Hmac, hmac_sha1
from repro.crypto.md5 import Md5, md5
from repro.crypto.sha1 import Sha1, sha1


def test_sha1_rfc3174_vectors():
    assert sha1(b"abc").hex() == "a9993e364706816aba3e25717850c26c9cd0d89d"
    assert (
        sha1(b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq").hex()
        == "84983e441c3bd26ebaae4aa1f95129e5e54670f1"
    )


def test_sha1_empty():
    assert sha1(b"").hex() == "da39a3ee5e6b4b0d3255bfef95601890afd80709"


def test_md5_rfc1321_vectors():
    vectors = {
        b"": "d41d8cd98f00b204e9800998ecf8427e",
        b"a": "0cc175b9c0f1b6a831c399e269772661",
        b"abc": "900150983cd24fb0d6963f7d28e17f72",
        b"message digest": "f96b697d7cb7938d525a2f31aaf161d0",
        b"abcdefghijklmnopqrstuvwxyz": "c3fcd3d76192e4007dfb496cca67e13b",
    }
    for data, expected in vectors.items():
        assert md5(data).hex() == expected


@given(st.binary(max_size=500))
@settings(max_examples=100, deadline=None)
def test_sha1_matches_hashlib(data):
    assert sha1(data) == hashlib.sha1(data).digest()


@given(st.binary(max_size=500))
@settings(max_examples=100, deadline=None)
def test_md5_matches_hashlib(data):
    assert md5(data) == hashlib.md5(data).digest()


@given(st.lists(st.binary(max_size=100), max_size=10))
def test_sha1_streaming_equals_oneshot(chunks):
    h = Sha1()
    for chunk in chunks:
        h.update(chunk)
    assert h.digest() == sha1(b"".join(chunks))


@given(st.lists(st.binary(max_size=100), max_size=10))
def test_md5_streaming_equals_oneshot(chunks):
    h = Md5()
    for chunk in chunks:
        h.update(chunk)
    assert h.digest() == md5(b"".join(chunks))


def test_digest_does_not_consume_state():
    h = Sha1(b"hello")
    first = h.digest()
    assert h.digest() == first
    h.update(b" world")
    assert h.digest() == sha1(b"hello world")


def test_copy_is_independent():
    h = Md5(b"base")
    clone = h.copy()
    clone.update(b"more")
    assert h.digest() == md5(b"base")
    assert clone.digest() == md5(b"basemore")


@pytest.mark.parametrize("length", [55, 56, 57, 63, 64, 65, 119, 120, 128])
def test_padding_boundaries(length):
    # Lengths that straddle the 64-byte compression boundary.
    data = bytes(range(256))[:length] * 1
    data = (b"x" * length)
    assert sha1(data) == hashlib.sha1(data).digest()
    assert md5(data) == hashlib.md5(data).digest()


def test_hmac_rfc2202_sha1():
    assert (
        hmac_sha1(b"\x0b" * 20, b"Hi There").hex()
        == "b617318655057264e28bc0b6fb378c8ef146be00"
    )
    assert (
        hmac_sha1(b"Jefe", b"what do ya want for nothing?").hex()
        == "effcdf6ae5eb2fa2d27416d5f184df9c259a7c79"
    )


def test_hmac_rfc2202_md5():
    assert (
        Hmac(b"\x0b" * 16, b"Hi There", Md5).hexdigest()
        == "9294727a3638bb1c13f48ef8158bfc9d"
    )


@given(key=st.binary(min_size=1, max_size=128), data=st.binary(max_size=300))
@settings(max_examples=50, deadline=None)
def test_hmac_matches_stdlib(key, data):
    assert hmac_sha1(key, data) == py_hmac.new(key, data, hashlib.sha1).digest()
    assert Hmac(key, data, Md5).digest() == py_hmac.new(
        key, data, hashlib.md5).digest()


def test_hmac_long_key_is_hashed():
    key = b"k" * 200
    assert hmac_sha1(key, b"m") == py_hmac.new(key, b"m", hashlib.sha1).digest()


def test_hmac_streaming():
    h = Hmac(b"key")
    h.update(b"part one ")
    h.update(b"part two")
    assert h.digest() == hmac_sha1(b"key", b"part one part two")


def test_constant_time_equal():
    """The tag comparator the record layer uses."""
    assert host.digest_equal(b"abc", b"abc")
    assert not host.digest_equal(b"abc", b"abd")
    assert not host.digest_equal(b"abc", b"abcd")
    assert host.digest_equal(b"", b"")
