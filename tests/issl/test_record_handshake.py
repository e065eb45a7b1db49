"""issl record layer and handshake message tests."""

import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.hmac import Hmac
from repro.crypto.modes import cbc_encrypt, pkcs7_pad
from repro.crypto.rijndael import Rijndael
from repro.crypto.sha1 import Sha1
from repro.issl.config import CipherSuite
from repro.issl.handshake import (
    ClientHello,
    ClientKeyExchange,
    decode_handshake,
    derive_session_keys,
    encode_handshake,
    finished_verify,
    HandshakeError,
    psk_pre_master,
    ServerHello,
)
from repro.issl.record import (
    CT_APPLICATION_DATA,
    CT_HANDSHAKE,
    decode_alert,
    decode_header,
    encode_alert,
    encode_record,
    HEADER_LEN,
    RecordCipherState,
    RecordError,
)


def _state_pair():
    key, mac, iv = bytes(16), bytes(range(20)), bytes(range(16))
    return (RecordCipherState(key, mac, iv),
            RecordCipherState(key, mac, iv))


class TestRecordLayer:
    def test_header_roundtrip(self):
        record = encode_record(CT_HANDSHAKE, b"body")
        content_type, length = decode_header(record[:HEADER_LEN])
        assert content_type == CT_HANDSHAKE
        assert length == 4

    def test_header_rejects_bad_type_and_version(self):
        with pytest.raises(RecordError):
            encode_record(99, b"")
        with pytest.raises(RecordError):
            decode_header(b"\x17\x04\x00\x00\x00")  # version 0x0400

    def test_oversized_record(self):
        with pytest.raises(RecordError):
            encode_record(CT_APPLICATION_DATA, bytes(70000))

    @given(payload=st.binary(max_size=200))
    @settings(max_examples=25, deadline=None)
    def test_seal_open_roundtrip(self, payload):
        sender, receiver = _state_pair()
        sealed = sender.seal(CT_APPLICATION_DATA, payload)
        assert receiver.open(CT_APPLICATION_DATA, sealed) == payload

    def test_sequence_numbers_prevent_replay(self):
        sender, receiver = _state_pair()
        first = sender.seal(CT_APPLICATION_DATA, b"one")
        assert receiver.open(CT_APPLICATION_DATA, first) == b"one"
        with pytest.raises(RecordError):
            receiver.open(CT_APPLICATION_DATA, first)  # replayed

    def test_reordering_detected(self):
        sender, receiver = _state_pair()
        first = sender.seal(CT_APPLICATION_DATA, b"one")
        second = sender.seal(CT_APPLICATION_DATA, b"two")
        with pytest.raises(RecordError):
            receiver.open(CT_APPLICATION_DATA, second)
        # ...and the state is not advanced by the failure:
        assert receiver.open(CT_APPLICATION_DATA, first) == b"one"

    def test_tamper_detected(self):
        sender, receiver = _state_pair()
        sealed = bytearray(sender.seal(CT_APPLICATION_DATA, b"payload"))
        sealed[0] ^= 0x01
        with pytest.raises(RecordError):
            receiver.open(CT_APPLICATION_DATA, bytes(sealed))

    def test_wrong_content_type_fails_mac(self):
        sender, receiver = _state_pair()
        sealed = sender.seal(CT_APPLICATION_DATA, b"data")
        with pytest.raises(RecordError):
            receiver.open(CT_HANDSHAKE, sealed)

    def test_ciphertext_grows_by_mac_and_padding(self):
        sender, _ = _state_pair()
        sealed = sender.seal(CT_APPLICATION_DATA, b"x" * 10)
        # 10 + 20 MAC = 30 -> padded to 32.
        assert len(sealed) == 32

    @given(key=st.sampled_from((16, 24, 32)).flatmap(
               lambda n: st.binary(min_size=n, max_size=n)),
           mac_key=st.binary(min_size=20, max_size=20),
           iv=st.binary(min_size=16, max_size=16),
           payloads=st.lists(st.binary(max_size=100), min_size=1, max_size=3))
    @settings(max_examples=25, deadline=None)
    def test_reference_implementation_interoperates(self, key, mac_key, iv,
                                                    payloads):
        """The production state against records built by hand from the
        reference Rijndael, CBC and HMAC-SHA1, across sequence numbers
        and the chained IV."""
        sealer = RecordCipherState(key, mac_key, iv)
        opener = RecordCipherState(key, mac_key, iv)
        for seq, payload in enumerate(payloads):
            header = struct.pack(">QBH", seq, CT_APPLICATION_DATA, len(payload))
            mac = Hmac(mac_key, header + payload, Sha1).digest()
            reference = cbc_encrypt(Rijndael(key), iv,
                                    pkcs7_pad(payload + mac, 16))
            assert sealer.seal(CT_APPLICATION_DATA, payload) == reference
            assert opener.open(CT_APPLICATION_DATA, reference) == payload
            iv = reference[-16:]

    def test_alert_encoding(self):
        assert decode_alert(encode_alert(1, 0)) == (1, 0)
        with pytest.raises(RecordError):
            decode_alert(b"\x01")


class TestHandshakeMessages:
    def test_framing_roundtrip(self):
        encoded = encode_handshake(1, b"hello")
        assert decode_handshake(encoded) == (1, b"hello")

    def test_framing_rejects_truncation(self):
        encoded = encode_handshake(1, b"hello")
        with pytest.raises(HandshakeError):
            decode_handshake(encoded[:-1])

    def test_client_hello_roundtrip(self):
        hello = ClientHello(bytes(range(32)),
                            (CipherSuite.RSA_AES128, CipherSuite.PSK_AES128))
        msg_type, body = decode_handshake(hello.encode())
        decoded = ClientHello.decode(body)
        assert decoded == hello

    def test_client_hello_unknown_suite(self):
        body = bytes(32) + bytes([1, 0x7F])
        with pytest.raises(HandshakeError):
            ClientHello.decode(body)

    def test_server_hello_rsa_roundtrip(self):
        hello = ServerHello(bytes(32), CipherSuite.RSA_AES256,
                            rsa_n=b"\x01" * 64, rsa_e=b"\x01\x00\x01")
        _type, body = decode_handshake(hello.encode())
        decoded = ServerHello.decode(body)
        assert decoded == hello
        assert decoded.public_key().n.bit_length() > 0

    def test_server_hello_psk_roundtrip(self):
        hello = ServerHello(bytes(32), CipherSuite.PSK_AES128,
                            psk_hint=b"rmc2000")
        _type, body = decode_handshake(hello.encode())
        decoded = ServerHello.decode(body)
        assert decoded.psk_hint == b"rmc2000"
        with pytest.raises(HandshakeError):
            decoded.public_key()

    def test_client_key_exchange_both_kinds(self):
        rsa = ClientKeyExchange(CipherSuite.RSA_AES128,
                                encrypted_pre_master=bytes(64))
        _t, body = decode_handshake(rsa.encode())
        assert ClientKeyExchange.decode(body, CipherSuite.RSA_AES128) == rsa
        psk = ClientKeyExchange(CipherSuite.PSK_AES128, psk_identity=b"id")
        _t, body = decode_handshake(psk.encode())
        assert ClientKeyExchange.decode(body, CipherSuite.PSK_AES128) == psk

    def test_psk_pre_master_shape(self):
        pre = psk_pre_master(bytes(range(16)))
        assert len(pre) == 48
        with pytest.raises(HandshakeError):
            psk_pre_master(b"")

    def test_key_derivation_is_suite_sized(self):
        for suite in CipherSuite:
            keys = derive_session_keys(bytes(48), bytes(32), bytes(32), suite)
            assert len(keys.client_key) == suite.key_bytes
            assert len(keys.server_key) == suite.key_bytes
            assert len(keys.client_mac) == 20
            assert len(keys.client_iv) == 16
            assert keys.client_key != keys.server_key

    def test_key_derivation_depends_on_randoms(self):
        a = derive_session_keys(bytes(48), b"\x01" * 32, bytes(32),
                                CipherSuite.PSK_AES128)
        b = derive_session_keys(bytes(48), b"\x02" * 32, bytes(32),
                                CipherSuite.PSK_AES128)
        assert a.client_key != b.client_key

    def test_finished_verify_role_separation(self):
        master, transcript = bytes(48), b"transcript"
        assert finished_verify(master, transcript, "client") != \
            finished_verify(master, transcript, "server")
        assert len(finished_verify(master, transcript, "client")) == 36
