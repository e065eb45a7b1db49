"""issl parsers and sessions fed arbitrary bytes fail only with issl errors.

A malformed record or handshake message is the peer's doing, so it must
surface as :class:`RecordError`/:class:`HandshakeError` from a parser
and as an :class:`IsslError` from a session -- never as a stray
``ValueError``/``IndexError`` that a service's ``except IsslError``
would miss.
"""

from __future__ import annotations

import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.demokeys import DEMO_PSK
from repro.crypto.prng import CipherRng
from repro.issl import FREE, RMC2000_PORT
from repro.issl.config import CipherSuite
from repro.issl.handshake import (
    HS_CLIENT_HELLO,
    HS_CLIENT_KEY_EXCHANGE,
    HS_FINISHED,
    HS_SERVER_HELLO,
    RANDOM_LEN,
    ClientHello,
    ClientKeyExchange,
    HandshakeError,
    ServerHello,
    decode_handshake,
    encode_handshake,
)
from repro.issl.record import (
    CONTENT_TYPES,
    CT_ALERT,
    CT_HANDSHAKE,
    VERSION,
    RecordError,
    decode_alert,
    decode_header,
    encode_record,
)
from repro.issl.session import IsslContext, IsslError, IsslSession
from repro.issl.transport import TransportError

#: Each parser with the one error type it may raise.
PARSERS = [
    ("decode_header", decode_header, RecordError),
    ("decode_alert", decode_alert, RecordError),
    ("decode_handshake", decode_handshake, HandshakeError),
    ("ClientHello.decode", ClientHello.decode, HandshakeError),
    ("ServerHello.decode", ServerHello.decode, HandshakeError),
] + [
    (f"ClientKeyExchange.decode[{suite.name}]",
     lambda body, suite=suite: ClientKeyExchange.decode(body, suite),
     HandshakeError)
    for suite in CipherSuite
]


@pytest.mark.parametrize("name,parse,error", PARSERS,
                         ids=[name for name, _, _ in PARSERS])
@given(data=st.binary(max_size=96))
@settings(max_examples=150, deadline=None)
def test_parsers_raise_only_their_own_error(name, parse, error, data):
    try:
        parse(data)
    except error:
        pass


class _ScriptedTransport:
    """Serves a fixed byte string, then EOF; swallows what is sent."""

    at_eof = False

    def __init__(self, data: bytes):
        self.data = data

    def send(self, data: bytes) -> None:
        pass

    def recv_exactly(self, nbytes: int, timeout: float | None = None):
        if len(self.data) < nbytes:
            raise TransportError("EOF")
        out, self.data = self.data[:nbytes], self.data[nbytes:]
        return out
        yield  # a generator, like the real transports

    def close(self) -> None:
        pass


@st.composite
def records(draw):
    """One record: mostly well-framed, sometimes with a bad type,
    version or length, sometimes a well-framed handshake message."""
    body = draw(st.one_of(
        st.binary(max_size=80),
        st.builds(encode_handshake,
                  st.one_of(st.sampled_from([HS_CLIENT_HELLO,
                                             HS_SERVER_HELLO,
                                             HS_CLIENT_KEY_EXCHANGE,
                                             HS_FINISHED]),
                            st.integers(0, 255)),
                  st.binary(max_size=80)),
    ))
    content_type = draw(st.one_of(st.sampled_from(CONTENT_TYPES),
                                  st.integers(0, 255)))
    version = draw(st.one_of(st.just(VERSION), st.integers(0, 0xFFFF)))
    length = draw(st.one_of(st.just(len(body)), st.integers(0, 0xFFFF)))
    return struct.pack(">BHH", content_type, version, length) + body


def _server(data: bytes) -> tuple[IsslContext, IsslSession]:
    context = IsslContext(RMC2000_PORT.with_cost_model(FREE),
                          CipherRng(b"fuzz"), psk=DEMO_PSK)
    return context, IsslSession(context, _ScriptedTransport(data), "server")


def _drive(gen):
    for _ in gen:
        pass


#: A valid ClientHello record: after it the server waits for the
#: ClientKeyExchange.
CLIENT_HELLO = encode_record(
    CT_HANDSHAKE,
    ClientHello(bytes(RANDOM_LEN), RMC2000_PORT.suites).encode(),
)


@given(after_hello=st.booleans(),
       record=st.one_of(records(), st.binary(max_size=40)))
@settings(max_examples=300, deadline=None)
def test_arbitrary_record_mid_handshake_raises_only_issl_errors(
        after_hello, record):
    context, session = _server((CLIENT_HELLO if after_hello else b"")
                               + record)
    with pytest.raises(IsslError):
        _drive(session.handshake())
    assert context.sessions_active == 0


@given(record=records())
@settings(max_examples=200, deadline=None)
def test_arbitrary_record_on_an_open_session_raises_only_issl_errors(
        record):
    # An established session with no keys yet: every record reaches
    # the content-type dispatch unprotected.
    _context, session = _server(record)
    session.established = True
    try:
        _drive(session.read())
    except IsslError:
        pass


def test_bad_record_header_mid_handshake_is_an_issl_error():
    # Regression: decode_header's RecordError escaped handshake().
    record = struct.pack(">BHH", CT_HANDSHAKE, 0x0301, 0)
    context, session = _server(CLIENT_HELLO + record)
    with pytest.raises(IsslError, match="malformed record header"):
        _drive(session.handshake())
    assert context.sessions_active == 0


def test_malformed_alert_is_an_issl_error():
    # Regression: decode_alert's RecordError escaped read().
    context, session = _server(encode_record(CT_ALERT, b"\x02\x28\x00"))
    session.established = True
    with pytest.raises(IsslError, match="malformed alert"):
        _drive(session.read())
    assert session.closed
    assert context.sessions_active == 0
