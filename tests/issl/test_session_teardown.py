"""Every way an issl session ends, one row each.

A row drives one server-role session over a scripted transport through
one end path and pins what the path leaves behind: ``closed``, the
context's active-session count, how often the transport was closed,
the alerts sent, the flight-recorder and log lines, the handshake
span's error label, the issl counters, and the exception raised.

Established rows skip the handshake: the session gets fixed record
keys, and the peer side of the table seals what it sends and opens
what the session sends with the mirror-image keys.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import pytest

from repro.crypto.demokeys import DEMO_PSK
from repro.crypto.prng import CipherRng
from repro.issl import FREE, RMC2000_PORT
from repro.issl.config import CipherSuite
from repro.issl.handshake import (
    HS_CLIENT_HELLO,
    RANDOM_LEN,
    ClientHello,
    encode_handshake,
)
from repro.issl.log import CircularLogger
from repro.issl.record import (
    ALERT_BAD_RECORD_MAC,
    ALERT_CLOSE_NOTIFY,
    ALERT_HANDSHAKE_FAILURE,
    ALERT_UNEXPECTED_MESSAGE,
    CT_ALERT,
    CT_APPLICATION_DATA,
    CT_HANDSHAKE,
    HEADER_LEN,
    RecordCipherState,
    decode_header,
    encode_alert,
    encode_record,
)
from repro.issl.session import IsslContext, IsslError, IsslSession, IsslTimeout
from repro.issl.transport import TransportError, TransportTimeout
from repro.obs import CAT_ISSL, Obs
from repro.obs.recorder import ERROR, WARN

_TX = (b"k" * 16, b"m" * 20, b"i" * 16)  # the session's sending keys
_RX = (b"K" * 16, b"M" * 20, b"I" * 16)  # the session's receiving keys

_COUNTERS = ("issl.handshakes.failed", "issl.handshakes.timeouts",
             "issl.handshakes.retries", "issl.records.mac_failures")


class _Wire:
    """Serves ``inbound`` then EOF (or, when ``silent``, times out);
    records what is sent and counts closes."""

    at_eof = False

    def __init__(self, inbound: bytes, silent: bool, send_fails: bool):
        self.inbound = inbound
        self.silent = silent
        self.send_fails = send_fails
        self.sent = b""
        self.closes = 0

    def send(self, data: bytes) -> None:
        if self.send_fails:
            raise TransportError("connection reset")
        self.sent += data

    def recv_exactly(self, nbytes: int, timeout: float | None = None):
        if len(self.inbound) < nbytes:
            if self.silent:
                raise TransportTimeout("recv timed out")
            raise TransportError(f"EOF after 0 of {nbytes} bytes")
        out, self.inbound = self.inbound[:nbytes], self.inbound[nbytes:]
        return out
        yield  # a generator, like the real transports

    def close(self) -> None:
        self.closes += 1


def _sealed(content_type: int, payload: bytes,
            mac_key: bytes = _RX[1]) -> bytes:
    """One record as the peer sends it once keys are established."""
    state = RecordCipherState(_RX[0], mac_key, _RX[2])
    return encode_record(content_type, state.seal(content_type, payload))


def _records(wire: bytes):
    while wire:
        content_type, length = decode_header(wire[:HEADER_LEN])
        yield content_type, wire[HEADER_LEN:HEADER_LEN + length]
        wire = wire[HEADER_LEN + length:]


def _alerts_sent(wire: bytes, established: bool) -> list[bytes]:
    """Alert payloads in the bytes the session sent, opened with the
    peer's copy of the session's sending keys."""
    state = RecordCipherState(*_TX)
    alerts = []
    for content_type, body in _records(wire):
        if established:
            body = state.open(content_type, body)
        if content_type == CT_ALERT:
            alerts.append(body)
    return alerts


def _client_hello() -> bytes:
    hello = ClientHello(b"r" * RANDOM_LEN, (CipherSuite.PSK_AES128,))
    return encode_record(CT_HANDSHAKE, hello.encode())


def _read(session):
    return (yield from session.read())


def _write(session):
    return (yield from session.write(b"request\n"))


def _close(session):
    return (yield from session.close())


def _read_then_close(session):
    data = yield from session.read()
    yield from session.close()
    return data


def _handshake_with_retry(session):
    return (yield from session.handshake(timeout=1.0, retries=1))


def _handshake(session):
    return (yield from session.handshake())


@dataclass
class Case:
    drive: Callable
    established: bool = True
    inbound: bytes = b""
    silent: bool = False
    send_fails: bool = False
    # What the path leaves behind.
    closes: int = 0
    alerts: list = field(default_factory=list)
    recorder: list = field(default_factory=list)
    log: list = field(default_factory=list)
    span_error: str | None = None
    counters: dict = field(default_factory=dict)
    raises: type | None = None
    message: str | None = None
    returns: object = None


CASES = {
    # -- the peer ended it -------------------------------------------
    "write-failure": Case(
        _write, send_fails=True,
        raises=IsslError, message="write failed: connection reset"),
    "read-eof": Case(_read, returns=b""),
    "close-notify-received": Case(
        _read, inbound=_sealed(CT_ALERT, encode_alert(1, ALERT_CLOSE_NOTIFY)),
        returns=b""),
    "close-after-close-notify": Case(
        _read_then_close,
        inbound=_sealed(CT_ALERT, encode_alert(1, ALERT_CLOSE_NOTIFY)),
        closes=1, log=["issl: server session closed"], returns=b""),
    # -- we ended it -------------------------------------------------
    "close": Case(
        _close, closes=1, alerts=[encode_alert(1, ALERT_CLOSE_NOTIFY)],
        log=["issl: server session closed"]),
    "close-send-fails": Case(
        _close, send_fails=True, closes=1,
        log=["issl: server session closed"]),
    "malformed-alert": Case(
        _read, inbound=_sealed(CT_ALERT, b"\x02"), closes=1,
        alerts=[encode_alert(2, ALERT_UNEXPECTED_MESSAGE)],
        raises=IsslError,
        message="malformed alert: alert body must be 2 bytes, got 1"),
    "fatal-alert-received": Case(
        _read,
        inbound=_sealed(CT_ALERT, encode_alert(2, ALERT_HANDSHAKE_FAILURE)),
        closes=1, raises=IsslError, message="alert received: level=2 desc=40"),
    "unexpected-record-type": Case(
        _read, inbound=_sealed(CT_HANDSHAKE, b"hello"), closes=1,
        alerts=[encode_alert(2, ALERT_UNEXPECTED_MESSAGE)],
        raises=IsslError, message="unexpected record type 22"),
    "malformed-header": Case(
        _read, inbound=b"\x63\x03\x00\x00\x00", closes=1,
        alerts=[encode_alert(2, ALERT_UNEXPECTED_MESSAGE)],
        raises=IsslError,
        message="malformed record header: bad content type 99"),
    "mac-failure": Case(
        _read,
        inbound=_sealed(CT_APPLICATION_DATA, b"data", mac_key=b"x" * 20),
        closes=1, alerts=[encode_alert(2, ALERT_BAD_RECORD_MAC)],
        recorder=[(ERROR, "record protection failure: bad record MAC")],
        log=["issl: server record protection failure: bad record MAC"],
        counters={"issl.records.mac_failures": 1},
        raises=IsslError,
        message="record protection failure: bad record MAC"),
    # -- the handshake failed ----------------------------------------
    "handshake-silent-peer-retried-then-given-up": Case(
        _handshake_with_retry, established=False, silent=True, closes=1,
        recorder=[(WARN, "handshake attempt 1/2 expired; retrying"),
                  (ERROR, "handshake gave up after 2 attempt(s)")],
        log=["issl: server handshake timeout (attempt 1/2); retrying"],
        span_error="TransportTimeout",
        counters={"issl.handshakes.failed": 1, "issl.handshakes.timeouts": 2,
                  "issl.handshakes.retries": 1},
        raises=IsslTimeout,
        message="handshake timed out after 2 attempt(s): recv timed out"),
    "handshake-desynchronized-peer-not-retried": Case(
        _handshake_with_retry, established=False, silent=True,
        inbound=_client_hello(), closes=1,
        recorder=[(ERROR, "handshake gave up after 1 attempt(s)")],
        span_error="TransportTimeout",
        counters={"issl.handshakes.failed": 1, "issl.handshakes.timeouts": 1},
        raises=IsslTimeout,
        message="handshake timed out after 1 attempt(s): recv timed out"),
    "handshake-transport-error": Case(
        _handshake, established=False, closes=1,
        recorder=[(ERROR, "handshake failed: TransportError: "
                          "EOF after 0 of 5 bytes")],
        span_error="TransportError",
        counters={"issl.handshakes.failed": 1},
        raises=IsslError, message="handshake failed: EOF after 0 of 5 bytes"),
    "handshake-decode-error": Case(
        _handshake, established=False,
        inbound=encode_record(CT_HANDSHAKE, b"\x01"), closes=1,
        recorder=[(ERROR, "handshake failed: HandshakeError: "
                          "handshake message too short: 1")],
        span_error="HandshakeError",
        counters={"issl.handshakes.failed": 1},
        raises=IsslError,
        message="handshake failed: handshake message too short: 1"),
    "handshake-protocol-error": Case(
        _handshake, established=False,
        inbound=encode_record(CT_APPLICATION_DATA,
                              encode_handshake(HS_CLIENT_HELLO, b"")),
        closes=1,
        recorder=[(ERROR, "handshake failed: IsslError: "
                          "expected handshake record, got type 23")],
        span_error="IsslError",
        counters={"issl.handshakes.failed": 1},
        raises=IsslError, message="expected handshake record, got type 23"),
}


def _run(case: Case):
    obs = Obs()
    logger = CircularLogger(capacity=32)
    context = IsslContext(RMC2000_PORT.with_cost_model(FREE),
                          CipherRng(b"teardown"), logger=logger,
                          psk=DEMO_PSK, obs=obs)
    wire = _Wire(case.inbound, case.silent, case.send_fails)
    session = IsslSession(context, wire, "server")
    if case.established:
        session._send_state = RecordCipherState(*_TX)
        session._recv_state = RecordCipherState(*_RX)
        session.established = True
    assert context.sessions_active == 1
    gen = case.drive(session)
    error = result = None
    try:
        while True:
            next(gen)
    except StopIteration as stop:
        result = stop.value
    except Exception as exc:  # the row says which type it expects
        error = exc
    return obs, logger, context, wire, session, error, result


@pytest.mark.parametrize("case", list(CASES.values()), ids=list(CASES))
def test_end_path(case):
    obs, logger, context, wire, session, error, result = _run(case)
    assert session.closed
    assert context.sessions_active == 0
    assert wire.closes == case.closes
    assert _alerts_sent(wire.sent, case.established) == case.alerts
    assert [(sev, msg) for _seq, _t, sev, cat, tid, msg
            in obs.recorder.events()
            if cat == CAT_ISSL and tid == session._span_tid] == case.recorder
    assert [line for line in logger.tail(32)
            if "handshake complete" not in line] == case.log
    spans = [s for s in obs.tracer.spans if s.name == "issl.handshake"]
    assert [s.args.get("error") for s in spans] == (
        [] if case.established else [case.span_error])
    assert {name: obs.metrics.counter(name).value
            for name in _COUNTERS} == {name: case.counters.get(name, 0)
                                       for name in _COUNTERS}
    if case.raises is None:
        assert error is None
        assert result == case.returns
    else:
        assert type(error) is case.raises
        assert str(error) == case.message


def test_a_second_close_sends_nothing_more():
    """close() is idempotent: the second call closes the transport again
    and logs again, but sends no second close_notify."""
    obs, logger, context, wire, session, error, _ = _run(CASES["close"])
    gen = session.close()
    for _ in gen:
        pass
    assert wire.closes == 2
    assert _alerts_sent(wire.sent, True) == [
        encode_alert(1, ALERT_CLOSE_NOTIFY)]
    assert logger.tail(32) == ["issl: server session closed"] * 2
    assert context.sessions_active == 0
