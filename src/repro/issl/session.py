"""issl sessions: handshake, secure read/write, teardown.

All potentially-blocking operations are generators (run them with
``yield from`` inside a simulated process or costatement).  Crypto
consumes simulated CPU time through the profile's cost model: on the
30 MHz board a record's worth of AES is milliseconds, and that is the
mechanism behind the paper's order-of-magnitude throughput observation
(experiment E4).
"""

from __future__ import annotations

from repro.crypto import host, rsa as rsa_mod
from repro.issl.config import BuildProfile, CipherSuite, IsslConfigError
from repro.issl.handshake import (
    ClientHello,
    ClientKeyExchange,
    HS_CLIENT_HELLO,
    HS_CLIENT_KEY_EXCHANGE,
    HS_FINISHED,
    HS_SERVER_HELLO,
    HandshakeError,
    PRE_MASTER_LEN,
    RANDOM_LEN,
    ServerHello,
    decode_handshake,
    derive_session_keys,
    finished_verify,
    psk_pre_master,
)
from repro.issl.log import Logger, NullLogger
from repro.obs import NULL_OBS
from repro.obs.trace import CAT_ISSL
from repro.issl.record import (
    ALERT_BAD_RECORD_MAC,
    ALERT_CLOSE_NOTIFY,
    ALERT_UNEXPECTED_MESSAGE,
    CT_ALERT,
    CT_APPLICATION_DATA,
    CT_CHANGE_CIPHER_SPEC,
    CT_HANDSHAKE,
    HEADER_LEN,
    RecordCipherState,
    RecordError,
    decode_alert,
    decode_header,
    encode_alert,
    encode_record,
)
from repro.issl.transport import TransportError, TransportTimeout

#: First pause between handshake attempts; it doubles per retry.
HANDSHAKE_RETRY_BACKOFF_S = 0.05


class IsslError(ConnectionError):
    """Protocol failure visible to the application."""


class IsslTimeout(IsslError):
    """A deadline-bounded operation expired with the peer still silent."""


class IsslSessionLimitError(IsslError):
    """All statically-allocated session slots are in use.

    Separate from generic protocol failure so a service can degrade
    gracefully -- refuse the connection and count it -- instead of
    treating the static ceiling (paper Section 5.3) as a crash."""


class IsslContext:
    """Shared configuration: profile, keys, RNG, logger, session budget."""

    def __init__(self, profile: BuildProfile, rng, logger: Logger | None = None,
                 rsa_key: "rsa_mod.RsaPrivateKey | None" = None,
                 psk: bytes | None = None, psk_identity: bytes = b"rmc2000",
                 obs=None):
        self.profile = profile
        self.rng = rng
        self.logger = logger if logger is not None else NullLogger()
        self.rsa_key = rsa_key
        self.psk = psk
        self.psk_identity = psk_identity
        self.sessions_active = 0
        self.sessions_total = 0
        self.sessions_peak = 0
        self.obs = obs if obs is not None else NULL_OBS
        metrics = self.obs.metrics
        self._ctr_records_sent = metrics.counter("issl.records.sent")
        self._ctr_records_received = metrics.counter("issl.records.received")
        self._ctr_bytes_encrypted = metrics.counter("issl.bytes.encrypted")
        self._ctr_bytes_decrypted = metrics.counter("issl.bytes.decrypted")
        self._ctr_hs_completed = metrics.counter("issl.handshakes.completed")
        self._ctr_hs_failed = metrics.counter("issl.handshakes.failed")
        self._ctr_hs_timeouts = metrics.counter("issl.handshakes.timeouts")
        self._ctr_hs_retries = metrics.counter("issl.handshakes.retries")
        self._ctr_mac_failures = metrics.counter("issl.records.mac_failures")
        self._gauge_sessions = metrics.gauge("issl.sessions.active")
        #: Mergeable percentile summary of completed handshake times.
        self._sketch_handshake = metrics.sketch("issl.handshake_s")
        if any(s.uses_rsa for s in profile.suites) and profile.name == "RMC2000_PORT":
            raise IsslConfigError("RMC2000 port cannot carry RSA suites")

    def acquire_session_slot(self) -> None:
        if self.sessions_active >= self.profile.max_sessions:
            raise IsslSessionLimitError(
                f"session limit reached ({self.profile.max_sessions}); "
                f"{self.profile.name} allocates session state statically"
            )
        self.sessions_active += 1
        self.sessions_total += 1
        self.sessions_peak = max(self.sessions_peak, self.sessions_active)
        self._gauge_sessions.set(self.sessions_active)

    def release_session_slot(self) -> None:
        if self.sessions_active > 0:
            self.sessions_active -= 1
            self._gauge_sessions.set(self.sessions_active)


class IsslSession:
    """One secure connection endpoint over a transport adapter."""

    def __init__(self, context: IsslContext, transport, role: str):
        if role not in ("client", "server"):
            raise ValueError(f"role must be client/server, got {role!r}")
        context.acquire_session_slot()
        self.context = context
        self.transport = transport
        self.role = role
        self._tracer = context.obs.tracer
        self._recorder = context.obs.recorder
        self._span_tid = f"issl:{role}:{context.sessions_total}"
        self.suite: CipherSuite | None = None
        self._send_state: RecordCipherState | None = None
        self._recv_state: RecordCipherState | None = None
        self._transcript = b""
        self.established = False
        self.closed = False
        #: Absolute sim-time deadline bounding the current blocking read
        #: (handshake attempts and ``read(timeout=...)`` set it).
        self._deadline: float | None = None
        # Per-session statistics.
        self.app_bytes_sent = 0
        self.app_bytes_received = 0
        self.records_sent = 0
        self.records_received = 0
        self.handshake_seconds = 0.0

    # -- record plumbing ---------------------------------------------------
    def _charge(self, seconds: float):
        if seconds > 0:
            yield seconds

    def _send_record(self, content_type: int, payload: bytes):
        cost = self.context.profile.cost_model
        if self._send_state is not None:
            yield from self._charge(cost.record_seconds(len(payload)))
            body = self._send_state.seal(content_type, payload)
            self.context._ctr_bytes_encrypted.inc(len(payload))
        else:
            body = payload
        self.transport.send(encode_record(content_type, body))
        self.records_sent += 1
        self.context._ctr_records_sent.inc()

    def _remaining(self) -> float | None:
        if self._deadline is None:
            return None
        return max(0.0, self._deadline - self._now())

    def _read_record(self):
        header = yield from self.transport.recv_exactly(
            HEADER_LEN, self._remaining()
        )
        try:
            content_type, length = decode_header(header)
        except RecordError as exc:
            # The stream is out of step: no later byte can be framed.
            yield from self._fatal(ALERT_UNEXPECTED_MESSAGE)
            raise IsslError(f"malformed record header: {exc}") from exc
        body = yield from self.transport.recv_exactly(
            length, self._remaining()
        )
        if self._recv_state is not None:
            cost = self.context.profile.cost_model
            yield from self._charge(cost.record_seconds(len(body)))
            try:
                body = self._recv_state.open(content_type, body)
            except RecordError as exc:
                # MAC/padding failure is unrecoverable: the record
                # stream is out of step or under attack.  Tear the
                # session down cleanly rather than limping on.
                self.context._ctr_mac_failures.inc()
                self._recorder.error(
                    CAT_ISSL, self._span_tid,
                    f"record protection failure: {exc}",
                )
                self.context.logger.log(
                    f"issl: {self.role} record protection failure: {exc}"
                )
                yield from self._fatal(ALERT_BAD_RECORD_MAC)
                raise IsslError(f"record protection failure: {exc}") from exc
            self.context._ctr_bytes_decrypted.inc(len(body))
        self.records_received += 1
        self.context._ctr_records_received.inc()
        return content_type, body

    def _end(self) -> None:
        """Mark the session over and release its slot (once)."""
        if not self.closed:
            self.closed = True
            self.context.release_session_slot()

    def _shut(self, alert: bytes | None = None):
        """Generator: end the session from this side.

        ``alert`` goes out best effort, and only while the session is
        open with protected records; then the session ends and the
        transport closes, so a peer mid-exchange is not left waiting.
        """
        if (alert is not None and not self.closed
                and self._send_state is not None):
            try:
                yield from self._send_record(CT_ALERT, alert)
            except (TransportError, RecordError, IsslError):
                pass
        self._end()
        self.transport.close()

    def _fatal(self, description: int):
        """Generator: fatal alert, then tear the session down."""
        return self._shut(encode_alert(2, description))

    def _read_handshake(self, expected_type: int):
        content_type, body = yield from self._read_record()
        if content_type != CT_HANDSHAKE:
            raise IsslError(f"expected handshake record, got type {content_type}")
        msg_type, msg_body = decode_handshake(body)
        if msg_type != expected_type:
            raise IsslError(
                f"expected handshake message {expected_type}, got {msg_type}"
            )
        self._transcript += body
        return msg_body

    def _send_handshake(self, encoded: bytes):
        self._transcript += encoded
        yield from self._send_record(CT_HANDSHAKE, encoded)

    # -- handshake ---------------------------------------------------------
    def handshake(self, suites: tuple[CipherSuite, ...] | None = None,
                  timeout: float | None = None, retries: int = 0):
        """Generator: run the full handshake for this session's role.

        ``timeout`` bounds each attempt in simulated seconds (``None``
        waits forever).  On a timeout with the transport still alive and
        *no handshake bytes exchanged yet* -- a silent peer, not a
        desynchronized one -- up to ``retries`` further attempts are
        made, backing off exponentially from
        :data:`HANDSHAKE_RETRY_BACKOFF_S`.
        """
        start = self._now()
        span = self._tracer.begin(
            "issl.handshake", cat=CAT_ISSL, tid=self._span_tid, role=self.role
        )
        attempts = max(0, int(retries)) + 1
        try:
            for attempt in range(attempts):
                self._deadline = (
                    None if timeout is None else self._now() + timeout
                )
                try:
                    if self.role == "client":
                        yield from self._client_handshake(suites)
                    else:
                        yield from self._server_handshake()
                    break
                except TransportTimeout:
                    self.context._ctr_hs_timeouts.inc()
                    alive = not getattr(self.transport, "at_eof", True)
                    if (attempt + 1 == attempts or not alive
                            or self._transcript):
                        raise
                    self.context._ctr_hs_retries.inc()
                    self._recorder.warn(
                        CAT_ISSL, self._span_tid,
                        f"handshake attempt {attempt + 1}/{attempts} "
                        "expired; retrying",
                    )
                    self.context.logger.log(
                        f"issl: {self.role} handshake timeout "
                        f"(attempt {attempt + 1}/{attempts}); retrying"
                    )
                    yield HANDSHAKE_RETRY_BACKOFF_S * (2 ** attempt)
        except (TransportError, HandshakeError, IsslError) as exc:
            # The peer is mid-handshake: closing the transport stops it
            # waiting forever for a message that will never come.
            yield from self._shut()
            self.context._ctr_hs_failed.inc()
            timed_out = isinstance(exc, TransportTimeout)
            self._recorder.error(
                CAT_ISSL, self._span_tid,
                f"handshake gave up after {attempt + 1} attempt(s)"
                if timed_out else
                f"handshake failed: {type(exc).__name__}: {exc}",
            )
            self._tracer.end(span, error=type(exc).__name__)
            if timed_out:
                raise IsslTimeout(
                    f"handshake timed out after {attempt + 1} attempt(s): "
                    f"{exc}"
                ) from exc
            if isinstance(exc, IsslError):
                raise
            raise IsslError(f"handshake failed: {exc}") from exc
        finally:
            self._deadline = None
        self.established = True
        self.handshake_seconds = self._now() - start
        self.context._ctr_hs_completed.inc()
        self.context._sketch_handshake.observe(self.handshake_seconds)
        self._tracer.end(span, suite=self.suite.name)
        self.context.logger.log(
            f"issl: {self.role} handshake complete suite={self.suite.name}"
        )
        return self

    def _now(self) -> float:
        # The transport knows its host's simulator; fall back to 0 so the
        # session also works in plain unit tests without a clock.
        stack = getattr(self.transport, "_stack", None)
        if stack is not None:
            return stack.host.sim.now
        sock = getattr(self.transport, "_sock", None)
        host = getattr(sock, "_host", None)
        return host.sim.now if host is not None else 0.0

    def _client_handshake(self, suites):
        profile = self.context.profile
        offered = tuple(suites) if suites else profile.suites
        for suite in offered:
            profile.check_suite(suite)
        client_random = self.context.rng.next_bytes(RANDOM_LEN)
        yield from self._send_handshake(
            ClientHello(client_random, offered).encode()
        )
        body = yield from self._read_handshake(HS_SERVER_HELLO)
        hello = ServerHello.decode(body)
        if hello.suite not in offered:
            raise IsslError(f"server chose unoffered suite {hello.suite.name}")
        self.suite = profile.check_suite(hello.suite)
        cost = profile.cost_model
        if self.suite.uses_rsa:
            pre_master = self.context.rng.next_bytes(PRE_MASTER_LEN)
            yield from self._charge(cost.rsa_public_seconds())
            encrypted = rsa_mod.encrypt(
                hello.public_key(), pre_master, self.context.rng
            )
            key_exchange = ClientKeyExchange(
                self.suite, encrypted_pre_master=encrypted
            )
        else:
            if self.context.psk is None:
                raise IsslError("PSK suite chosen but no pre-shared key configured")
            pre_master = psk_pre_master(self.context.psk)
            key_exchange = ClientKeyExchange(
                self.suite, psk_identity=self.context.psk_identity
            )
        yield from self._send_handshake(key_exchange.encode())
        keys = derive_session_keys(
            pre_master, client_random, hello.server_random, self.suite
        )
        yield from self._charge(cost.hash_seconds(16))  # PRF expansion
        send_state, recv_state = self._make_states(keys)
        # ChangeCipherSpec travels in the clear; everything after it in
        # the same direction is protected.
        yield from self._send_record(CT_CHANGE_CIPHER_SPEC, b"\x01")
        self._send_state = send_state
        transcript_at_client_finished = self._transcript
        verify = finished_verify(keys.master, transcript_at_client_finished, "client")
        yield from self._send_handshake(
            bytes([HS_FINISHED]) + len(verify).to_bytes(3, "big") + verify
        )
        content_type, body = yield from self._read_record()
        if content_type != CT_CHANGE_CIPHER_SPEC:
            raise IsslError("expected server ChangeCipherSpec")
        self._recv_state = recv_state
        server_finished = yield from self._read_handshake(HS_FINISHED)
        expected = finished_verify(keys.master, transcript_at_client_finished, "server")
        if not host.digest_equal(server_finished, expected):
            raise IsslError("server Finished verification failed")

    def _server_handshake(self):
        profile = self.context.profile
        cost = profile.cost_model
        body = yield from self._read_handshake(HS_CLIENT_HELLO)
        hello = ClientHello.decode(body)
        usable = [s for s in hello.suites if s in profile.suites]
        # Prefer RSA when we hold a key; the port never does.
        usable_rsa = [s for s in usable if s.uses_rsa and self.context.rsa_key]
        usable_psk = [s for s in usable if not s.uses_rsa and self.context.psk]
        if usable_rsa:
            self.suite = usable_rsa[0]
        elif usable_psk:
            self.suite = usable_psk[0]
        else:
            raise IsslError(
                f"no common cipher suite: client offered "
                f"{[s.name for s in hello.suites]}, profile {profile.name}"
            )
        server_random = self.context.rng.next_bytes(RANDOM_LEN)
        if self.suite.uses_rsa:
            key = self.context.rsa_key
            server_hello = ServerHello(
                server_random,
                self.suite,
                rsa_n=key.n.to_bytes(),
                rsa_e=key.e.to_bytes(),
            )
        else:
            server_hello = ServerHello(
                server_random, self.suite, psk_hint=self.context.psk_identity
            )
        yield from self._send_handshake(server_hello.encode())
        body = yield from self._read_handshake(HS_CLIENT_KEY_EXCHANGE)
        key_exchange = ClientKeyExchange.decode(body, self.suite)
        if self.suite.uses_rsa:
            rsa_span = self._tracer.begin(
                "issl.rsa_decrypt", cat=CAT_ISSL, tid=self._span_tid
            )
            yield from self._charge(cost.rsa_private_seconds())
            self._tracer.end(rsa_span)
            try:
                pre_master = rsa_mod.decrypt(
                    self.context.rsa_key, key_exchange.encrypted_pre_master
                )
            except rsa_mod.RsaError as exc:
                raise IsslError(f"pre-master decryption failed: {exc}") from exc
            if len(pre_master) != PRE_MASTER_LEN:
                raise IsslError("bad pre-master length")
        else:
            if key_exchange.psk_identity != self.context.psk_identity:
                raise IsslError(
                    f"unknown PSK identity {key_exchange.psk_identity!r}"
                )
            pre_master = psk_pre_master(self.context.psk)
        keys = derive_session_keys(
            pre_master, hello.client_random, server_random, self.suite
        )
        yield from self._charge(cost.hash_seconds(16))
        transcript_before_finished = self._transcript
        send_state, recv_state = self._make_states(keys)
        content_type, _body = yield from self._read_record()
        if content_type != CT_CHANGE_CIPHER_SPEC:
            raise IsslError("expected client ChangeCipherSpec")
        self._recv_state = recv_state
        client_finished = yield from self._read_handshake(HS_FINISHED)
        expected = finished_verify(keys.master, transcript_before_finished, "client")
        if not host.digest_equal(client_finished, expected):
            raise IsslError("client Finished verification failed")
        yield from self._send_record(CT_CHANGE_CIPHER_SPEC, b"\x01")
        self._send_state = send_state
        verify = finished_verify(keys.master, transcript_before_finished, "server")
        yield from self._send_handshake(
            bytes([HS_FINISHED]) + len(verify).to_bytes(3, "big") + verify
        )

    def _make_states(self, keys) -> tuple[RecordCipherState, RecordCipherState]:
        """(send_state, recv_state) for this session's role."""
        client_state = RecordCipherState(keys.client_key, keys.client_mac, keys.client_iv)
        server_state = RecordCipherState(keys.server_key, keys.server_mac, keys.server_iv)
        if self.role == "client":
            return client_state, server_state
        return server_state, client_state

    # -- trace propagation -----------------------------------------------
    def set_trace_context(self, ctx) -> None:
        """Attach a trace context to subsequent outbound records (it
        rides the underlying TCP frames as a side-channel annotation)."""
        set_ctx = getattr(self.transport, "set_trace_context", None)
        if set_ctx is not None:
            set_ctx(ctx)

    @property
    def rx_trace_ctx(self):
        """The trace context delivered with the most recent inbound
        data, or None (plain unit-test transports have none)."""
        return getattr(self.transport, "rx_trace_ctx", None)

    # -- application data -----------------------------------------------------
    def write(self, data: bytes):
        """Generator: send ``data`` as one or more protected records."""
        if not self.established or self.closed:
            raise IsslError("write on unestablished or closed session")
        max_payload = self.context.profile.max_record
        try:
            for offset in range(0, len(data), max_payload):
                chunk = data[offset: offset + max_payload]
                yield from self._send_record(CT_APPLICATION_DATA, chunk)
                self.app_bytes_sent += len(chunk)
        except TransportError as exc:
            self._end()
            raise IsslError(f"write failed: {exc}") from exc
        return len(data)

    def read(self, timeout: float | None = None):
        """Generator: one record's plaintext, or b"" on orderly close.

        ``timeout`` (simulated seconds) bounds the wait; expiry raises
        :class:`IsslTimeout` with the session still usable, so services
        can enforce per-connection deadlines on stalled peers.
        """
        if not self.established:
            raise IsslError("read before handshake")
        if self.closed:
            return b""
        self._deadline = (
            None if timeout is None else self._now() + timeout
        )
        try:
            while True:
                try:
                    content_type, body = yield from self._read_record()
                except TransportTimeout as exc:
                    raise IsslTimeout(f"read timed out: {exc}") from exc
                except TransportError:
                    self._end()
                    return b""
                if content_type == CT_APPLICATION_DATA:
                    self.app_bytes_received += len(body)
                    return body
                if content_type == CT_ALERT:
                    try:
                        level, description = decode_alert(body)
                    except RecordError as exc:
                        yield from self._fatal(ALERT_UNEXPECTED_MESSAGE)
                        raise IsslError(f"malformed alert: {exc}") from exc
                    if description == ALERT_CLOSE_NOTIFY:
                        self._end()
                        return b""
                    # Any other alert is fatal: release resources before
                    # surfacing it, instead of leaving a zombie slot.
                    yield from self._shut()
                    raise IsslError(
                        f"alert received: level={level} desc={description}"
                    )
                yield from self._fatal(ALERT_UNEXPECTED_MESSAGE)
                raise IsslError(f"unexpected record type {content_type}")
        finally:
            self._deadline = None

    def close(self):
        """Generator: send close_notify (once) and close the transport.

        Idempotent: safe to call after the peer already closed (the
        usual server-side sequence is read() -> b"" -> close()).
        """
        yield from self._shut(encode_alert(1, ALERT_CLOSE_NOTIFY))
        self.context.logger.log(f"issl: {self.role} session closed")
