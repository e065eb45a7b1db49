"""issl end-to-end session tests over the simulated network."""

import pytest

from repro.crypto.demokeys import DEMO_PSK, demo_rsa_key
from repro.crypto.prng import CipherRng
from repro.issl import (
    CipherSuite,
    CircularLogger,
    FileLogger,
    IsslConfigError,
    IsslContext,
    IsslError,
    NullLogger,
    RMC2000_PORT,
    UNIX_FULL,
    issl_accept,
    issl_bind,
    issl_close,
    issl_connect,
    issl_read,
    issl_write,
)
from repro.net.bsd import socket
from repro.net.host import build_lan
from repro.net.sim import Simulator
from repro.obs import Obs
from repro.unixsim.fs import FileSystem


@pytest.fixture(scope="module")
def rsa_key():
    return demo_rsa_key()


def run_session(client_suites, server_ctx_kwargs, client_ctx_kwargs,
                payload=b"payload", server_profile=UNIX_FULL,
                client_profile=UNIX_FULL):
    """One handshake + echo round trip; returns (out, server_session holder)."""
    sim = Simulator()
    _lan, hosts = build_lan(sim, ["server", "client"])
    server_ctx = IsslContext(server_profile, CipherRng(b"s"),
                             **server_ctx_kwargs)
    client_ctx = IsslContext(client_profile, CipherRng(b"c"),
                             **client_ctx_kwargs)
    out = {}

    def server():
        lsock = socket(hosts["server"])
        lsock.bind(("", 4433))
        lsock.listen()
        conn = yield from lsock.accept()
        session = issl_bind(server_ctx, conn, role="server")
        out["server_session"] = session
        try:
            yield from issl_accept(session)
        except IsslError as exc:
            out["server_error"] = str(exc)
            return
        data = yield from issl_read(session)
        yield from issl_write(session, b"echo:" + data)
        yield from issl_close(session)

    def client():
        sock = socket(hosts["client"])
        yield from sock.connect(("10.0.0.1", 4433))
        session = issl_bind(client_ctx, sock, role="client")
        out["client_session"] = session
        try:
            yield from issl_connect(session, client_suites)
        except IsslError as exc:
            out["client_error"] = str(exc)
            return
        yield from issl_write(session, payload)
        out["reply"] = yield from issl_read(session)
        yield from issl_close(session)

    hosts["server"].spawn(server())
    process = hosts["client"].spawn(client())
    sim.run_until_complete(process, timeout=600)
    sim.run(until=sim.now + 1.0)
    return out


class TestSuites:
    @pytest.mark.parametrize("suite", [CipherSuite.RSA_AES128,
                                       CipherSuite.RSA_AES192,
                                       CipherSuite.RSA_AES256])
    def test_rsa_suites(self, rsa_key, suite):
        out = run_session((suite,), {"rsa_key": rsa_key}, {})
        assert out["reply"] == b"echo:payload"
        assert out["client_session"].suite == suite

    def test_psk_suite(self):
        out = run_session((CipherSuite.PSK_AES128,),
                          {"psk": DEMO_PSK}, {"psk": DEMO_PSK})
        assert out["reply"] == b"echo:payload"

    def test_server_prefers_rsa_when_keyed(self, rsa_key):
        out = run_session(None, {"rsa_key": rsa_key, "psk": DEMO_PSK},
                          {"psk": DEMO_PSK})
        assert out["client_session"].suite.uses_rsa

    def test_rmc_profile_negotiates_only_psk(self):
        out = run_session(None, {"psk": DEMO_PSK}, {"psk": DEMO_PSK},
                          server_profile=RMC2000_PORT)
        assert out["client_session"].suite == CipherSuite.PSK_AES128

    def test_no_common_suite_fails(self, rsa_key):
        # Client insists on RSA; server only has a PSK.
        out = run_session((CipherSuite.RSA_AES128,), {"psk": DEMO_PSK}, {})
        assert "client_error" in out or "server_error" in out

    def test_psk_mismatch_fails_finished(self):
        out = run_session((CipherSuite.PSK_AES128,),
                          {"psk": b"A" * 16}, {"psk": b"B" * 16})
        assert "client_error" in out or "server_error" in out

    def test_rmc_profile_cannot_carry_rsa(self):
        import dataclasses

        bad = dataclasses.replace(RMC2000_PORT,
                                  suites=(CipherSuite.RSA_AES128,))
        with pytest.raises(IsslConfigError):
            IsslContext(bad, CipherRng(b"x"))


class TestDataTransfer:
    def test_large_payload_multiple_records(self, rsa_key):
        payload = bytes(range(256)) * 64  # 16 KB < client max, > rmc max
        sim_out = run_session((CipherSuite.PSK_AES128,),
                              {"psk": DEMO_PSK}, {"psk": DEMO_PSK},
                              payload=payload)
        # The echo comes back record by record; just check the first one
        # and session statistics.
        assert sim_out["client_session"].app_bytes_sent == len(payload)

    def test_session_statistics(self, rsa_key):
        out = run_session((CipherSuite.RSA_AES128,), {"rsa_key": rsa_key}, {})
        client = out["client_session"]
        assert client.established
        assert client.records_sent >= 4  # hello, kex, ccs, finished, data...
        assert client.app_bytes_sent == len(b"payload")
        assert client.app_bytes_received == len(b"echo:payload")

    def test_write_before_handshake_rejected(self):
        sim = Simulator()
        _lan, hosts = build_lan(sim, ["server", "client"])
        ctx = IsslContext(UNIX_FULL, CipherRng(b"x"), psk=DEMO_PSK)
        sock = socket(hosts["client"])
        session = issl_bind(ctx, sock, role="client")
        with pytest.raises(IsslError):
            next(session.write(b"early"))
        with pytest.raises(IsslError):
            next(session.read())

    def test_role_validation(self):
        sim = Simulator()
        _lan, hosts = build_lan(sim, ["server", "client"])
        ctx = IsslContext(UNIX_FULL, CipherRng(b"x"), psk=DEMO_PSK)
        sock = socket(hosts["client"])
        with pytest.raises(ValueError):
            issl_bind(ctx, sock, role="observer")
        session = issl_bind(ctx, sock, role="client")
        with pytest.raises(IsslError):
            next(issl_accept(session))

    def test_session_slots_released_after_close(self):
        out = run_session((CipherSuite.PSK_AES128,),
                          {"psk": DEMO_PSK}, {"psk": DEMO_PSK})
        server_session = out["server_session"]
        assert server_session.context.sessions_active == 0
        assert server_session.context.sessions_total == 1


class TestLoggers:
    @staticmethod
    def _messages(obs):
        return obs.metrics.snapshot()["counters"]["issl.log.messages"]

    def test_file_logger_grows(self):
        fs = FileSystem()
        obs = Obs()
        logger = FileLogger(fs, "/var/log/issl.log", obs=obs)
        for i in range(10):
            logger.log(f"event {i}")
        assert self._messages(obs) == 10
        assert fs.read_file("/var/log/issl.log") == b"".join(
            f"event {i}\n".encode() for i in range(10))
        assert logger.tail(2) == ["event 8", "event 9"]

    def test_circular_logger_bounded(self):
        obs = Obs()
        logger = CircularLogger(capacity=4, obs=obs)
        for i in range(10):
            logger.log(f"event {i}")
        assert self._messages(obs) == 10
        assert logger.overwrites == 6
        assert logger.tail(10) == [f"event {i}" for i in range(6, 10)]

    def test_null_logger(self):
        obs = Obs()
        logger = NullLogger(obs=obs)
        logger.log("anything")
        assert self._messages(obs) == 1
        assert logger.tail(5) == []

    def test_circular_capacity_validation(self):
        with pytest.raises(ValueError):
            CircularLogger(capacity=0)

    def test_handshake_is_logged(self):
        logger = CircularLogger()
        out = run_session((CipherSuite.PSK_AES128,),
                          {"psk": DEMO_PSK, "logger": logger},
                          {"psk": DEMO_PSK})
        assert out["reply"] == b"echo:payload"
        assert any("handshake complete" in line for line in logger.tail(10))
