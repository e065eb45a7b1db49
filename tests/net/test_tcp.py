"""TCP state machine tests: handshake, data, loss recovery, flow
control, teardown, resets, and sequence arithmetic properties."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.net.host import build_lan
from repro.obs import Obs
from repro.net.packet import ETHERTYPE_IP, IPPROTO_TCP, TCP_SYN, TcpSegment
from repro.net.sim import Simulator
from repro.net.tcp import (
    DEFAULT_MSS,
    seq_add,
    seq_diff,
    seq_le,
    seq_lt,
    TcpError,
    TcpState,
)

U32 = st.integers(min_value=0, max_value=(1 << 32) - 1)


class TestSeqArithmetic:
    @given(U32, st.integers(min_value=0, max_value=1 << 30))
    def test_add_then_diff(self, base, delta):
        assert seq_diff(seq_add(base, delta), base) == delta

    @given(U32)
    def test_reflexive(self, a):
        assert seq_diff(a, a) == 0
        assert seq_le(a, a)
        assert not seq_lt(a, a)

    @given(U32, st.integers(min_value=1, max_value=1 << 30))
    def test_ordering_with_wraparound(self, base, delta):
        later = seq_add(base, delta)
        assert seq_lt(base, later)
        assert not seq_lt(later, base)

    @given(U32, U32)
    def test_comparisons_agree_with_diff(self, a, b):
        assert seq_lt(a, b) == (seq_diff(a, b) < 0)
        assert seq_le(a, b) == (seq_diff(a, b) <= 0)

    def test_wrap_example(self):
        assert seq_lt(0xFFFFFFF0, 0x10)
        assert seq_diff(0x10, 0xFFFFFFF0) == 0x20


@pytest.fixture()
def pair():
    sim = Simulator()
    segment, hosts = build_lan(sim, ["server", "client"])
    return sim, segment, hosts["server"], hosts["client"]


def _establish(sim, server, client, port=80):
    listener = server.tcp.listen(port)
    conn = client.tcp.connect(server.ip_address, port)
    sim.run(until=sim.now + 1.0)
    accepted = listener.pop()
    assert accepted is not None, "handshake did not complete"
    return listener, conn, accepted


class TestHandshake:
    def test_three_way(self, pair):
        sim, segment, server, client = pair
        _listener, conn, accepted = _establish(sim, server, client)
        assert conn.state == TcpState.ESTABLISHED
        assert accepted.state == TcpState.ESTABLISHED

    def test_connect_to_closed_port_resets(self, pair):
        sim, segment, server, client = pair
        conn = client.tcp.connect(server.ip_address, 81)
        sim.run(until=1.0)
        assert conn.state == TcpState.CLOSED
        assert conn.error is not None

    def test_syn_retransmission(self, pair):
        sim, segment, server, client = pair
        # Drop the first SYN; the client retries and still connects.
        dropped = []

        def drop_first_syn(frame, index):
            if frame.ethertype != ETHERTYPE_IP:
                return False
            packet = frame.payload
            if packet.protocol != IPPROTO_TCP or dropped:
                return False
            if packet.payload.flag(TCP_SYN):
                dropped.append(index)
                return True
            return False

        segment.set_drop_filter(drop_first_syn)
        listener = server.tcp.listen(80)
        conn = client.tcp.connect(server.ip_address, 80)
        sim.run(until=2.0)
        assert conn.state == TcpState.ESTABLISHED
        assert conn.segments_retransmitted >= 1
        assert listener.pop() is not None

    def test_backlog_refusal(self, pair):
        sim, segment, server, client = pair
        server.tcp.listen(80, backlog=1)
        first = client.tcp.connect(server.ip_address, 80)
        second = client.tcp.connect(server.ip_address, 80)
        sim.run(until=2.0)
        states = {first.state, second.state}
        assert TcpState.ESTABLISHED in states
        assert TcpState.CLOSED in states

    def test_duplicate_listen_rejected(self, pair):
        sim, segment, server, client = pair
        server.tcp.listen(80)
        with pytest.raises(TcpError):
            server.tcp.listen(80)


class TestDataTransfer:
    def test_bidirectional(self, pair):
        sim, segment, server, client = pair
        _listener, conn, accepted = _establish(sim, server, client)
        conn.send(b"ping from client")
        accepted.send(b"pong from server")
        sim.run(until=sim.now + 1.0)
        assert accepted.recv(100) == b"ping from client"
        assert conn.recv(100) == b"pong from server"

    def test_large_transfer_segmented(self, pair):
        sim, segment, server, client = pair
        _listener, conn, accepted = _establish(sim, server, client)
        payload = bytes(i & 0xFF for i in range(5000))
        conn.send(payload)
        sim.run(until=sim.now + 5.0)
        received = accepted.recv(10000)
        assert received == payload
        # 5000 bytes over MSS-sized segments.
        assert conn.bytes_sent == 5000
        assert 5000 // DEFAULT_MSS <= server.tcp.segments_received

    def test_loss_recovery(self, pair):
        sim, segment, server, client = pair
        _listener, conn, accepted = _establish(sim, server, client)
        # Drop every 5th TCP data frame once.
        seen = set()

        def lossy(frame, index):
            if frame.ethertype != ETHERTYPE_IP:
                return False
            packet = frame.payload
            if packet.protocol != IPPROTO_TCP or not packet.payload.payload:
                return False
            key = packet.payload.seq
            if key % 5 == 0 and key not in seen:
                seen.add(key)
                return True
            return False

        segment.set_drop_filter(lossy)
        payload = bytes(range(256)) * 20  # 5120 bytes
        conn.send(payload)
        sim.run(until=sim.now + 30.0)
        assert accepted.recv(10000) == payload
        assert conn.segments_retransmitted >= 1

    def test_flow_control_window(self, pair):
        sim, segment, server, client = pair
        listener = server.tcp.listen(80, window=1024)
        conn = client.tcp.connect(server.ip_address, 80)
        sim.run(until=1.0)
        accepted = listener.pop()
        payload = bytes(4096)
        conn.send(payload)
        sim.run(until=sim.now + 5.0)
        # Receiver buffer capped at its window until the app reads.
        assert accepted.receive_available() <= 1024
        # Reading reopens the window and the rest flows.
        collected = b""
        for _ in range(20):
            collected += accepted.recv(512)
            sim.run(until=sim.now + 1.0)
            if len(collected) == 4096:
                break
        assert collected == payload

    def test_send_before_established_raises(self, pair):
        sim, segment, server, client = pair
        conn = client.tcp.connect(server.ip_address, 80)
        with pytest.raises(TcpError):
            conn.send(b"too early")


class TestTeardown:
    def test_orderly_close_four_way(self, pair):
        sim, segment, server, client = pair
        _listener, conn, accepted = _establish(sim, server, client)
        conn.close()
        sim.run(until=sim.now + 1.0)
        assert accepted.fin_received
        assert accepted.at_eof
        assert accepted.state == TcpState.CLOSE_WAIT
        accepted.close()
        sim.run(until=sim.now + 0.5)
        assert accepted.state == TcpState.CLOSED
        assert conn.state == TcpState.TIME_WAIT
        sim.run(until=sim.now + 2.0)
        assert conn.state == TcpState.CLOSED

    def test_close_flushes_pending_data(self, pair):
        sim, segment, server, client = pair
        _listener, conn, accepted = _establish(sim, server, client)
        payload = bytes(2000)
        conn.send(payload)
        conn.close()  # FIN queued behind the data
        sim.run(until=sim.now + 5.0)
        assert accepted.recv(5000) == payload
        assert accepted.at_eof

    def test_abort_sends_rst(self, pair):
        sim, segment, server, client = pair
        _listener, conn, accepted = _establish(sim, server, client)
        conn.abort()
        sim.run(until=sim.now + 1.0)
        assert accepted.state == TcpState.CLOSED
        assert accepted.error is not None

    def test_abort_after_peer_reset_changes_nothing(self):
        obs = Obs()
        sim = Simulator(obs=obs)
        _segment, hosts = build_lan(sim, ["server", "client"])
        _listener, conn, accepted = _establish(sim, hosts["server"],
                                               hosts["client"])
        conn.abort()
        sim.run(until=sim.now + 1.0)
        assert accepted.state == TcpState.CLOSED
        before = obs.recorder.dump()
        accepted.abort()
        assert accepted.error == "connection reset by peer"
        assert obs.recorder.dump() == before
        errors = [e["msg"] for e in before
                  if e["sev"] == "ERROR" and e["tid"] == accepted._span_tid]
        assert errors == ["connection reset by peer"]

    def test_send_after_close_raises(self, pair):
        sim, segment, server, client = pair
        _listener, conn, accepted = _establish(sim, server, client)
        conn.close()
        with pytest.raises(TcpError):
            conn.send(b"late")

    def test_time_wait_releases_port(self, pair):
        sim, segment, server, client = pair
        _listener, conn, accepted = _establish(sim, server, client)
        before = len(client.tcp._connections)
        conn.close()
        accepted.close()
        sim.run(until=sim.now + 3.0)
        assert len(client.tcp._connections) == before - 1


class TestRobustness:
    def test_stray_segment_gets_rst(self, pair):
        sim, segment, server, client = pair
        stray = TcpSegment(1234, 4321, 1, 0, 0x10, 100, b"stray")
        client.ip.send(server.ip_address, IPPROTO_TCP, stray)
        sim.run(until=1.0)
        assert server.tcp.resets_sent == 1

    def test_duplicate_data_ignored(self, pair):
        sim, segment, server, client = pair
        _listener, conn, accepted = _establish(sim, server, client)
        conn.send(b"hello")
        sim.run(until=sim.now + 1.0)
        assert accepted.recv(100) == b"hello"
        # Replay the same bytes at the same sequence numbers.
        replay = TcpSegment(conn.local_port, 80,
                            seq_add(conn.snd_una, -5 % (1 << 32)), conn.rcv_nxt,
                            0x18, 8000, b"hello")
        client.ip.send(server.ip_address, IPPROTO_TCP, replay)
        sim.run(until=sim.now + 1.0)
        assert accepted.recv(100) == b""

    def test_connection_stats(self, pair):
        sim, segment, server, client = pair
        _listener, conn, accepted = _establish(sim, server, client)
        conn.send(b"x" * 100)
        sim.run(until=sim.now + 1.0)
        assert conn.bytes_sent == 100
        assert accepted.bytes_received == 100

    def test_listener_close_aborts_embryonic(self, pair):
        sim, segment, server, client = pair
        listener = server.tcp.listen(80)
        client.tcp.connect(server.ip_address, 80)
        listener.close()
        sim.run(until=2.0)
        assert server.tcp._listeners.get(80) is None
