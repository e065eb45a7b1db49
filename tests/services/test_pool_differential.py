"""Exactly-once buffer release across every handler exit path of both
wirings -- the static Figure 3 redirector and the dynamic pool at
``slots=3`` -- the single teardown that makes it hold, and the same
fate for every client on both wirings.

Both wirings accept through ``redirector._await_connection`` and serve
each connection with the one ``redirector._serve_connection`` path."""

import ast
import functools
import inspect

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.demokeys import DEMO_PSK
from repro.crypto.prng import CipherRng
from repro.dync.runtime.xalloc import XmemBufferPool
from repro.faults import scenarios as fscen
from repro.faults.clients import half_handshake_client, stalling_client
from repro.issl import FREE, UNIX_FULL, IsslContext
from repro.net.packet import ETHERTYPE_IP, TCP_SYN
from repro.obs import Obs
from repro.services import (
    ClientReport,
    TLS_PORT,
    build_redirector_world,
    delayed,
    redirector,
    secure_request_client,
)
from repro.services import world as world_mod
from tests.services.test_embryonic_drop import _hold_handshake_ack


class StrictBufferPool(XmemBufferPool):
    """A buffer pool that refuses a double release -- the detector the
    exactly-once tests wire through ``build_world``."""

    instances: list = []

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.releases = 0
        StrictBufferPool.instances.append(self)

    def release(self, pointer):
        for idle in self._idle:
            assert idle is not pointer, (
                "buffer released twice without an acquire in between"
            )
        self.releases += 1
        super().release(pointer)


#: Exit path -> the verdict counter proving the path ran.  Every
#: scenario must end with each acquired buffer released exactly once.
_RELEASE_SCENARIOS = {
    "baseline": "redirector.redirected",               # clean close
    "stalled-peer": "redirector.deadline.expired",     # deadline abort
    "corrupt-app-record": "issl.records.mac_failures",  # MAC teardown
    "silent-peer": "redirector.errors.handshake",      # handshake failure
    "backend-outage": "redirector.errors.backend",     # backend unreachable
    "slot-exhaustion": "redirector.refused.sessions",  # session refusal
    "xalloc-exhaustion": "redirector.refused.memory",  # memory refusal
    # Slot refusal, before any acquire.  The scenario builds its own
    # admission-mode pool, so it runs that wiring under every id.
    "pool-burst-3": "redirector.refused.slots",
}

#: The two wirings that serve connections: Figure 3's static handlers
#: and the admission-mode pool.
_WIRINGS = {
    "static": dict(pooled=False),
    "admission": dict(pooled=True),
}


class TestExactlyOnceRelease:
    @pytest.mark.parametrize("name", list(_RELEASE_SCENARIOS))
    @pytest.mark.parametrize("wiring", list(_WIRINGS))
    def test_every_exit_path_releases_exactly_once(self, wiring, name,
                                                   monkeypatch):
        StrictBufferPool.instances = []
        monkeypatch.setattr(world_mod, "XmemBufferPool", StrictBufferPool)
        monkeypatch.setattr(
            fscen, "build_world",
            functools.partial(fscen.build_world, buffer_pool=True,
                              **_WIRINGS[wiring]),
        )
        runner = fscen.SCENARIOS[name][0]
        verdict = runner(9911)
        assert StrictBufferPool.instances, "strict pool was not wired in"
        for pool in StrictBufferPool.instances:
            # Exactly once: all acquired buffers came back, none twice
            # (a double release raises inside StrictBufferPool.release).
            assert pool.in_use == 0
            assert pool.releases == pool.acquired_total
        # The scenario itself must still hold under the strict pool, and
        # its exit path must actually have run.
        assert verdict["ok"], [
            check for check in verdict["checks"] if not check["ok"]
        ]
        assert verdict["counters"].get(_RELEASE_SCENARIOS[name], 0) > 0

    def test_strict_pool_detects_double_release(self):
        from repro.dync.runtime.xalloc import XmemAllocator

        StrictBufferPool.instances = []
        pool = StrictBufferPool(XmemAllocator(capacity=8192), 1, 1024)
        pointer = pool.acquire()
        pool.release(pointer)
        with pytest.raises(AssertionError):
            pool.release(pointer)


class TestSingleTeardown:
    """The redirector has one connection teardown, so "released exactly
    once" holds by construction rather than by five hand-kept copies."""

    @staticmethod
    def _tree():
        return ast.parse(inspect.getsource(redirector))

    def test_one_buffer_release_call_site(self):
        sites = [
            node for node in ast.walk(self._tree())
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "release"
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id == "buffer_pool"
        ]
        assert len(sites) == 1, [node.lineno for node in sites]

    def test_no_finally_block_yields(self):
        # Closing a suspended generator runs its finally blocks; a yield
        # there raises "generator ignored GeneratorExit".
        for node in ast.walk(self._tree()):
            for stmt in getattr(node, "finalbody", []):
                assert not any(
                    isinstance(inner, (ast.Yield, ast.YieldFrom))
                    for inner in ast.walk(stmt)
                ), stmt.lineno

    def test_one_embryonic_drop_call_site(self):
        # Both wirings reach it through the one wait step.
        sites = [
            node.lineno for node in ast.walk(self._tree())
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "_drop_embryonic"
        ]
        assert len(sites) == 1, sites

    def test_connection_state_read_only_in_sock_dead(self):
        # One classifier of a dead connection, not a copy per wiring:
        # the redirector asks repro.net.dynctcp.sock_dead, directly or
        # through sock_wait, and reads no connection state itself.
        for node in ast.walk(self._tree()):
            assert not (
                isinstance(node, ast.Attribute)
                and node.attr in ("state", "at_eof")
            ), node.lineno

    def test_one_socket_wait(self):
        # Every socket wait yields repro.net.dynctcp.sock_idle's token,
        # which names the socket, mostly through sock_wait; only the tick
        # driver, which waits on the stack, yields a plain IDLE.
        users = {
            func.name for func in ast.walk(self._tree())
            if isinstance(func, ast.FunctionDef)
            and any(isinstance(node, ast.Name) and node.id == "IDLE"
                    for node in ast.walk(func))
        }
        assert users == {"_tick_driver"}

    def test_no_separate_admission_step(self):
        names = {node.name for node in ast.walk(self._tree())
                 if isinstance(node, ast.FunctionDef)}
        assert "_await_connection" in names
        assert "admission_step" not in names


# ---------------------------------------------------------------------------
# Static-3 and pool-3 give every client the same fate
# ---------------------------------------------------------------------------

#: What one client does.  ``queued``: connect with the handshake ACK held
#: on the wire, then hang up (FIN or RST) -- the ACK is released with
#: the hang-up, so the connection dies in the accept queue.  ``held``:
#: a full session whose handshake ACK (and what follows it) is held
#: until ``arg`` seconds after the client starts.
#: ``stall``: one request, then a partial line and silence.  ``half``: a
#: ClientHello, then FIN or RST mid-handshake.
_SCRIPTS = st.one_of(
    st.tuples(st.just("complete"), st.integers(1, 2)),
    st.tuples(st.just("queued"), st.sampled_from(["close", "abort"])),
    st.tuples(st.just("held"), st.sampled_from([0.01, 0.05])),
    st.tuples(st.just("stall"), st.just(None)),
    st.tuples(st.just("half"), st.sampled_from(["fin", "rst"])),
)

#: At most 3 clients against 3 handlers or 3 slots: the pool never
#: refuses, so both wirings must serve the same clients.
_CLIENT_LISTS = st.lists(
    st.tuples(_SCRIPTS, st.sampled_from([0.0, 0.01, 0.1, 0.4])),
    min_size=1, max_size=3)


def _hold_after_syn(world, host, release_s):
    """Frame hook: the TCP segments ``host`` sends after its SYN and
    before ``release_s`` -- the handshake ACK first -- are held until
    ``release_s``, in order."""

    def hook(frame, index, extra_delay):
        now = world.sim.now
        if frame.src == host.interface.mac and now < release_s \
                and frame.ethertype == ETHERTYPE_IP \
                and frame.payload.payload.flags != TCP_SYN:
            extra_delay += release_s - now
        return [(frame, extra_delay)]

    world.lan.add_frame_hook(hook)


def _queued_client(world, host, hangup, outcome):
    """Connect with the handshake ACK held, hang up once the client side
    is established; report the connection's last state."""
    conn = host.tcp.connect(world.hosts["rmc"].ip_address, TLS_PORT)
    while conn.state.value != "ESTABLISHED":
        yield 1e-4
    getattr(conn, hangup)()
    yield 1.0
    outcome.append(conn.state.value)


def _run_clients(clients, pooled):
    world = build_redirector_world(
        b"differential", clients=len(clients), obs=Obs(), cost_model=FREE,
        logger_capacity=64, pooled=pooled, handshake_timeout_s=0.5,
        conn_deadline_s=0.5)
    sim = world.sim
    server_ip = str(world.hosts["rmc"].ip_address)
    processes, fates = [], []
    for index, ((kind, arg), start) in enumerate(clients):
        name = f"c{index}"
        host = world.hosts[name]
        context = IsslContext(UNIX_FULL, CipherRng(name.encode()),
                              psk=DEMO_PSK)
        report = ClientReport(name)
        outcome = []
        if kind == "queued":
            _hold_handshake_ack(world, host)
            body = _queued_client(world, host, arg, outcome)
        elif kind == "stall":
            body = stalling_client(host, context, server_ip, TLS_PORT,
                                   report, stall_s=1.0)
        elif kind == "half":
            body = half_handshake_client(host, context, server_ip, TLS_PORT,
                                         report, teardown=arg)
        else:
            if kind == "held":
                _hold_after_syn(world, host, start + arg)
            body = secure_request_client(
                host, context, server_ip, TLS_PORT,
                arg if kind == "complete" else 1, 16, report)
        processes.append(host.spawn(delayed(start, body)))
        fates.append((report, outcome))
    for process in processes:
        sim.run_until_complete(process, timeout=60)
    # Let the server finish its teardowns and deadlines.
    sim.run(until=sim.now + 2.0)
    counters = {
        name: value
        for name, value in world.obs.metrics.snapshot()["counters"].items()
        if name.startswith("redirector.")
        and not name.startswith("redirector.slots.")
    }
    events = sorted((e["sev"], e["cat"], e["msg"])
                    for e in world.obs.recorder.dump())
    return {
        "fates": [(report.error, len(report.request_times), outcome)
                  for report, outcome in fates],
        "counters": counters,
        "events": events,
    }


class TestStaticPoolDifferential:
    """Static-3 and pool-3 accept through the same wait step and serve
    through the same path, so under at most three clients each client
    meets the same fate and the redirector counts and records the same
    recoveries -- not necessarily at the same instants."""

    @settings(max_examples=60, deadline=None)
    @given(_CLIENT_LISTS)
    def test_same_fate_on_both_wirings(self, clients):
        static = _run_clients(clients, pooled=False)
        pool = _run_clients(clients, pooled=True)
        assert pool["counters"].pop("redirector.refused.slots") == 0
        assert static == pool

    def test_queued_reset_is_a_recovery_on_both(self):
        # The case the differential exists for: an RST while queued.
        clients = [(("queued", "abort"), 0.0), (("complete", 1), 0.1)]
        static = _run_clients(clients, pooled=False)
        pool = _run_clients(clients, pooled=True)
        assert static["counters"]["redirector.recovered"] == 1
        assert pool["counters"].pop("redirector.refused.slots") == 0
        assert static == pool
