"""The case-study service: a secure redirector (DESIGN.md S8).

The paper's authors "implemented a simple Unix service that used the
issl library to establish a secure redirector" and later ported it to
the RMC2000.  The service is an SSL terminator: clients speak issl to
it; it decrypts each request line, forwards it over plain TCP to a
backend, and returns the backend's response line over the secure
channel -- the coprocessor-offload pattern Section 2 motivates.

Five variants:

* :func:`unix_secure_redirector` -- the original: BSD sockets, one
  forked child per connection (the listing in Section 5.3).
* :func:`build_rmc_redirector` -- the port: Figure 3's main loop, N
  handler costatements (default 3) plus one ``tcp_tick`` driver.
* :func:`build_pooled_redirector` -- past the Figure-3 ceiling: ONE
  indexed pooled costatement whose slot capacity is set at
  scheduler-build time, per-slot state drawn from an
  :class:`~repro.dync.runtime.xalloc.XmemBufferPool`, and admission
  control that refuses (``redirector.refused.*``) instead of
  allocating past the xmem budget.
* plain handlers (``secure=False``) -- the no-TLS baseline the E4
  throughput experiment compares against.
* :func:`backend_line_server` -- the plaintext backend behind all of
  them.
"""

from __future__ import annotations

from collections import deque
from typing import Callable

from repro.dync.runtime.costate import (
    CostateScheduler,
    IDLE,
    IndexedCofunctionPool,
    idle_until,
)
from repro.dync.runtime.xalloc import XallocError
from repro.issl.api import issl_bind
from repro.issl.session import (
    IsslContext,
    IsslError,
    IsslSessionLimitError,
    IsslTimeout,
)
from repro.issl.transport import TransportError, TransportTimeout
from repro.net.addresses import Ipv4Address
from repro.net.bsd import LISTENQ, SocketError, socket
from repro.net.dynctcp import DyncTcpStack, make_socket
from repro.net.host import Host
from repro.obs.trace import CAT_SERVICE, context_of
from repro.services.client import _read_plain_line
from repro.unixsim.host import UnixHost
from repro.unixsim.process import exit_process

#: Figure 3's port.
TLS_PORT = 4433
PLAIN_PORT = 8000
BACKEND_PORT = 9000

_LINE_MAX = 4096


# ---------------------------------------------------------------------------
# Backend
# ---------------------------------------------------------------------------

def backend_line_server(host: Host, port: int = BACKEND_PORT,
                        transform: Callable[[bytes], bytes] | None = None,
                        stats: dict | None = None,
                        backlog: int = LISTENQ):
    """Generator: accept-loop line server; one child process per client.

    The default transform upper-cases the request, making redirection
    observable end to end.  ``backlog`` must cover the redirector's
    slot count: a dynamic pool opens up to one backend connection per
    slot simultaneously, and a burst past the backlog reads as
    ``redirector.errors.backend`` on the other side.
    """
    if transform is None:
        transform = bytes.upper
    lsock = socket(host)
    lsock.bind(("", port))
    lsock.listen(backlog)
    tracer = host.sim.obs.tracer
    backend_tid = f"svc:{host.name}:backend"

    def handle(conn):
        buffer = b""
        while True:
            try:
                chunk = yield from conn.recv(_LINE_MAX)
            except SocketError:
                break
            if not chunk:
                break
            buffer += chunk
            while b"\n" in buffer:
                line, buffer = buffer.split(b"\n", 1)
                if stats is not None:
                    stats["requests"] = stats.get("requests", 0) + 1
                # Parent on the redirector's propagated trace context so
                # the backend leg hangs off the service.request span.
                ctx = conn.rx_trace_ctx
                span = tracer.begin(
                    "backend.request", cat=CAT_SERVICE, tid=backend_tid,
                    parent=None if ctx is None else ctx.span_id,
                    trace=None if ctx is None else ctx.trace_id,
                    bytes=len(line),
                )
                yield from conn.sendall(transform(line) + b"\n")
                tracer.end(span)
        conn.close()

    while True:
        conn = yield from lsock.accept()
        host.sim.spawn(handle(conn), name=f"{host.name}:backend-child")


# ---------------------------------------------------------------------------
# Line helpers shared by the redirector variants
# ---------------------------------------------------------------------------

def _read_secure_line(session, sim=None, deadline=None):
    """Generator: accumulate issl records until a full line.

    With ``sim`` and ``deadline`` each read is bounded by the remaining
    budget; a stalled peer surfaces as :class:`IsslTimeout`.
    """
    buffer = b""
    while b"\n" not in buffer:
        timeout = None
        if deadline is not None and sim is not None:
            timeout = max(0.0, deadline - sim.now)
        chunk = yield from session.read(timeout=timeout)
        if not chunk:
            return None if not buffer else buffer
        buffer += chunk
    # Any tail after the newline is dropped: safe because each client
    # sends one line and waits for the response before sending the next.
    return buffer.split(b"\n", 1)[0]


# ---------------------------------------------------------------------------
# The original Unix service (fork-per-connection, Section 5.3 listing)
# ---------------------------------------------------------------------------

def unix_secure_redirector(host: UnixHost, context: IsslContext,
                           backend_ip: Ipv4Address | str,
                           backend_port: int = BACKEND_PORT,
                           listen_port: int = TLS_PORT,
                           stats: dict | None = None):
    """Generator (run as a Unix process): the original issl service.

    Structure follows the paper's listing: ``listen``; loop ``accept``;
    ``fork`` a child per request; the parent immediately re-accepts.
    """
    lsock = socket(host)
    lsock.bind(("", listen_port))
    lsock.listen(LISTENQ)
    accepted = 0
    while True:
        conn = yield from lsock.accept()
        accepted += 1
        # if ((childpid = fork()) == 0) { handle(accept_fd); exit(0); }
        host.kernel.fork(
            _unix_child(host, context, conn, backend_ip, backend_port, stats,
                        f"svc:unix-child:{accepted}"),
            name="issl-child",
        )


def _unix_child(host, context, conn, backend_ip, backend_port, stats,
                tid="svc:unix-child"):
    obs = host.sim.obs
    tracer = obs.tracer
    ctr_redirected = obs.metrics.counter("redirector.redirected")
    span = tracer.begin("service.connection", cat=CAT_SERVICE, tid=tid)
    try:
        session = issl_bind(context, conn, role="server")
    except IsslSessionLimitError as exc:
        # The static session budget is a refusal, not a crash.
        obs.metrics.counter("redirector.refused.sessions").inc()
        context.logger.log(f"redirector: {tid}: refused: {exc}")
        conn.close()
        tracer.end(span, error="sessions")
        exit_process(1)
    try:
        yield from session.handshake()
    except IsslError as exc:
        context.logger.log(f"redirector: {tid}: handshake failed: {exc}")
        conn.close()
        tracer.end(span, error="handshake")
        exit_process(1)
    backend = socket(host)
    try:
        yield from backend.connect((backend_ip, backend_port))
    except SocketError:
        yield from session.close()
        tracer.end(span, error="backend-connect")
        exit_process(1)
    requests = 0
    while True:
        line = yield from _read_secure_line(session)
        if line is None:
            break
        ctx = session.rx_trace_ctx
        req_span = tracer.begin(
            "service.request", cat=CAT_SERVICE, tid=tid,
            parent=None if ctx is None else ctx.span_id,
            trace=None if ctx is None else ctx.trace_id,
            bytes=len(line),
        )
        backend.set_trace_context(context_of(req_span))
        yield from backend.sendall(line + b"\n")
        response = yield from _read_plain_line(backend)
        if response is None:
            tracer.end(req_span, error="backend-eof")
            break
        yield from session.write(response + b"\n")
        requests += 1
        ctr_redirected.inc()
        tracer.end(req_span)
        if stats is not None:
            stats["redirected"] = stats.get("redirected", 0) + 1
    backend.close()
    yield from session.close()
    tracer.end(span, requests=requests)
    exit_process(0)


# ---------------------------------------------------------------------------
# The RMC2000 port (Figure 3: costatements + tick driver)
# ---------------------------------------------------------------------------

def _tick_driver(stack: DyncTcpStack):
    """The dedicated stack-driver costatement (Figure 3's fourth process).

    When the stack is quiescent a tick would be a pure no-op, so the
    pass is declared IDLE -- new segments arrive as simulator events,
    which end the big loop's idle skip before the next resume.  A
    non-quiescent pass ticks and yields bare so the pass after it runs
    live and the handlers see the freshly drained bytes.
    """
    while True:
        if stack.quiescent:
            yield IDLE
        else:
            stack.tcp_tick(None)
            yield


def _sock_dead(sock) -> bool:
    """True once an attached connection can never serve a request."""
    conn = sock.conn
    return conn is not None and (
        conn.at_eof or conn.state.value == "CLOSED"
    )


class _ConnectionHandles:
    """A handler's observability handles, looked up when its body starts
    (the registry lists every counter created, zero-valued ones too)."""

    __slots__ = ("tracer", "recorder", "refused_sessions", "refused_memory",
                 "hs_errors", "backend_errors", "recovered",
                 "active", "ts_active")

    def __init__(self, obs):
        metrics = obs.metrics
        self.tracer = obs.tracer
        self.recorder = obs.recorder
        self.refused_sessions = metrics.counter("redirector.refused.sessions")
        self.refused_memory = metrics.counter("redirector.refused.memory")
        self.hs_errors = metrics.counter("redirector.errors.handshake")
        self.backend_errors = metrics.counter("redirector.errors.backend")
        self.recovered = metrics.counter("redirector.recovered")
        self.active = metrics.gauge("redirector.active_connections")
        self.ts_active = obs.telemetry.series("redirector.active_connections")


def _serve_connection(stack, context, handles, sock, backend_ip,
                      backend_port, stats, secure, label, *,
                      handshake_timeout_s=None, handshake_retries=0,
                      conn_deadline_s=None, backend_timeout_s=None,
                      buffer_pool=None):
    """Generator: serve one established connection, span begin to end.

    Every RMC build's one serving path: record buffer, ``issl_bind``,
    handshake, backend connect, :func:`_rmc_serve`.  A failing step
    counts and logs its error and skips the rest; one teardown then runs
    from what the connection reached, so the buffer is released exactly
    once.  It is plain code after the body, not a ``finally``: closing a
    suspended handler must not run ``session.close()``'s yields.
    """
    sim = stack.host.sim
    tracer = handles.tracer
    log = context.logger.log
    tid = f"svc:{label}"
    span = tracer.begin("service.connection", cat=CAT_SERVICE, tid=tid)
    buffer = session = backend = error = None
    requests = 0
    if buffer_pool is not None:
        try:
            buffer = buffer_pool.acquire()
        except XallocError as exc:
            # Graceful degradation: no record buffer, no service.
            error = "memory"
            handles.refused_memory.inc()
            log(f"redirector: {label}: out of xmem, refusing: {exc}")
            handles.recorder.warn(CAT_SERVICE, tid, "refused: out of xmem")
    if error is None and secure:
        try:
            session = issl_bind(context, sock, stack=stack, role="server")
        except IsslSessionLimitError as exc:
            # Figure 3's static ceiling: refuse, count, re-listen.
            error = "sessions"
            handles.refused_sessions.inc()
            log(f"redirector: {label}: refused: {exc}")
            handles.recorder.warn(CAT_SERVICE, tid, "refused: session limit")
        else:
            try:
                yield from session.handshake(timeout=handshake_timeout_s,
                                             retries=handshake_retries)
            except IsslError as exc:
                error = "handshake"
                handles.hs_errors.inc()
                log(f"redirector: {label}: handshake failed: {exc}")
                handles.recorder.error(CAT_SERVICE, tid, "handshake failed: "
                                       f"{type(exc).__name__}")
    if error is None:
        backend = make_socket(stack)
        stack.tcp_open(backend, 0, backend_ip, backend_port)
        backend_deadline = (None if backend_timeout_s is None
                            else sim.now + backend_timeout_s)
        # Event-wait: the SYN/ACK arrives as a simulator event and the
        # timeout arm is pinned by the token's deadline.
        backend_token = (IDLE if backend_deadline is None
                         else idle_until(backend_deadline))
        while not (stack.sock_established(backend) or _sock_dead(backend)
                   or (backend_deadline is not None
                       and sim.now >= backend_deadline)):
            yield backend_token
        if stack.sock_established(backend):
            # The shared gauge counts the connections mid-service; the
            # series records when that level changed in simulated time.
            gauge_active = handles.active
            gauge_active.set(gauge_active.value + 1)
            handles.ts_active.record(gauge_active.value)
            requests = yield from _rmc_serve(
                stack, sock, backend, session, stats, tid,
                deadline_s=conn_deadline_s, logger=context.logger,
            )
            gauge_active.set(gauge_active.value - 1)
            handles.ts_active.record(gauge_active.value)
        else:
            error = "backend-connect"
            handles.backend_errors.inc()
            log(f"redirector: {label}: backend unreachable")
            handles.recorder.error(CAT_SERVICE, tid, "backend unreachable")
    # The one teardown.
    if backend is None:
        # Refused or handshake failed: nothing worth a close_notify.
        stack.sock_abort(sock)
    else:
        if error is None:
            stack.sock_close(backend)
        else:
            stack.sock_abort(backend)
        if session is not None:
            yield from session.close()
        # Close our TCP side regardless of who spoke last; sock_close is
        # idempotent (a no-op after session.close() closed it) and the
        # next tcp_listen waits for the teardown.
        stack.sock_close(sock)
    if buffer is not None:
        buffer_pool.release(buffer)
    if error is None:
        tracer.end(span, requests=requests)
    else:
        tracer.end(span, error=error)
        handles.recovered.inc()


def _rmc_handler(stack: DyncTcpStack, context: IsslContext,
                 backend_ip, backend_port, listen_port,
                 stats: dict | None, secure: bool, label: str = "handler",
                 **serve_kwargs):
    """One handler costatement: serve one connection at a time, forever.

    Every failure path -- dead embryonic connection, refused session
    slot, exhausted buffer pool, handshake timeout, backend outage,
    stalled peer -- recovers back to ``tcp_listen``; the handler never
    wedges and never lets an exception escape into the big loop.
    ``serve_kwargs`` are :func:`_serve_connection`'s hardening knobs.
    """
    handles = _ConnectionHandles(stack.host.sim.obs)
    log = context.logger.log
    tid = f"svc:{label}"
    sock = make_socket(stack)
    while True:
        # tcp_listen refuses while the previous connection is still
        # tearing down; keep trying, one big-loop pass at a time.  The
        # failure path is a pure state check and teardown only advances
        # through simulator events, so the retry is a declared
        # event-wait the big loop may skip past.
        while not stack.tcp_listen(sock, listen_port):
            yield IDLE
        # Wait for establishment -- or for the embryonic connection to
        # die under us (lost handshake, immediate RST).  Without the
        # second arm this handler would wedge forever on a connection
        # that will never establish.  Inlined waitfor: this poll runs
        # every big-loop pass for every idle handler, and the generator
        # plus lambda indirection dominated fault-campaign profiles.
        # Both arms read connection state that only the tick driver's
        # drain (itself a non-idle pass) or a timer event can change,
        # so the poll yields IDLE.
        while not (stack.sock_established(sock) or _sock_dead(sock)):
            yield IDLE
        if stack.sock_established(sock):
            yield from _serve_connection(
                stack, context, handles, sock, backend_ip, backend_port,
                stats, secure, label, **serve_kwargs,
            )
        else:
            log(f"redirector: {label}: connection died before established")
            handles.recorder.warn(CAT_SERVICE, tid,
                                  "connection died before established")
            stack.sock_abort(sock)
            handles.recovered.inc()
        yield


def _rmc_serve(stack, sock, backend, session, stats, tid="svc:handler",
               deadline_s=None, logger=None):
    """Relay request/response lines until the client is done.

    ``deadline_s`` is a per-connection progress deadline: the budget for
    each request/response exchange, renewed after every completed
    request.  A peer that stalls past it is aborted (counted under
    ``redirector.deadline.expired``) instead of pinning the handler.
    """
    sim = stack.host.sim
    obs = sim.obs
    tracer = obs.tracer
    ctr_redirected = obs.metrics.counter("redirector.redirected")
    ctr_deadline = obs.metrics.counter("redirector.deadline.expired")
    deadline = None if deadline_s is None else sim.now + deadline_s
    requests = 0
    while True:
        try:
            if session is not None:
                line = yield from _read_secure_line(session, sim, deadline)
            else:
                line = yield from _dync_read_line(stack, sock, deadline)
        except (IsslTimeout, TransportTimeout):
            ctr_deadline.inc()
            if logger is not None:
                logger.log(
                    f"redirector: {tid}: connection deadline expired "
                    f"after {requests} request(s)"
                )
            stack.sock_abort(sock)
            return requests
        except IsslError:
            return requests
        if line is None:
            return requests
        # Open the relay span parented on the client's propagated trace
        # context (delivered alongside the request bytes), and raise our
        # own context on the backend leg, so one client request renders
        # as client.request -> service.request -> backend.request.
        if session is not None:
            ctx = session.rx_trace_ctx
        else:
            ctx = None if sock.conn is None else sock.conn.rx_trace_ctx
        span = tracer.begin(
            "service.request", cat=CAT_SERVICE, tid=tid,
            parent=None if ctx is None else ctx.span_id,
            trace=None if ctx is None else ctx.trace_id,
            bytes=len(line),
        )
        if backend.conn is not None:
            backend.conn.set_trace_context(context_of(span))
        stack.sock_write(backend, line + b"\n")
        try:
            response = yield from _dync_read_line(stack, backend, deadline)
        except TransportTimeout:
            ctr_deadline.inc()
            if logger is not None:
                logger.log(
                    f"redirector: {tid}: backend response deadline expired"
                )
            stack.sock_abort(sock)
            tracer.end(span, error="backend-deadline")
            return requests
        if response is None:
            tracer.end(span, error="backend-eof")
            return requests
        if session is not None:
            try:
                yield from session.write(response + b"\n")
            except (IsslError, TransportError):
                tracer.end(span, error="client-write")
                return requests
        else:
            stack.sock_write(sock, response + b"\n")
        requests += 1
        ctr_redirected.inc()
        if deadline is not None:
            deadline = sim.now + deadline_s
        tracer.end(span)
        if stats is not None:
            stats["redirected"] = stats.get("redirected", 0) + 1


def _dync_read_line(stack, sock, deadline=None):
    sim = stack.host.sim
    buffer = b""
    # Declared event-wait: an empty poll only turns non-empty after a
    # frame event plus a tick-driver drain (a non-idle pass), EOF/CLOSED
    # flip on the same events, and the deadline arm is pinned by the
    # token -- so the big loop may skip these passes.
    token = IDLE if deadline is None else idle_until(deadline)
    while b"\n" not in buffer:
        chunk = stack.sock_read(sock, _LINE_MAX)
        if chunk:
            buffer += chunk
            continue
        if sock.conn is None or sock.conn.at_eof \
                or sock.conn.state.value == "CLOSED":
            return None
        if deadline is not None and sim.now >= deadline:
            raise TransportTimeout("line read deadline expired")
        yield token
    # Tail dropped, as in _read_secure_line: one line in flight at a time.
    return buffer.split(b"\n", 1)[0]


def build_rmc_redirector(stack: DyncTcpStack, context: IsslContext,
                         backend_ip: Ipv4Address | str,
                         backend_port: int = BACKEND_PORT,
                         listen_port: int = TLS_PORT,
                         handlers: int = 3,
                         secure: bool = True,
                         stats: dict | None = None,
                         pass_overhead_s: float | None = None,
                         handshake_timeout_s: float | None = None,
                         handshake_retries: int = 0,
                         conn_deadline_s: float | None = None,
                         backend_timeout_s: float | None = None,
                         buffer_pool=None) -> CostateScheduler:
    """Assemble Figure 3's main loop and return its (unstarted) scheduler.

    ``handlers`` defaults to 3: "three processes to handle requests
    (allowing a maximum of three connections), and one to drive the TCP
    stack".  Increasing it is the paper's "add more costatements and
    recompile".  The scheduler reports to the simulator's observability
    handle (slice spans, jitter histogram).

    The hardening knobs all default to off (historical behaviour):
    ``handshake_timeout_s``/``handshake_retries`` bound the issl
    handshake, ``conn_deadline_s`` is the per-request progress deadline,
    ``backend_timeout_s`` bounds the backend connect, and
    ``buffer_pool`` (an :class:`~repro.dync.runtime.xalloc.XmemBufferPool`)
    makes record buffers a refusable resource instead of an assumed one.
    """
    if isinstance(backend_ip, str):
        backend_ip = Ipv4Address.parse(backend_ip)
    stack.sock_init()
    kwargs = {}
    if pass_overhead_s is not None:
        kwargs["pass_overhead_s"] = pass_overhead_s
    scheduler = CostateScheduler(stack.host.sim, name="rmc-redirector",
                                 **kwargs)
    serve_kwargs = dict(
        handshake_timeout_s=handshake_timeout_s,
        handshake_retries=handshake_retries,
        conn_deadline_s=conn_deadline_s,
        backend_timeout_s=backend_timeout_s,
        buffer_pool=buffer_pool,
    )
    for index in range(handlers):
        scheduler.add(
            _rmc_handler(stack, context, backend_ip, backend_port,
                         listen_port, stats, secure,
                         label=f"handler{index + 1}", **serve_kwargs),
            name=f"handler{index + 1}",
        )
    scheduler.add(_tick_driver(stack), name="tick-driver")
    return scheduler


# ---------------------------------------------------------------------------
# Past the Figure-3 ceiling: the dynamic connection-slot pool
# ---------------------------------------------------------------------------

#: Per-handler (or per-slot) record buffer carved from the no-free
#: xmem pool.
SLOT_BUFFER_BYTES = 4096


class _SlotMailbox:
    """Admission -> slot hand-off cell: the accepted socket, or None."""

    __slots__ = ("sock",)

    def __init__(self):
        self.sock = None


def _pool_slot(stack: DyncTcpStack, context: IsslContext,
               backend_ip, backend_port,
               stats: dict | None, secure: bool, label: str,
               mailbox: _SlotMailbox, slot, free_socks, **serve_kwargs):
    """One indexed-cofunction slot: serve handed-off connections forever.

    The admission step (not this body) listens, accepts, and either
    places an established connection into this slot's mailbox or
    refuses it; from the hand-off on, the slot runs the same
    :func:`_serve_connection` as the static handlers, then returns the
    socket to the admission free list.
    """
    obs = stack.host.sim.obs
    handles = _ConnectionHandles(obs)
    gauge_occupied = obs.metrics.gauge("redirector.slots.occupied")
    ts_occupied = obs.telemetry.series("redirector.slots.occupied")

    def release_slot(sock):
        # The one place a slot goes idle: socket back on the admission
        # free list, mailbox cleared, occupancy stepped down.
        free_socks.append(sock)
        mailbox.sock = None
        slot.busy = False
        gauge_occupied.set(gauge_occupied.value - 1)
        ts_occupied.record(gauge_occupied.value)

    while True:
        # The mailbox is only filled by the admission step, which runs
        # in this same pool driver and declares its own pass non-idle
        # when it hands off -- so an empty-mailbox poll is a pure
        # event-wait the big loop may skip past.
        while mailbox.sock is None:
            yield IDLE
        sock = mailbox.sock
        yield from _serve_connection(
            stack, context, handles, sock, backend_ip, backend_port,
            stats, secure, label, **serve_kwargs,
        )
        release_slot(sock)
        yield


def build_pooled_redirector(stack: DyncTcpStack, context: IsslContext,
                            backend_ip: Ipv4Address | str,
                            backend_port: int = BACKEND_PORT,
                            listen_port: int = TLS_PORT,
                            slots: int = 3,
                            admission: bool = True,
                            secure: bool = True,
                            stats: dict | None = None,
                            pass_overhead_s: float | None = None,
                            handshake_timeout_s: float | None = None,
                            handshake_retries: int = 0,
                            conn_deadline_s: float | None = None,
                            backend_timeout_s: float | None = None,
                            buffer_pool=None) -> CostateScheduler:
    """The dynamic connection-slot pool: one pooled costatement, N slots.

    Where Figure 3 hardcodes one costatement per connection,
    this builder registers a single indexed pooled costatement
    (:class:`~repro.dync.runtime.costate.IndexedCofunctionPool`) whose
    capacity is ``slots`` -- the "add more costatements and recompile"
    knob turned into a build-time parameter, exactly the shape dclint
    DC003 counts by its configured bound.

    Two wirings:

    * ``admission=True`` (default): one acceptor socket listens; each
      established connection is handed to the lowest-index idle slot or
      refused (``redirector.refused.slots`` + a flight-recorder event)
      when all slots are busy.  Occupancy is published as the
      ``redirector.slots.occupied`` gauge and telemetry series.
    * ``admission=False``: every slot runs the classic
      :func:`_rmc_handler` body (listen/serve/re-listen) inside the
      pooled costatement.

    Both wirings serve each connection with :func:`_serve_connection`,
    the static handlers' own path; the differential tests pin them.

    Per-slot record buffers come from ``buffer_pool``, so a pool sized
    past the xmem budget refuses at admission
    (``redirector.refused.memory``) rather than allocating past it.
    The per-request progress deadline (``conn_deadline_s``) and the
    other hardening knobs carry over from the static builder unchanged.
    """
    if slots < 1:
        raise ValueError(f"slots must be >= 1, got {slots}")
    if isinstance(backend_ip, str):
        backend_ip = Ipv4Address.parse(backend_ip)
    stack.sock_init()
    kwargs = {}
    if pass_overhead_s is not None:
        kwargs["pass_overhead_s"] = pass_overhead_s
    scheduler = CostateScheduler(stack.host.sim, name="rmc-redirector",
                                 **kwargs)
    serve_kwargs = dict(
        handshake_timeout_s=handshake_timeout_s,
        handshake_retries=handshake_retries,
        conn_deadline_s=conn_deadline_s,
        backend_timeout_s=backend_timeout_s,
        buffer_pool=buffer_pool,
    )
    pool = IndexedCofunctionPool(name="slot-pool")
    if not admission:
        # Listen-mode slots: the static handler body, pooled.  Counter
        # parity with build_rmc_redirector is by construction.
        for index in range(slots):
            slot = pool.add_slot(name=f"slot{index + 1}")
            slot.bind(_rmc_handler(
                stack, context, backend_ip, backend_port, listen_port,
                stats, secure, label=f"slot{index + 1}", **serve_kwargs,
            ))
        scheduler.add_pool(pool)
        scheduler.add(_tick_driver(stack), name="tick-driver")
        return scheduler

    sim = stack.host.sim
    world_obs = sim.obs
    metrics = world_obs.metrics
    recorder = world_obs.recorder
    ctr_refused_slots = metrics.counter("redirector.refused.slots")
    ctr_handoffs = metrics.counter("redirector.slots.handoffs")
    ctr_recovered = metrics.counter("redirector.recovered")
    gauge_occupied = metrics.gauge("redirector.slots.occupied")
    ts_occupied = world_obs.telemetry.series("redirector.slots.occupied")
    log = context.logger.log
    admission_tid = "svc:admission"
    # Statically allocated sockets, Rabbit style: one in the acceptor's
    # hand, the rest on the free list; slots return theirs on release.
    free_socks = deque(make_socket(stack) for _ in range(slots))
    acceptor = [make_socket(stack)]
    table = []
    for index in range(slots):
        mailbox = _SlotMailbox()
        slot = pool.add_slot(name=f"slot{index + 1}")
        slot.bind(_pool_slot(
            stack, context, backend_ip, backend_port, stats, secure,
            f"slot{index + 1}", mailbox, slot, free_socks, **serve_kwargs,
        ))
        table.append((mailbox, slot))

    def admission_step():
        # One non-blocking admission decision per big-loop pass.
        # Returns True when the decision was a pure "still listening"
        # check -- the one branch that is a declared event-wait (an
        # attachment only happens in a tick-driver drain, itself a
        # non-idle pass); every other branch does work.
        sock = acceptor[0]
        if sock.waiting:
            return True  # listening; nothing attached yet
        conn = sock.conn
        if conn is None or conn.state.value in ("CLOSED", "TIME_WAIT"):
            # (Re-)arm the listener; always succeeds from these states.
            stack.tcp_listen(sock, listen_port)
            return False
        if stack.sock_established(sock):
            for mailbox, slot in table:
                if not slot.busy:
                    # Hand off to the lowest-index idle slot.
                    slot.busy = True
                    mailbox.sock = sock
                    ctr_handoffs.inc()
                    gauge_occupied.set(gauge_occupied.value + 1)
                    ts_occupied.record(gauge_occupied.value)
                    acceptor[0] = free_socks.popleft()
                    return False
            # Every slot busy: refuse instead of queueing unboundedly --
            # the pool's capacity is the budget, and the refusal is the
            # observable (counter + recorder event), not a wedge.
            ctr_refused_slots.inc()
            log(f"redirector: admission: refused: all {len(table)} "
                f"slots busy")
            recorder.warn(CAT_SERVICE, admission_tid, "refused: no idle slot")
            stack.sock_abort(sock)
            ctr_recovered.inc()
            return False
        if _sock_dead(sock):
            # Died while queued for admission (lost handshake, RST);
            # the abort lands the conn in CLOSED, so the next pass
            # re-arms the listener.
            log("redirector: admission: connection died before established")
            recorder.warn(CAT_SERVICE, admission_tid,
                          "connection died before established")
            stack.sock_abort(sock)
            ctr_recovered.inc()
            return False
        # A teardown-in-flight socket off the free list: rotate it to
        # the back so one lingering close never stalls admission.
        free_socks.append(sock)
        acceptor[0] = free_socks.popleft()
        return False

    def pool_driver():
        # The driver's pass is idle only when the admission decision was
        # the pure listening check AND every live slot declared idle --
        # sweep_yield folds the slots' tokens into one.
        while True:
            admission_idle = admission_step()
            yield pool.sweep_yield(pool.step_all(),
                                   extra_idle=admission_idle)

    scheduler.add_pool(pool, driver=pool_driver())
    scheduler.add(_tick_driver(stack), name="tick-driver")
    return scheduler
