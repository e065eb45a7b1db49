"""dclint Layer 1: AST rules DC001..DC006 over Dynamic C subset programs.

Each rule encodes one porting pitfall the paper's authors hit by hand:

* DC001 -- blocking construct inside a costatement (S4.2, S5.3): a call
  that waits on network progress, or a wait-loop that never yields,
  stalls every other costatement in the big loop.
* DC002 -- ``waitfor``/``yield``/``abort`` outside a costatement (S4.2):
  the cooperative keywords have no meaning without a costatement's
  saved program counter.
* DC003 -- more request costatements than the static concurrency cap
  (Figure 3: "three processes to handle requests ... and one to drive
  the TCP stack"); the cap is configurable, driver costatements are
  exempt by name.
* DC004 -- torn-write race: a multibyte global written in interrupt
  context and touched in main context must be ``shared`` so the
  compiler brackets the store with IPSET/IPRES (S4.1, Figure 1).
* DC005 -- static memory budget: root RAM and the xmem bank region are
  fixed-size; the sum of every global, param and static local must fit
  (S3: 128 KB SRAM; S5.2: all state statically allocated).
* DC006 -- xmem pointer used as a root pointer (S5.2): ``xalloc``
  returns a 20-bit physical address; indexing or arithmetic through a
  16-bit root pointer reads the wrong memory.
* DC007 -- bounded busy-loop inside a costatement without a scheduling
  point (S4.2): the loop terminates (its condition variables advance in
  the body), so it is not DC001's deadlock, but while it grinds, every
  other costatement in the big loop is starved -- the jitter the
  scheduler's ``costate.gap_s`` histogram measures.  Warning, not
  error: sometimes a short compute loop is exactly what you want.

The flow-sensitive rules DC008..DC012 live in
:mod:`repro.analysis.flow.rules` and run after these; DC004 hands the
torn-write question to DC009's interrupt-enable lattice whenever the
program manipulates the mask itself, and DC003 counts pooled
(indexed-cofunction) costatements by their configured slot capacity.
"""

from __future__ import annotations

from repro.diagnostics import DiagnosticSink
from repro.analysis.config import LintConfig
from repro.analysis.flow.rules import (
    _has_call,
    _vars_read,
    run_flow_rules,
    torn_write_candidates,
    uses_mask_ops,
)
from repro.analysis.walker import iter_nodes, walk
from repro.dync.compiler.ast_nodes import (
    Abort,
    Assign,
    Binary,
    Break,
    Call,
    Costate,
    For,
    Function,
    GlobalDecl,
    Index,
    LocalDecl,
    Num,
    Program,
    Return,
    Unary,
    Var,
    Waitfor,
    While,
    Yield,
)
from repro.dync.compiler.codegen import RAM_BASE, XMEM_PHYS_BASE


def run_all(program: Program, sink: DiagnosticSink,
            config: LintConfig) -> None:
    for rule in (check_dc001, check_dc002, check_dc003, check_dc004,
                 check_dc005, check_dc006, check_dc007):
        rule(program, sink, config)
    run_flow_rules(program, sink, config)


# -- helpers -----------------------------------------------------------------

def _loc(node) -> dict:
    return {"line": getattr(node, "line", 0), "col": getattr(node, "col", 0)}


def _assigned_names(statements) -> set[str]:
    names = set()
    for node in iter_nodes(statements, Assign):
        target = node.target
        if isinstance(target, Var):
            names.add(target.name)
        elif isinstance(target, Index):
            names.add(target.base.name)
    return names


def _body_yields(statements) -> bool:
    """True if control can leave the loop / reach the scheduler."""
    return any(isinstance(node, (Yield, Waitfor, Abort, Break, Return))
               for node, _ in walk(statements))


# -- DC001: blocking constructs inside a costatement -------------------------

def check_dc001(program: Program, sink: DiagnosticSink,
                config: LintConfig) -> None:
    for node, ancestors in walk(program.functions):
        if not any(isinstance(a, Costate) for a in ancestors):
            continue
        if isinstance(node, Call) and node.name in config.blocking_calls:
            sink.error(
                "DC001",
                f"blocking call {node.name}() inside a costatement stalls "
                "the entire big loop",
                hint="restructure as a waitfor()/yield polling loop; only "
                     "the tick-driver costatement can make network progress",
                **_loc(node),
            )
        elif isinstance(node, (While, For)):
            _check_loop_blocks(node, sink)


def _check_loop_blocks(loop, sink: DiagnosticSink) -> None:
    if _body_yields(loop.body):
        return
    condition = loop.condition
    assigned = _assigned_names(loop.body)
    if isinstance(loop, For) and loop.step is not None:
        assigned |= _assigned_names([loop.step])
    if condition is None or (isinstance(condition, Num) and condition.value):
        sink.error(
            "DC001",
            "infinite loop without yield/waitfor inside a costatement "
            "blocks every other costatement forever",
            hint="add a yield inside the loop body",
            **_loc(loop),
        )
    elif _has_call(condition):
        sink.error(
            "DC001",
            "loop waits on an external condition without yielding; the "
            "condition can only change when other costatements run",
            hint="use waitfor(...) instead of a bare wait loop",
            **_loc(loop),
        )
    elif condition is not None and not (_vars_read(condition) & assigned):
        sink.error(
            "DC001",
            "loop condition is never changed by the loop body and the "
            "loop never yields: a busy-wait that cannot terminate",
            hint="yield inside the loop, or make the body advance the "
                 "condition",
            **_loc(loop),
        )


# -- DC002: cooperative keywords outside a costatement -----------------------

def check_dc002(program: Program, sink: DiagnosticSink,
                config: LintConfig) -> None:
    keyword = {Waitfor: "waitfor", Yield: "yield", Abort: "abort"}
    for node, ancestors in walk(program.functions):
        if type(node) in keyword \
                and not any(isinstance(a, Costate) for a in ancestors):
            sink.error(
                "DC002",
                f"'{keyword[type(node)]}' outside a costatement has no "
                "saved program counter to return to",
                hint="move the statement into a costate { ... } block",
                **_loc(node),
            )


# -- DC003: the static concurrency cap (Figure 3) ----------------------------

def _const_globals(program: Program) -> dict[str, int]:
    """Scalar globals with a compile-time integer initializer."""
    return {
        g.name: g.initializer for g in program.globals
        if not g.array_size and isinstance(g.initializer, int)
    }


def _pool_capacity(costate: Costate, const_globals: dict) -> int | None:
    """Slots a pooled costatement represents, or None when not a pool.

    The indexed-cofunction / slot-pool idiom (the ROADMAP's dynamically
    scaling redirector): one costatement drives N connection slots from
    a constant-bound loop whose index selects per-slot state --
    ``for (slot = 0; slot < NSLOTS; slot++) { ...state[slot]... }``
    with a scheduling point in the body.  Such a costatement is N
    statically provisioned connections, not one, so DC003 counts it by
    its configured capacity.
    """
    for node in iter_nodes(costate.body, For):
        if not _body_yields(node.body):
            continue
        trip = _constant_trip_count(node, const_globals)
        if not trip or trip <= 1:
            continue
        init = getattr(node.init, "expr", node.init)
        if not (isinstance(init, Assign) and isinstance(init.target, Var)):
            continue
        slot = init.target.name
        indexed = any(
            isinstance(inner, Index) and _reads_var(inner.index, slot)
            for inner in iter_nodes(node.body, Index)
        ) or any(
            any(_reads_var(arg, slot) for arg in call.args)
            for call in iter_nodes(node.body, Call)
        )
        if indexed:
            return trip
    return None


def _reads_var(expr, name: str) -> bool:
    return any(var.name == name for var in iter_nodes(expr, Var))


def check_dc003(program: Program, sink: DiagnosticSink,
                config: LintConfig) -> None:
    const_globals = _const_globals(program)
    for function in program.functions:
        costates = list(iter_nodes(function.body, Costate))
        requests = [c for c in costates if not config.is_driver_name(c.name)]
        slots = 0
        pools = []
        worst = None
        for costate in requests:
            capacity = _pool_capacity(costate, const_globals)
            if capacity:
                pools.append((costate, capacity))
            slots += capacity or 1
            if worst is None and slots > config.max_costates:
                worst = costate
        if slots > config.max_costates:
            if pools:
                detail = ", ".join(
                    f"{c.name or '<anonymous>'} pools {n} slots"
                    for c, n in pools
                )
                counted = (f"{slots} connection slots across "
                           f"{len(requests)} costatements ({detail}) in "
                           f"{function.name}()")
            else:
                counted = (f"{len(requests)} request costatements in "
                           f"{function.name}()")
            sink.error(
                "DC003",
                f"{counted} exceed the static concurrency cap of "
                f"{config.max_costates} (Figure 3: each handler is one "
                "statically allocated connection)",
                hint="raising the cap means recompiling with more memory "
                     "per connection; pass --max-costates to lint for a "
                     "different build",
                **_loc(worst),
            )


# -- DC004: torn-write race detector -----------------------------------------

def check_dc004(program: Program, sink: DiagnosticSink,
                config: LintConfig) -> None:
    """Syntactic torn-write verdict, for programs with no mask code.

    When the program manipulates the interrupt mask (``ipset``/
    ``ipres``), the question becomes path-dependent -- a hand-rolled
    bracket is exactly as safe as the paths through it -- so DC009's
    interrupt-enable lattice owns the verdict and this rule stays
    silent (retiring the false positives the syntactic check used to
    emit on correctly bracketed accesses).
    """
    if uses_mask_ops(program, config):
        return
    for decl, _write_ctx, _touch_ctx, site in \
            torn_write_candidates(program, config):
        sink.error(
            "DC004",
            f"multibyte global '{decl.name}' is written in interrupt "
            "context and accessed from the main loop without the atomic "
            "bracket: an interrupt between byte stores tears the value",
            hint=f"declare it 'shared {decl.ctype} {decl.name};' so "
                 "updates are bracketed with IPSET/IPRES (paper, "
                 "Figure 1)",
            line=getattr(site, "line", decl.line),
            col=getattr(site, "col", decl.col),
        )


# -- DC005: static memory budget ---------------------------------------------

def _placement(decl: GlobalDecl, config: LintConfig) -> str:
    """Mirror CodeGenerator._declare_global's placement decision."""
    placement = "ram"
    if decl.is_const and decl.array_size:
        placement = {"flash": "flash", "root_ram": "ram",
                     "xmem": "xmem"}[config.data_placement]
        if decl.storage == "root":
            placement = "ram"
        elif decl.storage == "xmem":
            placement = "xmem"
    return placement


def _total_size(ctype, array_size: int) -> int:
    element = ctype.size
    return element * (array_size if array_size else 1)


def check_dc005(program: Program, sink: DiagnosticSink,
                config: LintConfig) -> None:
    root_used = 0
    xmem_cursor = XMEM_PHYS_BASE
    for decl in program.globals:
        total = _total_size(decl.ctype, decl.array_size)
        placement = _placement(decl, config)
        if placement == "ram":
            root_used += total
        elif placement == "xmem":
            # Mirror _alloc_xmem: arrays never straddle a 4 KB page.
            if (xmem_cursor & 0xFFF) + total > 0x1000:
                xmem_cursor = (xmem_cursor & ~0xFFF) + 0x1000
            xmem_cursor += total
    for function in program.functions:
        for param in function.params:
            root_used += max(2, param.ctype.size)
        seen = set()
        for decl in iter_nodes(function.body, LocalDecl):
            if decl.name in seen:
                continue  # one static slot per name per function
            seen.add(decl.name)
            root_used += max(1, _total_size(decl.ctype, decl.array_size))
    xmem_used = xmem_cursor - XMEM_PHYS_BASE

    line = program.globals[0].line if program.globals else 0
    for label, used, budget in (
        ("root RAM (globals + static locals/params at "
         f"0x{RAM_BASE:04X})", root_used, config.root_ram_budget),
        ("xmem bank region", xmem_used, config.xmem_budget),
    ):
        if used > budget:
            sink.error(
                "DC005",
                f"static data overflows {label}: {used} bytes of {budget} "
                "available (128 KB SRAM, paper S3)",
                hint="shrink arrays, move const tables to flash/xmem, or "
                     "drop per-connection state (S5.2: the port kept one "
                     "key size for exactly this reason)",
                line=line,
            )
        elif used > budget * config.budget_warn_fraction:
            sink.warning(
                "DC005",
                f"static data uses {used}/{budget} bytes of {label} "
                f"(over {int(config.budget_warn_fraction * 100)}%)",
                hint="the next connection slot or key buffer will not fit",
                line=line,
            )


# -- DC006: xmem pointers dereferenced as root pointers ----------------------

def check_dc006(program: Program, sink: DiagnosticSink,
                config: LintConfig) -> None:
    for function in program.functions:
        xmem_vars: set[str] = set()
        for node, _ in walk(function.body):
            value = None
            name = None
            if isinstance(node, Assign) and isinstance(node.target, Var):
                name, value = node.target.name, node.value
            elif isinstance(node, LocalDecl):
                name, value = node.name, node.initializer
            if name is not None:
                if isinstance(value, Call) \
                        and value.name in config.xmem_allocators:
                    xmem_vars.add(name)
                elif name in xmem_vars and value is not None:
                    xmem_vars.discard(name)  # reassigned to something else
        if not xmem_vars:
            continue
        for node, _ in walk(function.body):
            if isinstance(node, Index) and node.base.name in xmem_vars:
                sink.error(
                    "DC006",
                    f"'{node.base.name}' holds an xalloc() result (a 20-bit "
                    "physical xmem address) but is indexed like a root "
                    "pointer; root dereferences see the wrong memory",
                    hint="copy through the bank window with "
                         "xmem2root()/root2xmem() instead (paper S5.2)",
                    **_loc(node),
                )
            elif isinstance(node, Binary) and node.op in ("+", "-"):
                for side in (node.left, node.right):
                    if isinstance(side, Var) and side.name in xmem_vars:
                        sink.error(
                            "DC006",
                            f"pointer arithmetic on '{side.name}', an "
                            "xalloc() result: xmem pointers are physical "
                            "addresses outside the 16-bit logical space",
                            hint="xalloc handles are opaque; compute "
                                 "offsets on the xmem side via "
                                 "xmem2root()/root2xmem()",
                            **_loc(node),
                        )


# -- DC007: busy compute loop starves the big loop ----------------------------

def check_dc007(program: Program, sink: DiagnosticSink,
                config: LintConfig) -> None:
    """A terminating loop with no yield still monopolizes the CPU.

    DC001 flags no-yield loops that cannot make progress (infinite, or
    waiting on something only other costatements can change).  The
    complementary case is a loop that *does* terminate -- its condition
    reads variables its body assigns -- but runs to completion without
    ever reaching the scheduler.  On a cooperative big loop that is a
    latency cliff for every other costatement.
    """
    const_globals = _const_globals(program)
    for node, ancestors in walk(program.functions):
        if not isinstance(node, (While, For)):
            continue
        if not any(isinstance(a, Costate) for a in ancestors):
            continue
        if _body_yields(node.body):
            continue
        condition = node.condition
        if condition is None or (isinstance(condition, Num) and condition.value):
            continue  # DC001: infinite no-yield loop
        if _has_call(condition):
            continue  # DC001: waiting on an external condition
        assigned = _assigned_names(node.body)
        if isinstance(node, For) and node.step is not None:
            assigned |= _assigned_names([node.step])
        if not (_vars_read(condition) & assigned):
            continue  # DC001: busy-wait that cannot terminate
        trip = _constant_trip_count(node, const_globals)
        if trip is not None and trip <= config.busy_loop_iterations:
            continue  # short constant-bound compute loop: routine work
        sink.warning(
                "DC007",
                "busy compute loop inside a costatement runs to completion "
                "without yielding; every other costatement is starved for "
                "its whole duration",
                hint="yield periodically inside the loop, or move the "
                     "computation out of the costatement",
                **_loc(node),
            )


def _constant_trip_count(loop, const_globals: dict | None = None
                         ) -> int | None:
    """Trip count for ``for (v = C0; v cmp C1; v = v +/- C2)`` shapes.

    ``const_globals`` lets the bound be a scalar global with a constant
    initializer (the pool-capacity idiom: ``v < NSLOTS``).  Returns
    None when the bounds are not compile-time constants or the loop is
    a ``while``.
    """
    if not isinstance(loop, For):
        return None

    def const_of(expr) -> int | None:
        if isinstance(expr, Num):
            return expr.value
        if const_globals and isinstance(expr, Var):
            return const_globals.get(expr.name)
        return None

    init, condition, step = loop.init, loop.condition, loop.step
    init = getattr(init, "expr", init)      # unwrap ExprStmt
    step = getattr(step, "expr", step)
    if not (isinstance(init, Assign) and isinstance(init.target, Var)
            and isinstance(init.value, Num)):
        return None
    if not (isinstance(condition, Binary)
            and condition.op in ("<", "<=", ">", ">=", "!=")):
        return None
    if isinstance(condition.left, Var) \
            and const_of(condition.right) is not None \
            and condition.left.name == init.target.name:
        bound = const_of(condition.right)
    elif isinstance(condition.right, Var) \
            and const_of(condition.left) is not None \
            and condition.right.name == init.target.name:
        bound = const_of(condition.left)
    else:
        return None
    span = abs(bound - init.value.value)
    stride = 1
    if isinstance(step, Assign):
        value = step.value
        if step.op in ("+=", "-=") and isinstance(value, Num):
            stride = abs(value.value) or 1
        elif isinstance(value, Binary) and value.op in ("+", "-"):
            if isinstance(value.right, Num):
                stride = abs(value.right.value) or 1
            elif isinstance(value.left, Num):
                stride = abs(value.left.value) or 1
    return (span + stride - 1) // stride
