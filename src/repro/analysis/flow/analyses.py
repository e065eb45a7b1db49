"""Canned dataflow analyses over the Dynamic C CFG.

* :class:`ReachingDefinitions` -- forward may-analysis; definitions are
  ``Def(name, node_index)`` pairs, with ``node_index == UNINIT`` for
  the synthetic "never initialized" definition seeded at function
  entry for selected variables (DC008's question).
* :class:`InterruptMaskAnalysis` -- forward analysis of the Rabbit's
  interrupt-priority register across ``ipset``/``ipres`` calls.  The
  abstract state is the IP shift register itself: a tuple of up to four
  priority levels (the hardware keeps four 2-bit fields), ``UNKNOWN``
  when paths disagree.  ``ipset n`` pushes a level, ``ipres`` rotates
  the previous one back -- the Figure 1 atomic bracket, as a lattice.
"""

from __future__ import annotations

from typing import NamedTuple

from repro.analysis.flow.cfg import CfgNode
from repro.analysis.flow.solver import DataflowAnalysis
from repro.analysis.walker import iter_nodes
from repro.dync.compiler.ast_nodes import (
    Assign,
    Binary,
    Call,
    ExprStmt,
    Index,
    LocalDecl,
    Num,
    Return,
    Unary,
    Var,
    Waitfor,
)

#: Bare expressions a statement node can carry (e.g. a call statement).
_EXPRESSION_TYPES = (Num, Var, Index, Unary, Binary, Call)

#: Sentinel node index for the "uninitialized at entry" definition.
UNINIT = -1

#: Lattice top for the interrupt-mask analysis: paths disagree.
UNKNOWN = None

#: Lattice bottom (unreached); shared by analyses that need one.
BOTTOM = type("_Bottom", (), {"__repr__": lambda self: "BOTTOM"})()

#: Depth of the Rabbit IP register: four 2-bit priority fields.
_IP_DEPTH = 4


class Def(NamedTuple):
    """One reaching definition: variable name + defining CFG node."""

    name: str
    node_index: int


def _payload(node: CfgNode):
    """The node's statement with any ``ExprStmt`` wrapper removed.

    The parser produces assignments as expressions (``i = i + 1`` and
    ``i++`` both become an ``Assign`` inside an ``ExprStmt``), so the
    use/def helpers look through the wrapper.
    """
    stmt = node.stmt
    if isinstance(stmt, ExprStmt):
        return stmt.expr
    return stmt


def _expressions_of(node: CfgNode) -> list:
    """The expressions a CFG node evaluates, for use/def extraction."""
    if node.kind == "branch":
        # If/While/For node: only the condition is evaluated here.
        condition = node.stmt.condition
        return [condition] if condition is not None else []
    stmt = _payload(node)
    if isinstance(stmt, Assign):
        exprs = [stmt.value]
        if isinstance(stmt.target, Index):
            exprs.append(stmt.target.index)
            exprs.append(stmt.target.base)      # a[i] = v reads a's base
        elif stmt.op != "=":
            exprs.append(stmt.target)           # x += v reads x
        return exprs
    if isinstance(stmt, LocalDecl):
        return [stmt.initializer] if stmt.initializer is not None else []
    if isinstance(stmt, Return):
        return [stmt.value] if stmt.value is not None else []
    if isinstance(stmt, Waitfor):
        return [stmt.condition] if stmt.condition is not None else []
    if isinstance(stmt, _EXPRESSION_TYPES):
        return [stmt]
    return []


def reads_of(node: CfgNode) -> list[Var]:
    """``Var`` occurrences read when ``node`` executes, in source order."""
    reads: list[Var] = []
    for expr in _expressions_of(node):
        for var in iter_nodes(expr, Var):
            reads.append(var)
    return reads


def write_of(node: CfgNode) -> tuple[str, bool] | None:
    """``(name, is_strong)`` if the node writes a variable, else None.

    Writes through an index are weak (one element of ``name``); plain
    variable assignments and initialized declarations are strong.
    """
    stmt = _payload(node)
    if isinstance(stmt, Assign):
        if isinstance(stmt.target, Var):
            return stmt.target.name, True
        if isinstance(stmt.target, Index):
            return stmt.target.base.name, False
    elif isinstance(stmt, LocalDecl) and stmt.initializer is not None:
        return stmt.name, True
    return None


class ReachingDefinitions(DataflowAnalysis):
    """Which definitions of each variable may reach each point."""

    def __init__(self, uninitialized=()):
        self.uninitialized = frozenset(uninitialized)

    def boundary_state(self):
        return frozenset(Def(name, UNINIT) for name in self.uninitialized)

    def initial_state(self):
        return frozenset()

    def join(self, left, right):
        return left | right

    def transfer(self, node: CfgNode, state):
        written = write_of(node)
        if written is None:
            return state
        name, strong = written
        new = Def(name, node.index)
        if strong:
            state = frozenset(d for d in state if d.name != name)
        return state | {new}


class InterruptMaskAnalysis(DataflowAnalysis):
    """Abstract interpretation of the IP register across paths.

    States: ``BOTTOM`` (unreached), ``UNKNOWN`` (paths disagree), or a
    tuple of priority levels, last element current.  ``ipset n`` with a
    non-constant argument degrades to ``UNKNOWN``.  Functions are
    entered at priority 0.
    """

    def __init__(self, ipset_calls=("ipset",), ipres_calls=("ipres",)):
        self.ipset_calls = frozenset(ipset_calls)
        self.ipres_calls = frozenset(ipres_calls)

    def boundary_state(self):
        return (0,)

    def initial_state(self):
        return BOTTOM

    def join(self, left, right):
        if left is BOTTOM:
            return right
        if right is BOTTOM:
            return left
        if left == right:
            return left
        return UNKNOWN

    def transfer(self, node: CfgNode, state):
        for call in self._mask_calls(node):
            if state is BOTTOM:
                state = self.boundary_state()
            if call.name in self.ipres_calls:
                if state is not UNKNOWN and len(state) > 1:
                    state = state[:-1]
                continue
            level = self._const_arg(call)
            if level is None or state is UNKNOWN:
                state = UNKNOWN
            else:
                state = (state + (level,))[-_IP_DEPTH:]
        return state

    def _mask_calls(self, node: CfgNode):
        for expr in _expressions_of(node):
            for call in iter_nodes(expr, Call):
                if call.name in self.ipset_calls \
                        or call.name in self.ipres_calls:
                    yield call

    @staticmethod
    def _const_arg(call: Call):
        if call.args and hasattr(call.args[0], "value") \
                and isinstance(call.args[0].value, int):
            return call.args[0].value
        return None


def interrupts_disabled(state) -> bool:
    """True only when every path reaches here with interrupts masked."""
    return state is not BOTTOM and state is not UNKNOWN and state[-1] >= 1
