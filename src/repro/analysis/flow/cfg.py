"""Per-function control-flow graphs for the Dynamic C subset.

The graph is statement-granular: every executable statement (and every
branch condition) is one :class:`CfgNode`; edges carry a ``kind`` so
analyses can distinguish ordinary fall-through from the cooperative
scheduling boundaries the paper's Section 4.2 semantics introduce:

* ``yield``/``waitfor`` nodes are *yield points*: control leaves the
  costatement for the scheduler and resumes at the saved program
  counter on a later big-loop pass.
* a ``waitfor`` whose condition is false takes the ``wait`` edge to the
  costatement exit (the scheduler moves on to the next costatement);
  the ``resume`` edge from the costatement entry back to the yield
  point models re-entry at the saved position.
* ``abort`` takes an ``abort`` edge straight to the costatement exit.

A costatement that completes restarts from the top on the next pass,
which the ordinary big-loop back edge already models.  Statements that
no path can reach (after an ``abort``, after a ``waitfor (0)`` that can
never become true, inside a ``while (0)``) simply end up unreachable
from the entry node -- DC010 reports them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.dync.compiler.ast_nodes import (
    Abort,
    Break,
    Continue,
    Costate,
    For,
    Function,
    If,
    Num,
    Return,
    Waitfor,
    While,
    Yield,
)

#: Node kinds with no backing statement.
ENTRY, EXIT = "entry", "exit"

#: Yield-point node kinds: control can leave for the scheduler here.
YIELD_POINT_KINDS = ("yield", "waitfor")


@dataclass(eq=False)
class CfgNode:
    """One executable point: a statement, a branch test, or a marker."""

    index: int
    kind: str            # entry/exit/stmt/branch/yield/waitfor/abort/
    #                      costate/costate_exit
    stmt: object = None  # the anchoring AST node (None for entry/exit)
    succs: list = field(default_factory=list)
    preds: list = field(default_factory=list)

    @property
    def is_yield_point(self) -> bool:
        return self.kind in YIELD_POINT_KINDS

    @property
    def line(self) -> int:
        return getattr(self.stmt, "line", 0)

    @property
    def col(self) -> int:
        return getattr(self.stmt, "col", 0)

    def successors(self) -> list["CfgNode"]:
        return [edge.dst for edge in self.succs]

    def predecessors(self) -> list["CfgNode"]:
        return [edge.src for edge in self.preds]

    def __repr__(self) -> str:
        tag = type(self.stmt).__name__ if self.stmt is not None else ""
        return f"<CfgNode {self.index} {self.kind} {tag}>".replace("  ", " ")


@dataclass(eq=False)
class Edge:
    """A directed edge; ``kind`` records why control moves this way.

    Kinds: ``fall`` (sequence), ``true``/``false`` (branch outcomes),
    ``back`` (loop), ``return``, ``abort`` (to the costatement exit),
    ``wait`` (waitfor condition false: out to the scheduler), and
    ``resume`` (costatement entry to a saved yield point).
    """

    src: CfgNode
    dst: CfgNode
    kind: str = "fall"

    def __repr__(self) -> str:
        return f"<Edge {self.src.index}-{self.kind}->{self.dst.index}>"


class Cfg:
    """The control-flow graph of one function."""

    def __init__(self, function: Function):
        self.function = function
        self.nodes: list[CfgNode] = []
        self.entry = self.add_node(ENTRY)
        self.exit = self.add_node(EXIT)

    def add_node(self, kind: str, stmt: object = None) -> CfgNode:
        node = CfgNode(len(self.nodes), kind, stmt)
        self.nodes.append(node)
        return node

    def add_edge(self, src: CfgNode, dst: CfgNode, kind: str = "fall") -> Edge:
        edge = Edge(src, dst, kind)
        src.succs.append(edge)
        dst.preds.append(edge)
        return edge

    def reachable(self) -> set[CfgNode]:
        """Nodes reachable from entry along any edge kind."""
        seen = {self.entry}
        stack = [self.entry]
        while stack:
            for succ in stack.pop().successors():
                if succ not in seen:
                    seen.add(succ)
                    stack.append(succ)
        return seen

    def edges(self) -> list[Edge]:
        return [edge for node in self.nodes for edge in node.succs]


def _const_truth(expr) -> bool | None:
    """The truth of a constant condition, or None when not constant."""
    if isinstance(expr, Num):
        return bool(expr.value)
    return None


class _LoopContext:
    def __init__(self, continue_target: CfgNode):
        self.continue_target = continue_target
        self.breaks: list[tuple[CfgNode, str]] = []


class _Builder:
    """Builds the graph with a dangling-edge frontier.

    ``frontier`` is a list of ``(node, edge_kind)`` pairs waiting to be
    connected to whatever executes next; an empty frontier means the
    next statement is unreachable (it still gets a node, so DC010 can
    see it).
    """

    def __init__(self, cfg: Cfg):
        self.cfg = cfg
        self.loops: list[_LoopContext] = []
        self.costate_exits: list[CfgNode] = []
        self.costate_yields: list[list[CfgNode]] = []

    def connect(self, frontier, node: CfgNode) -> None:
        for src, kind in frontier:
            self.cfg.add_edge(src, node, kind)

    def build_list(self, statements, frontier):
        for statement in statements or ():
            frontier = self.build_stmt(statement, frontier)
        return frontier

    def build_stmt(self, stmt, frontier):
        if isinstance(stmt, list):          # nested { } block
            return self.build_list(stmt, frontier)
        build = getattr(self, f"_build_{type(stmt).__name__.lower()}", None)
        if build is not None:
            return build(stmt, frontier)
        node = self.cfg.add_node("stmt", stmt)
        self.connect(frontier, node)
        return [(node, "fall")]

    # -- straight-line statements -------------------------------------------

    def _build_return(self, stmt: Return, frontier):
        node = self.cfg.add_node("stmt", stmt)
        self.connect(frontier, node)
        self.cfg.add_edge(node, self.cfg.exit, "return")
        return []

    def _build_break(self, stmt: Break, frontier):
        node = self.cfg.add_node("stmt", stmt)
        self.connect(frontier, node)
        if self.loops:
            self.loops[-1].breaks.append((node, "fall"))
        else:
            self.cfg.add_edge(node, self.cfg.exit, "fall")
        return []

    def _build_continue(self, stmt: Continue, frontier):
        node = self.cfg.add_node("stmt", stmt)
        self.connect(frontier, node)
        if self.loops:
            self.cfg.add_edge(node, self.loops[-1].continue_target, "back")
        else:
            self.cfg.add_edge(node, self.cfg.exit, "fall")
        return []

    # -- branches and loops --------------------------------------------------

    def _build_if(self, stmt: If, frontier):
        branch = self.cfg.add_node("branch", stmt)
        self.connect(frontier, branch)
        then_frontier = self.build_list(stmt.then_body, [(branch, "true")])
        if stmt.else_body:
            else_frontier = self.build_list(stmt.else_body,
                                            [(branch, "false")])
        else:
            else_frontier = [(branch, "false")]
        return then_frontier + else_frontier

    def _build_while(self, stmt: While, frontier):
        header = self.cfg.add_node("branch", stmt)
        self.connect(frontier, header)
        truth = _const_truth(stmt.condition)
        context = _LoopContext(header)
        self.loops.append(context)
        body_entry = [] if truth is False else [(header, "true")]
        body_frontier = self.build_list(stmt.body, body_entry)
        self.loops.pop()
        for src, kind in body_frontier:
            self.cfg.add_edge(src, header, "back")
        exits = list(context.breaks)
        if truth is not True:
            exits.append((header, "false"))
        return exits

    def _build_for(self, stmt: For, frontier):
        if stmt.init is not None:
            frontier = self.build_stmt(stmt.init, frontier)
        header = self.cfg.add_node("branch", stmt)
        self.connect(frontier, header)
        truth = _const_truth(stmt.condition)
        step_node = None
        if stmt.step is not None:
            step_node = self.cfg.add_node("stmt", stmt.step)
        context = _LoopContext(step_node or header)
        self.loops.append(context)
        body_entry = [] if truth is False else [(header, "true")]
        body_frontier = self.build_list(stmt.body, body_entry)
        self.loops.pop()
        if step_node is not None:
            self.connect(body_frontier, step_node)
            self.cfg.add_edge(step_node, header, "back")
        else:
            for src, kind in body_frontier:
                self.cfg.add_edge(src, header, "back")
        exits = list(context.breaks)
        if stmt.condition is not None and truth is not True:
            exits.append((header, "false"))
        return exits

    # -- cooperative constructs ----------------------------------------------

    def _build_costate(self, stmt: Costate, frontier):
        enter = self.cfg.add_node("costate", stmt)
        self.connect(frontier, enter)
        exit_node = self.cfg.add_node("costate_exit", stmt)
        self.costate_exits.append(exit_node)
        self.costate_yields.append([])
        body_frontier = self.build_list(stmt.body, [(enter, "fall")])
        yields = self.costate_yields.pop()
        self.costate_exits.pop()
        self.connect(body_frontier, exit_node)
        for yield_point in yields:
            self.cfg.add_edge(enter, yield_point, "resume")
        return [(exit_node, "fall")]

    def _scheduler_exit(self) -> CfgNode:
        """Where control goes when a costatement yields to the scheduler."""
        return self.costate_exits[-1] if self.costate_exits else self.cfg.exit

    def _build_yield(self, stmt: Yield, frontier):
        node = self.cfg.add_node("yield", stmt)
        self.connect(frontier, node)
        if self.costate_yields:
            self.costate_yields[-1].append(node)
        return [(node, "fall")]

    def _build_waitfor(self, stmt: Waitfor, frontier):
        node = self.cfg.add_node("waitfor", stmt)
        self.connect(frontier, node)
        if self.costate_yields:
            self.costate_yields[-1].append(node)
        truth = _const_truth(stmt.condition)
        if truth is not True:
            # Condition false this pass: out to the scheduler.
            self.cfg.add_edge(node, self._scheduler_exit(), "wait")
        if truth is False:
            return []    # can never become true: nothing falls through
        return [(node, "fall")]

    def _build_abort(self, stmt: Abort, frontier):
        node = self.cfg.add_node("abort", stmt)
        self.connect(frontier, node)
        self.cfg.add_edge(node, self._scheduler_exit(), "abort")
        return []


def build_cfg(function: Function) -> Cfg:
    """Build the statement-level CFG of one function."""
    cfg = Cfg(function)
    builder = _Builder(cfg)
    frontier = builder.build_list(function.body, [(cfg.entry, "fall")])
    builder.connect(frontier, cfg.exit)
    return cfg


#: Statement types whose CFG nodes represent real executable code (for
#: unreachable-code reporting; entry/exit/costate_exit are synthetic).
REPORTABLE_KINDS = ("stmt", "branch", "yield", "waitfor", "abort", "costate")


# Re-exported convenience used by rules and tests.
__all__ = [
    "Cfg",
    "CfgNode",
    "Edge",
    "ENTRY",
    "EXIT",
    "REPORTABLE_KINDS",
    "build_cfg",
]
