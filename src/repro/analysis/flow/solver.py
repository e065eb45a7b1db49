"""A generic forward worklist solver over CFGs.

An analysis supplies the lattice (via ``initial_state``/``join``) and
the semantics (``transfer``); the solver iterates to a fixpoint.  State
values must be immutable and comparable with ``==`` (frozensets,
tuples, small sentinels); ``join`` must be monotone for termination.

The solver records how many node visits the fixpoint took
(:attr:`Solution.iterations`) so tests can pin convergence behavior on
loops instead of trusting it.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from repro.analysis.flow.cfg import Cfg, CfgNode


class DataflowAnalysis:
    """Base class: subclass and override the four hooks.  States flow
    from entry to exit."""

    def boundary_state(self):
        """State at the entry node."""
        raise NotImplementedError

    def initial_state(self):
        """The optimistic starting state (the lattice bottom)."""
        raise NotImplementedError

    def join(self, left, right):
        """Least upper bound of two states."""
        raise NotImplementedError

    def transfer(self, node: CfgNode, state):
        """State after executing ``node`` given the state before it."""
        raise NotImplementedError


@dataclass
class Solution:
    """Fixpoint states per node.

    ``before[node]`` is the joined state entering the node,
    ``after[node]`` the state ``transfer`` leaves.
    """

    analysis: DataflowAnalysis
    before: dict
    after: dict
    iterations: int


def solve(cfg: Cfg, analysis: DataflowAnalysis) -> Solution:
    """Run ``analysis`` over ``cfg`` to fixpoint and return the states."""
    start = cfg.entry
    before = {node: analysis.initial_state() for node in cfg.nodes}
    before[start] = analysis.boundary_state()
    after: dict = {}
    worklist = deque(cfg.nodes)
    queued = set(worklist)
    iterations = 0
    while worklist:
        node = worklist.popleft()
        queued.discard(node)
        iterations += 1
        if node is not start:
            state = analysis.initial_state()
            for pred in node.predecessors():
                if pred in after:
                    state = analysis.join(state, after[pred])
            before[node] = state
        out = analysis.transfer(node, before[node])
        if node not in after or after[node] != out:
            after[node] = out
            for succ in node.successors():
                if succ not in queued:
                    worklist.append(succ)
                    queued.add(succ)
    return Solution(analysis, before, after, iterations)
