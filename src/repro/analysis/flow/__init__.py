"""dcflow: a flow-sensitive analysis framework over the Dynamic C AST.

Three layers, each usable on its own:

* :mod:`repro.analysis.flow.cfg` -- per-function control-flow graphs
  with costatement scheduling boundaries modeled as first-class edges
  (``yield``/``waitfor`` resume edges, ``abort`` edges to the
  costatement exit, the waitfor self-wait path through the scheduler).
* :mod:`repro.analysis.flow.solver` -- a generic forward worklist
  solver over any join-semilattice.
* :mod:`repro.analysis.flow.analyses` -- canned analyses: reaching
  definitions and the interrupt-enable lattice that tracks
  ``ipset``/``ipres`` mask state across paths (paper, Figure 1).

The flow-sensitive lint rules DC008..DC012 in
:mod:`repro.analysis.flow.rules` are built on these and are run by the
dclint engine after the syntactic rules DC001..DC007.
"""

from repro.analysis.flow.analyses import (
    BOTTOM,
    UNKNOWN,
    InterruptMaskAnalysis,
    ReachingDefinitions,
    UNINIT,
    interrupts_disabled,
)
from repro.analysis.flow.cfg import Cfg, CfgNode, Edge, build_cfg
from repro.analysis.flow.rules import run_flow_rules
from repro.analysis.flow.solver import DataflowAnalysis, Solution, solve

__all__ = [
    "BOTTOM",
    "Cfg",
    "CfgNode",
    "DataflowAnalysis",
    "Edge",
    "InterruptMaskAnalysis",
    "ReachingDefinitions",
    "Solution",
    "UNINIT",
    "UNKNOWN",
    "build_cfg",
    "interrupts_disabled",
    "run_flow_rules",
    "solve",
]
