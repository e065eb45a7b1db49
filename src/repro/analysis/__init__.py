"""dclint: static porting-pitfall analysis for the Dynamic C subset.

The paper's port failed on *platform rules*, not algorithms: costatements
must never block (Section 4.2), the connection count is a compile-time
constant (Figure 3), ``xalloc`` memory can never be freed (Section 5.2),
``shared``/``protected`` discipline guards torn writes (Section 4.1),
and everything must fit in 128 KB of SRAM.  Every one of those rules was
discovered by hand, at runtime, on the board.  This package checks them
statically:

* Layer 1 (``rules``): syntactic AST rules DC001..DC007 over
  :mod:`repro.dync.compiler` parse trees.
* Flow layer (``flow``): the dcflow engine -- per-function CFGs that
  model costatement scheduling boundaries, a generic worklist solver,
  and canned analyses (reaching definitions, the interrupt-enable
  lattice) -- carrying the flow-sensitive rules
  DC008..DC012.
* Layer 2 (``pychecks``): Python-source checks PY101..PY106 over code
  that uses :mod:`repro.dync.runtime` (including the PY105/PY106
  determinism sanitizer), plus extraction of embedded Dynamic C
  sources from Python string literals.

CLI: ``python -m repro.analysis <paths...> [--format=text|json]
[--jobs N]``.
"""

from repro.analysis.config import LintConfig
from repro.analysis.engine import (
    analyze_dync_source,
    analyze_path,
    analyze_paths,
    analyze_python_source,
)
from repro.diagnostics import Diagnostic, DiagnosticSink, Severity

__all__ = [
    "analyze_dync_source",
    "analyze_path",
    "analyze_paths",
    "analyze_python_source",
    "Diagnostic",
    "DiagnosticSink",
    "LintConfig",
    "Severity",
]
