"""dclint Layer 2: Python-source checks over embedded-runtime usage.

The simulator exposes the board's constraints as Python APIs
(:mod:`repro.dync.runtime`); misusing them reintroduces exactly the
porting bugs the paper documents.  These checks run Python's own ``ast``
over call sites:

* PY101 -- an ``xalloc(...)`` result that is discarded: there is no
  ``free`` (S5.2), so a dropped handle leaks that xmem forever.
* PY102 -- writing a ``_value`` backing field directly bypasses the
  ``shared``/``protected`` commit protocol (atomic bracket / battery-RAM
  backup); mutate through ``.set()``.
* PY103 -- calling ``.free(...)`` on an xmem allocator: Dynamic C has no
  free; the runtime raises, the lint catches it before runtime does.
* PY104 -- reaching into a scheduler's private costate list; use the
  public accessors so the Figure 3 loop stays inspectable without
  coupling to internals.

The determinism sanitizer (PY105/PY106) statically enforces the
invariant the bench gate only checks dynamically: simulation output
must be byte-identical for a given seed.  PY105 flags nondeterministic
*sources* -- wall-clock reads (``time.time()``, ``perf_counter``,
``datetime.now()``) and the process-global RNG (``random.random()``
and friends; a seeded ``random.Random(seed)`` instance is the
sanctioned pattern).  PY106 flags nondeterministic *orders*: iterating
a set (or laundering one through ``list()``/``join()``) bakes hash
order into the output.  The one legitimate wall-time call site (the
bench snapshot's creation stamp) carries an explicit
``dclint: allow(PY105)`` annotation.

The module also extracts embedded Dynamic C sources (plain string
literals that look like the subset language) so Layer 1 can lint
firmware carried inside Python files.  Docstrings and literals that do
not even tokenize as the subset (prose, ANSI C with preprocessor lines)
are skipped; f-strings cannot be extracted statically, so tests import
and lint those explicitly.
"""

from __future__ import annotations

import ast
import re

from repro.diagnostics import DiagnosticSink
from repro.dync.compiler.lexer import LexError, tokenize

#: Owner names treated as xmem allocators for PY101/PY103.
_ALLOCATOR_NAME_RE = re.compile(r"(alloc|xmem)", re.IGNORECASE)

#: A string literal is probably Dynamic C if it declares a function or a
#: costatement and has block + statement syntax.
_DYNC_HINT_RE = re.compile(
    r"\b(?:void|int|char)\s+\w+\s*\([^)]*\)\s*\{|\bcostate\b"
)

#: Private scheduler fields PY104 guards.
_PRIVATE_SCHEDULER_ATTRS = {"_costates", "_factories"}

#: PY105: wall-clock readers on the ``time`` module.
_TIME_CLOCK_ATTRS = {
    "time", "time_ns", "monotonic", "monotonic_ns", "perf_counter",
    "perf_counter_ns", "process_time", "process_time_ns",
}

#: PY105: wall-clock constructors on ``datetime`` / ``datetime.date``.
_DATETIME_CLOCK_ATTRS = {"now", "utcnow", "today"}

#: PY105: ``random``-module attributes that do NOT touch the global RNG.
#: ``random.Random(seed)`` is the sanctioned seeded-instance pattern.
_RANDOM_SAFE_ATTRS = {"Random"}

#: PY106: wrappers that preserve a set's arbitrary iteration order.
_ORDER_LAUNDERERS = {"list", "tuple", "iter", "enumerate", "reversed"}


def _call_name(node: ast.Call) -> str:
    func = node.func
    if isinstance(func, ast.Attribute):
        return func.attr
    if isinstance(func, ast.Name):
        return func.id
    return ""


def _owner_name(node: ast.AST) -> str:
    if isinstance(node, ast.Attribute):
        return _owner_name(node.value) or node.attr
    if isinstance(node, ast.Name):
        return node.id
    return ""


def check_python_source(tree: ast.Module, sink: DiagnosticSink) -> None:
    for node in ast.walk(tree):
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Call):
            call = node.value
            if _call_name(call) == "xalloc":
                sink.error(
                    "PY101",
                    "xalloc() result discarded: Dynamic C has no free(), "
                    "so a dropped handle leaks that xmem permanently "
                    "(paper S5.2)",
                    hint="bind the returned XmemPointer, or do not allocate",
                    line=node.lineno, col=node.col_offset + 1,
                )
        elif isinstance(node, (ast.Assign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            for target in targets:
                if isinstance(target, ast.Attribute) \
                        and target.attr == "_value" \
                        and not (isinstance(target.value, ast.Name)
                                 and target.value.id == "self"):
                    sink.error(
                        "PY102",
                        "direct write to a '_value' backing field bypasses "
                        "the shared/protected commit protocol (no atomic "
                        "bracket, no battery-RAM backup)",
                        hint="mutate through .set() so the update is "
                             "bracketed/backed up (paper, Figure 1)",
                        line=node.lineno, col=node.col_offset + 1,
                    )
        elif isinstance(node, ast.Call) and _call_name(node) == "free":
            owner = _owner_name(node.func) if isinstance(node.func,
                                                         ast.Attribute) else ""
            if owner and _ALLOCATOR_NAME_RE.search(owner):
                sink.error(
                    "PY103",
                    f"{owner}.free() called, but Dynamic C has no free(); "
                    "allocated xmem cannot be returned to the pool "
                    "(paper S5.2)",
                    hint="design the allocation to live for the life of "
                         "the program, as the port did",
                    line=node.lineno, col=node.col_offset + 1,
                )
        elif isinstance(node, ast.Attribute) \
                and node.attr in _PRIVATE_SCHEDULER_ATTRS \
                and not (isinstance(node.value, ast.Name)
                         and node.value.id == "self"):
            sink.warning(
                "PY104",
                f"private scheduler field '.{node.attr}' accessed from "
                "outside the scheduler",
                hint="use CostateScheduler.costate_names / costate_count "
                     "instead",
                line=node.lineno, col=node.col_offset + 1,
            )


# -- PY105/PY106: the determinism sanitizer -----------------------------------

def _nondeterministic_imports(tree: ast.Module) -> set[str]:
    """Local names bound by ``from time/random import ...`` to flag.

    ``from time import perf_counter`` hides the module owner, so calls
    to the bare name need their origin tracked.
    """
    flagged = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        for alias in node.names or ():
            local = alias.asname or alias.name
            if node.module == "time" and alias.name in _TIME_CLOCK_ATTRS:
                flagged.add(local)
            elif node.module == "random" \
                    and alias.name not in _RANDOM_SAFE_ATTRS:
                flagged.add(local)
    return flagged


def _py105_reason(node: ast.Call, from_imports: set[str]) -> str | None:
    """Why this call is a nondeterministic source, or None."""
    func = node.func
    if isinstance(func, ast.Name):
        if func.id in from_imports:
            return f"'{func.id}' (imported from time/random)"
        return None
    if not isinstance(func, ast.Attribute):
        return None
    owner = _owner_name(func.value)
    if owner == "time" and func.attr in _TIME_CLOCK_ATTRS:
        return f"time.{func.attr}()"
    if owner == "datetime" and func.attr in _DATETIME_CLOCK_ATTRS:
        return f"datetime...{func.attr}()"
    if isinstance(func.value, ast.Name) and func.value.id == "random" \
            and func.attr not in _RANDOM_SAFE_ATTRS:
        return f"random.{func.attr}() (the process-global RNG)"
    return None


def _is_set_expression(node: ast.AST) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    return isinstance(node, ast.Call) \
        and isinstance(node.func, ast.Name) \
        and node.func.id in ("set", "frozenset")


def _set_iteration_sites(tree: ast.Module):
    """``(node, how)`` pairs where a set's arbitrary order escapes."""
    for node in ast.walk(tree):
        if isinstance(node, ast.For) and _is_set_expression(node.iter):
            yield node.iter, "iterated by a for loop"
        elif isinstance(node, (ast.ListComp, ast.GeneratorExp,
                               ast.DictComp, ast.SetComp)):
            for generator in node.generators:
                if _is_set_expression(generator.iter):
                    yield generator.iter, "iterated by a comprehension"
        elif isinstance(node, ast.Call):
            func = node.func
            wrapper = None
            if isinstance(func, ast.Name) and func.id in _ORDER_LAUNDERERS:
                wrapper = f"{func.id}()"
            elif isinstance(func, ast.Attribute) and func.attr == "join":
                wrapper = "str.join()"
            if wrapper:
                for arg in node.args:
                    if _is_set_expression(arg):
                        yield arg, f"passed to {wrapper}"


def check_determinism(tree: ast.Module, sink: DiagnosticSink) -> None:
    """PY105/PY106 over one module (part of ``check_python_source``)."""
    from_imports = _nondeterministic_imports(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            reason = _py105_reason(node, from_imports)
            if reason:
                sink.error(
                    "PY105",
                    f"nondeterministic source {reason} in simulation code: "
                    "output stops being byte-identical for a given seed",
                    hint="read simulated time from the Simulator, or thread "
                         "a seeded random.Random through; annotate harness "
                         "wall-clock timing with dclint: allow(PY105)",
                    line=node.lineno, col=node.col_offset + 1,
                )
    for site, how in _set_iteration_sites(tree):
        sink.error(
            "PY106",
            f"set {how}: iteration order depends on hashing, so any "
            "output derived from it is nondeterministic",
            hint="sort first (sorted(the_set)) or keep an ordered "
                 "structure (dict keys preserve insertion order)",
            line=site.lineno, col=site.col_offset + 1,
        )


def extract_embedded_sources(tree: ast.Module) -> list[tuple[int, str]]:
    """Plain string literals that look like Dynamic C, as (lineno, text).

    f-strings (``ast.JoinedStr``) are skipped: their contents are not
    known until runtime (tests import and lint those explicitly).
    """
    skipped = {
        id(part)
        for node in ast.walk(tree) if isinstance(node, ast.JoinedStr)
        for part in ast.walk(node)
    }
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body \
                and isinstance(node.body[0], ast.Expr) \
                and isinstance(node.body[0].value, ast.Constant):
            skipped.add(id(node.body[0].value))  # docstring
    sources = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and id(node) not in skipped \
                and "\n" in node.value \
                and _DYNC_HINT_RE.search(node.value) \
                and _lexes_as_dync(node.value):
            sources.append((node.lineno, node.value))
    return sources


def _lexes_as_dync(text: str) -> bool:
    try:
        tokenize(text)
    except LexError:
        return False
    return True
