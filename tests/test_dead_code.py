"""Census: every def in ``src/repro`` is reached by code that runs.

A function, method or class that no deployment, experiment, example or
benchmark refers to is code whose output nothing consumes.  This test
walks ``src/repro`` and fails on any def whose name no code in
``src``, ``examples`` or ``benchmarks`` mentions.

The census is by name, as ``grep`` would do it: a name counts as used
where it appears as an identifier, an attribute or a string literal
that is one identifier or dotted name (name dispatch goes through
strings: ``getattr``, tag tables), anywhere outside the def's own body,
so recursion is not a caller.  Prose does not count, whether in a
docstring, a message or the text of an f-string: a string that names
a def among other words does not call it.  A package ``__init__``'s
imports and ``__all__`` do not count, since they only name the def
again.  Tests never count: a def that only a test calls goes with that
test.
"""

from __future__ import annotations

import ast
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src" / "repro"
CONSUMERS = (ROOT / "src", ROOT / "examples", ROOT / "benchmarks")

#: Defs that tests reach on purpose.
ALLOWED = frozenset({
    # The hypothesis reference oracle for BigNum.divmod.
    "divmod_binary",
    # The tests' only way into a compiled program's globals and result.
    "peek_int",
    "poke_int",
    "return_value",
    # How the demokeys key was made; the RSA tests make theirs with it.
    "generate_keypair",
    # Loads code into SRAM for the emulator differential and fuzz tests.
    "load_sram",
    # The assembler's round-trip oracle: tests decode what it encodes.
    "disassemble",
    # Figure 3 at any handler count: the DC003/DC004 tests lint it.
    "main_source",
    # The paper's issl API: bind a socket, then secure reads/writes.
    "issl_accept",
    "issl_connect",
    "issl_read",
    "issl_write",
    "issl_close",
    # The ICMP echo requester the echo-responder tests ping through.
    "ping",
    # The inverse of to_state: the round-trip tests rebuild through it.
    "from_state",
})

#: Prefixes of methods found by a computed name at run time (the
#: emulator's opcode table, the program builders, the AST walkers).
DISPATCHED = ("_op_", "_build_", "visit_")

_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
_NAME = re.compile(r"[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*")


def _is_reexport(node: ast.AST) -> bool:
    return isinstance(node, ast.ImportFrom) or (
        isinstance(node, ast.Assign)
        and any(getattr(t, "id", None) == "__all__" for t in node.targets)
    )


def _docstring(node: ast.AST) -> ast.AST | None:
    """The docstring statement of a module, class or function, if any."""
    if not isinstance(node, (ast.Module,) + _DEFS) or not node.body:
        return None
    first = node.body[0]
    if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
            and isinstance(first.value.value, str)):
        return first
    return None


def _references(tree: ast.AST, names: set[str], in_init: bool,
                enclosing: tuple[str, ...] = ()) -> None:
    """Add to ``names`` every name used in ``tree`` outside a def of
    the same name and outside docstrings."""
    docstring = _docstring(tree)
    for node in ast.iter_child_nodes(tree):
        if node is docstring or (in_init and _is_reexport(node)):
            continue
        inner = enclosing
        found: list[str] = []
        if isinstance(node, _DEFS):
            inner = enclosing + (node.name,)
        elif isinstance(node, ast.Name):
            found = [node.id]
        elif isinstance(node, ast.Attribute):
            found = [node.attr]
        elif isinstance(node, ast.ImportFrom):
            found = [alias.name for alias in node.names]
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
                and _NAME.fullmatch(node.value.strip())):
            found = node.value.strip().split(".")
        names.update(name for name in found if name not in enclosing)
        _references(node, names, in_init, inner)


def _used_names() -> set[str]:
    names: set[str] = set()
    for top in CONSUMERS:
        for path in sorted(top.rglob("*.py")):
            tree = ast.parse(path.read_text(), str(path))
            _references(tree, names, path.name == "__init__.py")
    return names


def _defs():
    for path in sorted(SOURCE.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, _DEFS):
                yield path.relative_to(ROOT), node


def test_every_def_is_reached():
    used = _used_names()
    dead = [
        f"{path}:{node.lineno} {node.name}"
        for path, node in _defs()
        if node.name not in used
        and node.name not in ALLOWED
        and not node.name.startswith(DISPATCHED)
        and not (node.name.startswith("__") and node.name.endswith("__"))
    ]
    assert not dead, (
        "defs that nothing in src, examples or benchmarks refers to "
        "(delete them with the tests that only exercise them):\n  "
        + "\n  ".join(dead)
    )


def test_allowlist_names_live_defs():
    defined = {node.name for _path, node in _defs()}
    assert ALLOWED <= defined, sorted(ALLOWED - defined)
