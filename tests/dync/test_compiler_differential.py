"""Differential testing: random programs, compiled vs Python semantics.

Hypothesis generates small expression trees over 16-bit ints; we
evaluate each both in Python (with explicit 16-bit wrapping) and on the
emulated board through the full compiler pipeline, for every
optimization configuration.  Any divergence is a code generator,
peephole, assembler, or CPU bug.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dync.compiler import (
    CompiledProgram,
    CompilerOptions,
    compile_source,
)
from repro.rabbit.board import Board

MASK = 0xFFFF


def _signed(value: int) -> int:
    value &= MASK
    return value - 0x10000 if value & 0x8000 else value


# -- expression model ---------------------------------------------------------

class Expr:
    def to_c(self) -> str:
        raise NotImplementedError

    def evaluate(self, env: dict[str, int]) -> int:
        raise NotImplementedError


class Lit(Expr):
    def __init__(self, value: int):
        self.value = value

    def to_c(self) -> str:
        return str(self.value)

    def evaluate(self, env) -> int:
        return self.value & MASK


class Ref(Expr):
    def __init__(self, name: str):
        self.name = name

    def to_c(self) -> str:
        return self.name

    def evaluate(self, env) -> int:
        return env[self.name] & MASK


class Bin(Expr):
    def __init__(self, op: str, left: Expr, right: Expr):
        self.op = op
        self.left = left
        self.right = right

    def to_c(self) -> str:
        return f"({self.left.to_c()} {self.op} {self.right.to_c()})"

    def evaluate(self, env) -> int:
        a = self.left.evaluate(env)
        b = self.right.evaluate(env)
        op = self.op
        if op == "+":
            return (a + b) & MASK
        if op == "-":
            return (a - b) & MASK
        if op == "*":
            return (a * b) & MASK
        if op == "&":
            return a & b
        if op == "|":
            return a | b
        if op == "^":
            return a ^ b
        if op == "<<":
            return (a << (b & 15)) & MASK if b < 16 else 0
        if op == ">>":
            return (a >> b) if b < 16 else 0
        if op == "==":
            return int(a == b)
        if op == "!=":
            return int(a != b)
        if op == "<":
            return int(_signed(a) < _signed(b))
        if op == ">":
            return int(_signed(a) > _signed(b))
        if op == "<=":
            return int(_signed(a) <= _signed(b))
        if op == ">=":
            return int(_signed(a) >= _signed(b))
        raise AssertionError(op)


class Un(Expr):
    def __init__(self, op: str, operand: Expr):
        self.op = op
        self.operand = operand

    def to_c(self) -> str:
        return f"({self.op}{self.operand.to_c()})"

    def evaluate(self, env) -> int:
        a = self.operand.evaluate(env)
        if self.op == "-":
            return (-a) & MASK
        if self.op == "~":
            return (~a) & MASK
        if self.op == "!":
            return int(a == 0)
        raise AssertionError(self.op)


_BIN_OPS = ["+", "-", "*", "&", "|", "^", "==", "!=", "<", ">", "<=", ">="]
_UN_OPS = ["-", "~", "!"]
_VARS = ["v0", "v1", "v2"]


def _exprs(depth: int):
    leaf = st.one_of(
        st.integers(min_value=0, max_value=0xFFFF).map(Lit),
        st.sampled_from(_VARS).map(Ref),
    )
    if depth == 0:
        return leaf
    sub = _exprs(depth - 1)
    shift = st.builds(
        Bin,
        st.sampled_from(["<<", ">>"]),
        sub,
        st.integers(min_value=0, max_value=15).map(Lit),
    )
    return st.one_of(
        leaf,
        st.builds(Bin, st.sampled_from(_BIN_OPS), sub, sub),
        st.builds(Un, st.sampled_from(_UN_OPS), sub),
        shift,
    )


ENV = st.fixed_dictionaries(
    {name: st.integers(min_value=0, max_value=0xFFFF) for name in _VARS}
)


@given(expr=_exprs(3), env=ENV)
@settings(max_examples=40, deadline=None)
def test_expression_codegen_matches_python(expr, env):
    source = f"""
        int v0; int v1; int v2;
        int out;
        void main() {{ out = {expr.to_c()}; }}
    """
    program = CompiledProgram(
        Board(), compile_source(source, CompilerOptions(debug=False))
    )
    for name, value in env.items():
        program.poke_int(name, value)
    program.call("main")
    assert program.peek_int("out") == expr.evaluate(env), expr.to_c()


@given(expr=_exprs(2), env=ENV)
@settings(max_examples=15, deadline=None)
def test_peephole_preserves_semantics(expr, env):
    source = f"""
        int v0; int v1; int v2;
        int out;
        void main() {{ out = {expr.to_c()}; }}
    """
    plain = CompiledProgram(
        Board(), compile_source(source, CompilerOptions(debug=False))
    )
    optimized = CompiledProgram(
        Board(),
        compile_source(source, CompilerOptions(debug=False, optimize=True)),
    )
    for name, value in env.items():
        plain.poke_int(name, value)
        optimized.poke_int(name, value)
    plain.call("main")
    optimized.call("main")
    assert plain.peek_int("out") == optimized.peek_int("out"), expr.to_c()


@given(
    start=st.integers(min_value=0, max_value=5),
    stop=st.integers(min_value=0, max_value=12),
    env=ENV,
)
@settings(max_examples=15, deadline=None)
def test_unroll_preserves_loop_semantics(start, stop, env):
    source = f"""
        int v0; int v1; int v2;
        int out;
        void main() {{
            int i;
            out = 0;
            for (i = {start}; i < {stop}; i = i + 1)
                out = out + i * v0 + v1;
        }}
    """
    rolled = CompiledProgram(
        Board(), compile_source(source, CompilerOptions(debug=False))
    )
    unrolled = CompiledProgram(
        Board(),
        compile_source(source, CompilerOptions(debug=False, unroll=True)),
    )
    expected = 0
    for i in range(start, stop):
        expected = (expected + i * env["v0"] + env["v1"]) & MASK
    for program in (rolled, unrolled):
        for name, value in env.items():
            program.poke_int(name, value)
        program.call("main")
        assert program.peek_int("out") == expected
