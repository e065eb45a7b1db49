"""AST for the Dynamic C subset."""

from __future__ import annotations

from dataclasses import dataclass, field


# -- types ------------------------------------------------------------------

@dataclass(frozen=True)
class CType:
    """char (1 byte, unsigned), int/unsigned (2 bytes), or pointer."""

    name: str            # 'char', 'int', 'void'
    is_pointer: bool = False

    @property
    def size(self) -> int:
        if self.is_pointer:
            return 2
        return {"char": 1, "int": 2, "void": 0}[self.name]

    def __str__(self) -> str:
        return self.name + ("*" if self.is_pointer else "")


CHAR = CType("char")
INT = CType("int")
VOID = CType("void")


# -- expressions ------------------------------------------------------------

@dataclass
class Num:
    value: int
    line: int = 0
    col: int = 0


@dataclass
class Var:
    name: str
    line: int = 0
    col: int = 0


@dataclass
class Index:
    """array[index]"""

    base: "Var"
    index: object
    line: int = 0
    col: int = 0


@dataclass
class Unary:
    op: str  # '-', '~', '!'
    operand: object
    line: int = 0
    col: int = 0


@dataclass
class Binary:
    op: str
    left: object
    right: object
    line: int = 0
    col: int = 0


@dataclass
class Assign:
    """target = value (target: Var or Index); op holds '=', '+=' etc."""

    target: object
    value: object
    op: str = "="
    line: int = 0
    col: int = 0


@dataclass
class Call:
    name: str
    args: list = field(default_factory=list)
    line: int = 0
    col: int = 0


# -- statements --------------------------------------------------------------

@dataclass
class ExprStmt:
    expr: object
    line: int = 0
    col: int = 0


@dataclass
class If:
    condition: object
    then_body: list
    else_body: list | None = None
    line: int = 0
    col: int = 0


@dataclass
class While:
    condition: object
    body: list = field(default_factory=list)
    line: int = 0
    col: int = 0


@dataclass
class For:
    init: object        # statement or None
    condition: object   # expression or None
    step: object        # statement or None
    body: list = field(default_factory=list)
    line: int = 0
    col: int = 0


@dataclass
class Return:
    value: object = None
    line: int = 0
    col: int = 0


@dataclass
class Break:
    line: int = 0
    col: int = 0


@dataclass
class Continue:
    line: int = 0
    col: int = 0


# -- costatements (paper, Section 4.2) ---------------------------------------

@dataclass
class Costate:
    """``costate [name] [always_on|init_on] { body }``.

    The unit of Dynamic C cooperative multitasking: each costatement in
    the big loop keeps its own program counter; control moves on at
    ``yield``/``waitfor`` and resumes there on the next pass.  The
    subset's code generator does not lower these (the simulator's
    :mod:`repro.dync.runtime.costate` models them at the Python level);
    they exist in the AST so dclint can check the Figure 3 main-loop
    shape statically.
    """

    body: list = field(default_factory=list)
    name: str = ""
    mode: str = ""         # '', 'always_on', 'init_on'
    line: int = 0
    col: int = 0


@dataclass
class Waitfor:
    """``waitfor (expr);`` == ``while (!expr) yield;``."""

    condition: object = None
    line: int = 0
    col: int = 0


@dataclass
class Yield:
    """``yield;``: pass control to the next costatement."""

    line: int = 0
    col: int = 0


@dataclass
class Abort:
    """``abort;``: terminate the enclosing costatement."""

    line: int = 0
    col: int = 0


@dataclass
class LocalDecl:
    """A local variable declaration.

    ``is_auto`` is False by default: Dynamic C locals are static unless
    declared ``auto`` (the compiler still allocates both statically --
    there is one activation record per function -- but tracks the flag
    for diagnostics and for the F1 demonstration of the semantics).
    """

    name: str
    ctype: CType
    array_size: int = 0    # 0 = scalar
    initializer: object = None
    is_auto: bool = False
    line: int = 0
    col: int = 0


# -- top level ----------------------------------------------------------------

@dataclass
class GlobalDecl:
    name: str
    ctype: CType
    array_size: int = 0
    initializer: list | int | None = None  # list for arrays
    is_const: bool = False
    storage: str = ""      # '', 'root', 'xmem', 'shared', 'protected'
    line: int = 0
    col: int = 0


@dataclass
class Param:
    name: str
    ctype: CType
    line: int = 0
    col: int = 0


@dataclass
class Function:
    name: str
    return_type: CType
    params: list[Param] = field(default_factory=list)
    body: list = field(default_factory=list)
    storage: str = ""      # '', 'root', 'xmem'
    nodebug: bool = False
    line: int = 0
    col: int = 0


@dataclass
class Program:
    globals: list[GlobalDecl] = field(default_factory=list)
    functions: list[Function] = field(default_factory=list)
    #: File-scope ``#asm`` blocks (their ``__asm_block(N)`` numbers), in
    #: source order; they are emitted after the compiled code.
    asm_blocks: list[int] = field(default_factory=list)

    def function(self, name: str) -> Function:
        for fn in self.functions:
            if fn.name == name:
                return fn
        raise KeyError(name)
