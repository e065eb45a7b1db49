"""Code generator: Dynamic C subset AST -> Rabbit assembly.

This is deliberately the *naive one-pass stack-machine* compiler class
that early embedded toolchains were: every expression evaluates into HL,
binary operators spill the left operand with PUSH/POP, every comparison
and shift is a runtime-library call, and all variables -- including
locals, which are static by default in Dynamic C -- live at fixed
addresses (one activation record per function, no recursion).  The E1
experiment depends on this honesty: the paper's >=10x assembly-over-C
gap is a property of exactly this style of code generation.

The four optimization knobs (see ``options.py``) act here:

* ``debug``          -- a RST 0x28 debug trap before every statement,
* ``optimize``       -- the peephole pass (``peephole.py``),
* ``unroll``         -- countable-``for`` replication before codegen,
* ``data_placement`` -- const arrays in flash / copied to root RAM /
                        behind the xmem bank window.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

from repro.dync.compiler.ast_nodes import (
    Abort,
    Assign,
    Binary,
    Break,
    Call,
    Continue,
    Costate,
    CType,
    ExprStmt,
    For,
    Function,
    GlobalDecl,
    If,
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
from repro.diagnostics import Diagnostic, Severity
from repro.dync.compiler.options import CompilerOptions
from repro.dync.compiler.parser import parse
from repro.dync.compiler.peephole import peephole_optimize
from repro.dync.compiler.runtime_asm import RUNTIME_ASM
from repro.rabbit.asm import assemble, Assembly

#: Where static data (globals, locals, params) is allocated in RAM.
RAM_BASE = 0xC300
RAM_LIMIT = 0xC7FF
#: Physical base for xmem-placed const data.
XMEM_PHYS_BASE = 0x90000
#: The bank window's logical base.
WINDOW_BASE = 0xE000
#: Default XPC value the firmware idles at.
XPC_DEFAULT = 0x80
#: Stack top (inside the data segment).
STACK_TOP = 0xDFF0
#: Debug trap vector (Dynamic C single-step instrumentation).
DEBUG_RST = 0x28


class CompileError(ValueError):
    """Semantic errors: unknown names, bad types, unsupported forms."""

    def __init__(self, message: str, line: int = 0, col: int = 0):
        super().__init__(message)
        self.diagnostic = Diagnostic("GEN001", Severity.ERROR, message,
                                     line=line, col=col)


@dataclass
class Symbol:
    """A variable with its resolved storage."""

    name: str
    ctype: CType
    array_size: int = 0          # 0 for scalars
    placement: str = "ram"       # 'ram', 'flash', 'xmem'
    address: int = 0             # logical addr (ram) / filled post-asm (flash)
    xmem_phys: int = 0           # physical address when placement == 'xmem'
    is_const: bool = False
    label: str = ""
    is_param: bool = False

    @property
    def element_size(self) -> int:
        return self.ctype.size if not self.ctype.is_pointer else (
            1 if self.ctype.name == "char" else 2
        )

    @property
    def total_size(self) -> int:
        count = self.array_size if self.array_size else 1
        return count * max(1, self.ctype.size if not self.array_size
                           else self.element_size)


@dataclass
class Compilation:
    """Everything the benchmarks need about one compiled image."""

    assembly: Assembly
    asm_source: str
    options: CompilerOptions
    globals_map: dict[str, Symbol]
    code_size: int
    image_size: int
    statements_instrumented: int


class _FunctionContext:
    def __init__(self, function: Function):
        self.function = function
        self.locals: dict[str, Symbol] = {}
        self.break_labels: list[str] = []
        self.continue_labels: list[str] = []
        self.return_label = f"__ret_{function.name}"


class CodeGenerator:
    def __init__(self, options: CompilerOptions):
        self.options = options
        self.lines: list[str] = []
        self.data_lines: list[str] = []
        self.init_lines: list[str] = []
        self.globals_map: dict[str, Symbol] = {}
        self._ram_cursor = RAM_BASE
        self._xmem_cursor = XMEM_PHYS_BASE
        self._label_counter = 0
        self._context: _FunctionContext | None = None
        self.statements_instrumented = 0
        self.asm_blocks: list[str] = []
        self.top_level_asm: list[str] = []

    # -- small helpers ------------------------------------------------------
    def _new_label(self, stem: str) -> str:
        self._label_counter += 1
        return f"__{stem}_{self._label_counter}"

    def _emit(self, text: str) -> None:
        self.lines.append(text)

    def _alloc_ram(self, size: int, name: str) -> int:
        address = self._ram_cursor
        if address + size > RAM_LIMIT:
            raise CompileError(f"out of static RAM allocating {name!r}")
        self._ram_cursor += size
        return address

    def _alloc_xmem(self, size: int, name: str) -> int:
        # Keep each array within one 4 KB page offset so a single XPC
        # value covers it through the window.
        if (self._xmem_cursor & 0xFFF) + size > 0x1000:
            self._xmem_cursor = (self._xmem_cursor & ~0xFFF) + 0x1000
        address = self._xmem_cursor
        self._xmem_cursor += size
        return address

    def _lookup(self, name: str) -> Symbol:
        if self._context and name in self._context.locals:
            return self._context.locals[name]
        if name in self.globals_map:
            return self.globals_map[name]
        raise CompileError(f"undefined variable {name!r}")

    # -- top level ------------------------------------------------------------
    def _declare_global(self, decl: GlobalDecl) -> None:
        if decl.name in self.globals_map:
            raise CompileError(f"duplicate global {decl.name!r}")
        placement = "ram"
        if decl.is_const and decl.array_size:
            placement = {
                "flash": "flash",
                "root_ram": "ram",
                "xmem": "xmem",
            }[self.options.data_placement]
            # Explicit Dynamic C storage specifiers override the option.
            if decl.storage == "root":
                placement = "ram"
            elif decl.storage == "xmem":
                placement = "xmem"
        symbol = Symbol(
            name=decl.name,
            ctype=decl.ctype,
            array_size=decl.array_size,
            placement=placement,
            is_const=decl.is_const,
            label=f"_g_{decl.name}",
        )
        element = decl.ctype.size
        total = element * (decl.array_size if decl.array_size else 1)
        if placement == "ram":
            symbol.address = self._alloc_ram(total, decl.name)
            self._emit_ram_init(symbol, decl, element)
        elif placement == "flash":
            self._emit_flash_data(symbol, decl, element)
        else:  # xmem
            symbol.xmem_phys = self._alloc_xmem(total, decl.name)
            self._emit_xmem_init(symbol, decl, element, total)
        self.globals_map[decl.name] = symbol

    def _data_bytes(self, decl: GlobalDecl, element: int) -> list[int]:
        if decl.array_size:
            values = decl.initializer or [0] * decl.array_size
            if len(values) != decl.array_size:
                values = list(values) + [0] * (decl.array_size - len(values))
        else:
            values = [decl.initializer or 0]
        out = []
        for value in values:
            value &= 0xFFFF
            out.append(value & 0xFF)
            if element == 2:
                out.append((value >> 8) & 0xFF)
        return out

    def _emit_db(self, label: str, data: list[int]) -> None:
        self.data_lines.append(f"{label}:")
        for i in range(0, len(data), 16):
            chunk = ", ".join(str(b) for b in data[i: i + 16])
            self.data_lines.append(f"        db   {chunk}")

    def _emit_ram_init(self, symbol: Symbol, decl: GlobalDecl,
                       element: int) -> None:
        if decl.initializer is None:
            return
        data = self._data_bytes(decl, element)
        if decl.array_size:
            blob = f"_init_{decl.name}"
            self._emit_db(blob, data)
            self.init_lines += [
                f"        ld   hl, {blob}",
                f"        ld   de, 0x{symbol.address:04X}",
                f"        ld   bc, {len(data)}",
                "        ldir",
            ]
        elif element == 1:
            self.init_lines += [
                f"        ld   a, {data[0]}",
                f"        ld   (0x{symbol.address:04X}), a",
            ]
        else:
            value = data[0] | (data[1] << 8)
            self.init_lines += [
                f"        ld   hl, {value}",
                f"        ld   (0x{symbol.address:04X}), hl",
            ]

    def _emit_flash_data(self, symbol: Symbol, decl: GlobalDecl,
                         element: int) -> None:
        self._emit_db(symbol.label, self._data_bytes(decl, element))

    def _emit_xmem_init(self, symbol: Symbol, decl: GlobalDecl,
                        element: int, total: int) -> None:
        blob = f"_xsrc_{decl.name}"
        self._emit_db(blob, self._data_bytes(decl, element))
        xpc = symbol.xmem_phys >> 12
        window = WINDOW_BASE + (symbol.xmem_phys & 0xFFF)
        self.init_lines += [
            f"        ld   a, 0x{xpc:02X}",
            "        ld   xpc, a",
            f"        ld   hl, {blob}",
            f"        ld   de, 0x{window:04X}",
            f"        ld   bc, {total}",
            "        ldir",
            f"        ld   a, 0x{XPC_DEFAULT:02X}",
            "        ld   xpc, a",
        ]

    # -- functions ---------------------------------------------------------------
    def _declare_function_storage(self, function: Function) -> None:
        """Params and locals get static slots (Dynamic C one-frame model)."""
        for param in function.params:
            name = f"{function.name}.{param.name}"
            symbol = Symbol(
                name=name,
                ctype=param.ctype,
                placement="ram",
                is_param=True,
                label=f"_p_{function.name}_{param.name}",
            )
            symbol.address = self._alloc_ram(max(2, param.ctype.size), name)
            self.globals_map[name] = symbol

    def _compile_function(self, function: Function,
                          known_functions: set[str]) -> None:
        context = _FunctionContext(function)
        self._context = context
        self._known_functions = known_functions
        # Bind params into local scope.
        for param in function.params:
            context.locals[param.name] = self.globals_map[
                f"{function.name}.{param.name}"
            ]
        # Allocate every local in the body (they are static).
        self._allocate_locals(function.body, function)
        body = function.body
        if self.options.unroll:
            body = _unroll_statements(body, self.options.unroll_limit)
        self._emit("")
        self._emit(f"; ---- {function.return_type} {function.name}() ----")
        self._emit(f"{_fn_label(function.name)}:")
        self._compile_statements(body, function)
        self._emit(f"{context.return_label}:")
        self._emit("        ret")
        self._context = None

    def _allocate_locals(self, statements, function: Function) -> None:
        for statement in statements:
            if isinstance(statement, list):
                self._allocate_locals(statement, function)
            elif isinstance(statement, LocalDecl):
                self._declare_local(statement, function)
            elif isinstance(statement, If):
                self._allocate_locals(statement.then_body, function)
                if statement.else_body:
                    self._allocate_locals(statement.else_body, function)
            elif isinstance(statement, While):
                self._allocate_locals(statement.body, function)
            elif isinstance(statement, For):
                self._allocate_locals(statement.body, function)
            elif isinstance(statement, Costate):
                self._allocate_locals(statement.body, function)

    def _declare_local(self, decl: LocalDecl, function: Function) -> None:
        if decl.name in self._context.locals:
            return  # one static slot per name per function
        symbol = Symbol(
            name=f"{function.name}.{decl.name}",
            ctype=decl.ctype,
            array_size=decl.array_size,
            placement="ram",
            label=f"_l_{function.name}_{decl.name}",
        )
        element = decl.ctype.size
        total = element * (decl.array_size if decl.array_size else 1)
        symbol.address = self._alloc_ram(max(total, 1), symbol.name)
        self._context.locals[decl.name] = symbol

    # -- statements -----------------------------------------------------------
    def _compile_statements(self, statements, function: Function) -> None:
        for statement in statements:
            self._compile_statement(statement, function)

    def _trap(self) -> None:
        if self.options.debug and not self._context.function.nodebug:
            self._emit(f"        rst  0x{DEBUG_RST:02X}")
            self.statements_instrumented += 1

    def _compile_statement(self, statement, function: Function) -> None:
        if isinstance(statement, list):
            self._compile_statements(statement, function)
            return
        if isinstance(statement, LocalDecl):
            if statement.initializer is not None:
                self._trap()
                self._compile_expr(statement.initializer)
                self._store_scalar(self._context.locals[statement.name])
            return
        self._trap()
        if isinstance(statement, ExprStmt):
            self._compile_expr(statement.expr)
        elif isinstance(statement, Return):
            if statement.value is not None:
                self._compile_expr(statement.value)
            self._emit(f"        jp   {self._context.return_label}")
        elif isinstance(statement, If):
            self._compile_if(statement, function)
        elif isinstance(statement, While):
            self._compile_while(statement, function)
        elif isinstance(statement, For):
            self._compile_for(statement, function)
        elif isinstance(statement, Break):
            if not self._context.break_labels:
                raise CompileError("break outside loop")
            self._emit(f"        jp   {self._context.break_labels[-1]}")
        elif isinstance(statement, Continue):
            if not self._context.continue_labels:
                raise CompileError("continue outside loop")
            self._emit(f"        jp   {self._context.continue_labels[-1]}")
        elif isinstance(statement, (Costate, Waitfor, Yield, Abort)):
            raise CompileError(
                "costatements are not lowered by this code generator; the "
                "cooperative scheduler lives in repro.dync.runtime.costate "
                "(run dclint on this source instead)",
                getattr(statement, "line", 0), getattr(statement, "col", 0),
            )
        else:
            raise CompileError(f"cannot compile statement {statement!r}")

    def _branch_if_false(self, label: str) -> None:
        self._emit("        ld   a, h")
        self._emit("        or   l")
        self._emit(f"        jp   z, {label}")

    def _compile_if(self, statement: If, function: Function) -> None:
        else_label = self._new_label("else")
        end_label = self._new_label("endif")
        self._compile_expr(statement.condition)
        self._branch_if_false(else_label if statement.else_body else end_label)
        self._compile_statements(statement.then_body, function)
        if statement.else_body:
            self._emit(f"        jp   {end_label}")
            self._emit(f"{else_label}:")
            self._compile_statements(statement.else_body, function)
        self._emit(f"{end_label}:")

    def _compile_while(self, statement: While, function: Function) -> None:
        top = self._new_label("while")
        end = self._new_label("wend")
        self._context.break_labels.append(end)
        self._context.continue_labels.append(top)
        self._emit(f"{top}:")
        self._compile_expr(statement.condition)
        self._branch_if_false(end)
        self._compile_statements(statement.body, function)
        self._emit(f"        jp   {top}")
        self._emit(f"{end}:")
        self._context.break_labels.pop()
        self._context.continue_labels.pop()

    def _compile_for(self, statement: For, function: Function) -> None:
        top = self._new_label("for")
        step_label = self._new_label("fstep")
        end = self._new_label("fend")
        if statement.init is not None:
            self._compile_statement(statement.init, function)
        self._context.break_labels.append(end)
        self._context.continue_labels.append(step_label)
        self._emit(f"{top}:")
        if statement.condition is not None:
            self._compile_expr(statement.condition)
            self._branch_if_false(end)
        self._compile_statements(statement.body, function)
        self._emit(f"{step_label}:")
        if statement.step is not None:
            self._compile_statement(statement.step, function)
        self._emit(f"        jp   {top}")
        self._emit(f"{end}:")
        self._context.break_labels.pop()
        self._context.continue_labels.pop()

    # -- expressions -------------------------------------------------------------
    def _compile_expr(self, expr) -> None:
        """Evaluate ``expr`` into HL."""
        if isinstance(expr, Num):
            self._emit(f"        ld   hl, {expr.value & 0xFFFF}")
        elif isinstance(expr, Var):
            self._load_var(expr)
        elif isinstance(expr, Index):
            self._load_index(expr)
        elif isinstance(expr, Unary):
            self._compile_unary(expr)
        elif isinstance(expr, Binary):
            self._compile_binary(expr)
        elif isinstance(expr, Assign):
            self._compile_assign(expr)
        elif isinstance(expr, Call):
            self._compile_call(expr)
        else:
            raise CompileError(f"cannot compile expression {expr!r}")

    def _load_var(self, expr: Var) -> None:
        symbol = self._lookup(expr.name)
        if symbol.array_size:
            # Array name decays to its address.
            self._emit(f"        ld   hl, {self._base_ref(symbol)}")
            return
        if symbol.ctype.size == 1 and not symbol.ctype.is_pointer:
            self._emit(f"        ld   a, (0x{symbol.address:04X})")
            self._emit("        ld   l, a")
            self._emit("        ld   h, 0")
        else:
            self._emit(f"        ld   hl, (0x{symbol.address:04X})")

    def _base_ref(self, symbol: Symbol) -> str:
        if symbol.placement == "flash":
            return symbol.label
        if symbol.placement == "xmem":
            raise CompileError(
                f"cannot take the address of xmem array {symbol.name!r} "
                "(xmem pointers are not 16-bit; paper section 5.2)"
            )
        return f"0x{symbol.address:04X}"

    def _element_info(self, expr: Index) -> tuple[Symbol, int]:
        symbol = self._lookup(expr.base.name)
        if symbol.array_size:
            element = symbol.ctype.size
        elif symbol.ctype.is_pointer:
            element = 1 if symbol.ctype.name == "char" else 2
        else:
            raise CompileError(f"{expr.base.name!r} is not indexable")
        return symbol, element

    def _compute_element_address(self, expr: Index) -> tuple[Symbol, int]:
        """Leave the element address in HL (non-xmem arrays)."""
        symbol, element = self._element_info(expr)
        self._compile_expr(expr.index)
        if element == 2:
            self._emit("        add  hl, hl")
        if symbol.array_size:
            self._emit(f"        ld   de, {self._base_ref(symbol)}")
        else:
            self._emit(f"        ld   de, (0x{symbol.address:04X})")
        self._emit("        add  hl, de")
        return symbol, element

    def _load_index(self, expr: Index) -> None:
        symbol, element = self._element_info(expr)
        if symbol.placement == "xmem":
            self._load_xmem_index(expr, symbol, element)
            return
        self._compute_element_address(expr)
        if element == 1:
            self._emit("        ld   a, (hl)")
            self._emit("        ld   l, a")
            self._emit("        ld   h, 0")
        else:
            self._emit("        ld   e, (hl)")
            self._emit("        inc  hl")
            self._emit("        ld   d, (hl)")
            self._emit("        ex   de, hl")

    def _load_xmem_index(self, expr: Index, symbol: Symbol,
                         element: int) -> None:
        xpc = symbol.xmem_phys >> 12
        window = WINDOW_BASE + (symbol.xmem_phys & 0xFFF)
        self._compile_expr(expr.index)
        if element == 2:
            self._emit("        add  hl, hl")
        self._emit("        ld   a, xpc")
        self._emit("        ld   b, a")
        self._emit(f"        ld   a, 0x{xpc:02X}")
        self._emit("        ld   xpc, a")
        self._emit(f"        ld   de, 0x{window:04X}")
        self._emit("        add  hl, de")
        if element == 1:
            self._emit("        ld   a, (hl)")
            self._emit("        ld   l, a")
            self._emit("        ld   h, 0")
        else:
            self._emit("        ld   e, (hl)")
            self._emit("        inc  hl")
            self._emit("        ld   d, (hl)")
            self._emit("        ex   de, hl")
        self._emit("        ld   a, b")
        self._emit("        ld   xpc, a")

    def _compile_unary(self, expr: Unary) -> None:
        self._compile_expr(expr.operand)
        if expr.op == "-":
            self._emit("        ex   de, hl")
            self._emit("        ld   hl, 0")
            self._emit("        or   a")
            self._emit("        sbc  hl, de")
        elif expr.op == "~":
            self._emit("        ld   a, h")
            self._emit("        cpl")
            self._emit("        ld   h, a")
            self._emit("        ld   a, l")
            self._emit("        cpl")
            self._emit("        ld   l, a")
        elif expr.op == "!":
            true_label = self._new_label("nz")
            end_label = self._new_label("notend")
            self._emit("        ld   a, h")
            self._emit("        or   l")
            self._emit(f"        jp   nz, {true_label}")
            self._emit("        ld   hl, 1")
            self._emit(f"        jp   {end_label}")
            self._emit(f"{true_label}:")
            self._emit("        ld   hl, 0")
            self._emit(f"{end_label}:")
        else:
            raise CompileError(f"bad unary {expr.op!r}")

    _HELPER_OPS = {
        "*": "__mul16", "<<": "__shl16", ">>": "__shr16",
        "==": "__eq16", "!=": "__ne16", "<": "__lts16", ">": "__gts16",
        "<=": "__les16", ">=": "__ges16",
    }

    def _compile_binary(self, expr: Binary) -> None:
        if expr.op in ("&&", "||"):
            self._compile_logical(expr)
            return
        if expr.op in ("/", "%"):
            self._compile_divmod(expr)
            return
        self._compile_expr(expr.left)
        self._emit("        push hl")
        self._compile_expr(expr.right)
        self._emit("        pop  de")
        op = expr.op
        if op == "+":
            self._emit("        add  hl, de")
        elif op == "-":
            self._emit("        ex   de, hl")
            self._emit("        or   a")
            self._emit("        sbc  hl, de")
        elif op in ("&", "|", "^"):
            mnemonic = {"&": "and", "|": "or", "^": "xor"}[op]
            self._emit("        ld   a, e")
            self._emit(f"        {mnemonic}  l")
            self._emit("        ld   l, a")
            self._emit("        ld   a, d")
            self._emit(f"        {mnemonic}  h")
            self._emit("        ld   h, a")
        elif op in self._HELPER_OPS:
            self._emit(f"        call {self._HELPER_OPS[op]}")
        else:
            raise CompileError(f"bad binary operator {op!r}")

    def _compile_divmod(self, expr: Binary) -> None:
        # Division only by constant powers of two (the firmware we
        # compile never needs a general divide; Dynamic C had one, but a
        # naive shift is what its codegen produced for these cases too).
        if not isinstance(expr.right, Num) or expr.right.value <= 0:
            raise CompileError("/ and % need a constant power-of-two divisor")
        value = expr.right.value
        if value & (value - 1):
            raise CompileError(f"divisor {value} is not a power of two")
        shift = value.bit_length() - 1
        if expr.op == "/":
            rewritten = Binary(">>", expr.left, Num(shift), expr.line)
        else:
            rewritten = Binary("&", expr.left, Num(value - 1), expr.line)
        self._compile_expr(rewritten)

    def _compile_logical(self, expr: Binary) -> None:
        false_label = self._new_label("lfalse")
        true_label = self._new_label("ltrue")
        end_label = self._new_label("lend")
        if expr.op == "&&":
            self._compile_expr(expr.left)
            self._branch_if_false(false_label)
            self._compile_expr(expr.right)
            self._branch_if_false(false_label)
            self._emit("        ld   hl, 1")
            self._emit(f"        jp   {end_label}")
            self._emit(f"{false_label}:")
            self._emit("        ld   hl, 0")
            self._emit(f"{end_label}:")
        else:
            self._compile_expr(expr.left)
            self._emit("        ld   a, h")
            self._emit("        or   l")
            self._emit(f"        jp   nz, {true_label}")
            self._compile_expr(expr.right)
            self._emit("        ld   a, h")
            self._emit("        or   l")
            self._emit(f"        jp   nz, {true_label}")
            self._emit("        ld   hl, 0")
            self._emit(f"        jp   {end_label}")
            self._emit(f"{true_label}:")
            self._emit("        ld   hl, 1")
            self._emit(f"{end_label}:")

    def _store_scalar(self, symbol: Symbol) -> None:
        """Store HL into a scalar symbol (value stays in HL)."""
        if symbol.ctype.size == 1 and not symbol.ctype.is_pointer:
            self._emit("        ld   a, l")
            self._emit(f"        ld   (0x{symbol.address:04X}), a")
        else:
            self._emit(f"        ld   (0x{symbol.address:04X}), hl")

    def _compile_assign(self, expr: Assign) -> None:
        if expr.op != "=":
            expr = Assign(
                expr.target,
                Binary(expr.op[:-1], copy.deepcopy(expr.target), expr.value,
                       expr.line),
                "=",
                expr.line,
            )
        if isinstance(expr.target, Var):
            symbol = self._lookup(expr.target.name)
            if symbol.array_size:
                raise CompileError(f"cannot assign to array {symbol.name!r}")
            if symbol.is_const:
                raise CompileError(f"cannot assign to const {symbol.name!r}")
            self._compile_expr(expr.value)
            self._store_scalar(symbol)
            return
        if isinstance(expr.target, Index):
            symbol, element = self._element_info(expr.target)
            if symbol.is_const or symbol.placement in ("flash", "xmem"):
                raise CompileError(
                    f"cannot write to const/{symbol.placement} array "
                    f"{symbol.name!r}"
                )
            self._compile_expr(expr.value)
            self._emit("        push hl")
            self._compute_element_address(expr.target)
            self._emit("        pop  de")
            if element == 1:
                self._emit("        ld   (hl), e")
            else:
                self._emit("        ld   (hl), e")
                self._emit("        inc  hl")
                self._emit("        ld   (hl), d")
            self._emit("        ex   de, hl")  # value is the expression result
            return
        raise CompileError("bad assignment target")

    def _compile_call(self, expr: Call) -> None:
        if expr.name == "__asm_block":
            self._emit_asm_block(expr)
            return
        if expr.name not in self._known_functions:
            raise CompileError(f"call to unknown function {expr.name!r}")
        params = self._function_params.get(expr.name, [])
        if len(expr.args) != len(params):
            raise CompileError(
                f"{expr.name}() takes {len(params)} args, got {len(expr.args)}"
            )
        for arg, param_symbol in zip(expr.args, params):
            self._compile_expr(arg)
            self._store_scalar(param_symbol)
        self._emit(f"        call {_fn_label(expr.name)}")

    def _emit_asm_block(self, expr: Call) -> None:
        """Splice a ``#asm`` block inline (paper, 4.1).

        Raw lines pass straight to the assembler; lines starting with
        ``c `` are embedded C, compiled as expression statements.
        """
        from repro.dync.compiler.parser import Parser

        if len(expr.args) != 1 or not isinstance(expr.args[0], Num):
            raise CompileError("malformed __asm_block placeholder")
        index = expr.args[0].value
        if not 0 <= index < len(self.asm_blocks):
            raise CompileError(f"no such asm block {index}")
        self._emit(f"; ---- inline #asm block {index} ----")
        for raw_line in self.asm_blocks[index].splitlines():
            stripped = raw_line.strip()
            if stripped.startswith("c ") or stripped.startswith("c\t"):
                inline = stripped[2:].strip().rstrip(";")
                if inline:
                    parser = Parser(inline + ";")
                    self._compile_expr(parser.parse_expression())
            elif stripped:
                self._emit("        " + stripped)
        self._emit(f"; ---- end inline #asm block {index} ----")

    # -- final assembly ------------------------------------------------------------
    def _assemble_source(self) -> str:
        header = [
            "; generated by the repro Dynamic C subset compiler",
            f"; options: {self.options.describe()}",
            "        org  0",
            "        jp   __start",
            f"        ds   0x{DEBUG_RST:02X} - 3",
            "__debug_trap:",
            "        ret",
            "__start:",
            f"        ld   sp, 0x{STACK_TOP:04X}",
            "        call __init",
            "        halt",
            "__init:",
            *self.init_lines,
            "        ret",
            RUNTIME_ASM,
        ]
        top_level = []
        for block_index, block in enumerate(self.top_level_asm):
            top_level.append(f"; ---- top-level #asm block {block_index} ----")
            top_level += [
                "        " + line.strip()
                for line in block.splitlines() if line.strip()
            ]
        footer = ["", *top_level, "__code_end:", *self.data_lines,
                  "__image_end:"]
        return "\n".join(header + self.lines + footer) + "\n"


def _fn_label(name: str) -> str:
    return f"_fn_{name}"


def _unroll_statements(statements: list, limit: int) -> list:
    out = []
    for statement in statements:
        if isinstance(statement, For):
            unrolled = _try_unroll(statement, limit)
            if unrolled is not None:
                out.extend(unrolled)
                continue
            statement = For(
                statement.init,
                statement.condition,
                statement.step,
                _unroll_statements(statement.body, limit),
                statement.line,
            )
        elif isinstance(statement, While):
            statement = While(
                statement.condition,
                _unroll_statements(statement.body, limit),
                statement.line,
            )
        elif isinstance(statement, If):
            statement = If(
                statement.condition,
                _unroll_statements(statement.then_body, limit),
                _unroll_statements(statement.else_body, limit)
                if statement.else_body else None,
                statement.line,
            )
        out.append(statement)
    return out


def _try_unroll(loop: For, limit: int) -> list | None:
    """Unroll ``for (i = C0; i < C1; i++)`` with literal bounds."""
    if not (isinstance(loop.init, ExprStmt)
            and isinstance(loop.init.expr, Assign)
            and isinstance(loop.init.expr.target, Var)
            and loop.init.expr.op == "="
            and isinstance(loop.init.expr.value, Num)):
        return None
    variable = loop.init.expr.target.name
    start = loop.init.expr.value.value
    condition = loop.condition
    if not (isinstance(condition, Binary) and condition.op == "<"
            and isinstance(condition.left, Var)
            and condition.left.name == variable
            and isinstance(condition.right, Num)):
        return None
    stop = condition.right.value
    step = loop.step
    if not (isinstance(step, ExprStmt) and isinstance(step.expr, Assign)
            and isinstance(step.expr.target, Var)
            and step.expr.target.name == variable):
        return None
    increment = step.expr.value
    if not (isinstance(increment, Binary) and increment.op == "+"
            and isinstance(increment.left, Var)
            and increment.left.name == variable
            and isinstance(increment.right, Num)
            and increment.right.value == 1):
        return None
    trip_count = stop - start
    if not 0 < trip_count <= limit:
        return None
    if _contains_loop_control(loop.body):
        return None
    out = []
    for k in range(start, stop):
        out.append(ExprStmt(Assign(Var(variable), Num(k))))
        out.extend(copy.deepcopy(loop.body))
    out.append(ExprStmt(Assign(Var(variable), Num(stop))))
    return out


def _contains_loop_control(statements) -> bool:
    for statement in statements:
        if isinstance(statement, (Break, Continue)):
            return True
        if isinstance(statement, list) and _contains_loop_control(statement):
            return True
        if isinstance(statement, If):
            if _contains_loop_control(statement.then_body):
                return True
            if statement.else_body and _contains_loop_control(statement.else_body):
                return True
        # Nested loops own their break/continue; safe to skip.
    return False


def compile_source(source: str,
                   options: CompilerOptions | None = None) -> Compilation:
    """Compile Dynamic C subset source into an executable image.

    ``#use "lib"`` directives are resolved first (and ``#include`` is
    rejected, as on the real compiler -- see
    :mod:`repro.dync.compiler.libraries`).
    """
    from repro.dync.compiler.libraries import expand_uses, extract_asm_blocks

    options = options or CompilerOptions()
    source = expand_uses(source)
    source, asm_blocks = extract_asm_blocks(source)
    source, top_level_blocks = _hoist_top_level_asm(source)
    program = parse(source)
    generator = CodeGenerator(options)
    generator.asm_blocks = asm_blocks
    generator.top_level_asm = [asm_blocks[i] for i in top_level_blocks]
    # Pre-scan function parameter symbols for call-site stores.
    generator._function_params = {}
    for function in program.functions:
        generator._declare_function_storage(function)
        generator._function_params[function.name] = [
            generator.globals_map[f"{function.name}.{param.name}"]
            for param in function.params
        ]
    # Parameter storage is declared once, here; the globals and the
    # function bodies follow.
    asm_source = _compile_with_predeclared(generator, program)
    if options.optimize:
        asm_source = peephole_optimize(asm_source)
    assembly = assemble(asm_source)
    # Resolve flash-placed symbol addresses now that layout is known.
    for symbol in generator.globals_map.values():
        if symbol.placement == "flash":
            symbol.address = assembly.symbol(symbol.label.lower())
    return Compilation(
        assembly=assembly,
        asm_source=asm_source,
        options=options,
        globals_map=generator.globals_map,
        code_size=assembly.symbol("__code_end"),
        image_size=len(assembly.code),
        statements_instrumented=generator.statements_instrumented,
    )


def _hoist_top_level_asm(source: str) -> tuple[str, list[int]]:
    """Remove ``__asm_block(N);`` placeholders that sit outside any
    function body; their blocks are emitted after the compiled code."""
    import re as _re

    out_lines = []
    hoisted: list[int] = []
    depth = 0
    placeholder = _re.compile(r"^\s*__asm_block\((\d+)\);\s*$")
    for line in source.splitlines():
        match = placeholder.match(line)
        if match and depth == 0:
            hoisted.append(int(match.group(1)))
            continue
        depth += line.count("{") - line.count("}")
        out_lines.append(line)
    return "\n".join(out_lines), hoisted


def _compile_with_predeclared(generator: CodeGenerator,
                              program: Program) -> str:
    for decl in program.globals:
        generator._declare_global(decl)
    known = {fn.name for fn in program.functions}
    for function in program.functions:
        generator._known_functions = known
        generator._compile_function(function, known)
    return generator._assemble_source()
