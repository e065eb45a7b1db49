"""Recursive-descent parser for the Dynamic C subset."""

from __future__ import annotations

from repro.dync.compiler.ast_nodes import (
    Abort,
    Assign,
    Binary,
    Break,
    Call,
    CHAR,
    Continue,
    Costate,
    CType,
    ExprStmt,
    For,
    Function,
    GlobalDecl,
    If,
    Index,
    INT,
    LocalDecl,
    Num,
    Param,
    Program,
    Return,
    Unary,
    Var,
    VOID,
    Waitfor,
    While,
    Yield,
)
from repro.dync.compiler.lexer import Token, tokenize
from repro.diagnostics import Diagnostic, Severity


class ParseError(ValueError):
    def __init__(self, message: str, token: Token):
        super().__init__(f"line {token.line}: {message} (at {token.value!r})")
        self.token = token
        self.diagnostic = Diagnostic(
            "PAR001", Severity.ERROR, f"{message} (at {token.value!r})",
            line=token.line, col=token.col,
        )


#: Binary operator precedence (higher binds tighter).
_PRECEDENCE = {
    "||": 1,
    "&&": 2,
    "|": 3,
    "^": 4,
    "&": 5,
    "==": 6, "!=": 6,
    "<": 7, ">": 7, "<=": 7, ">=": 7,
    "<<": 8, ">>": 8,
    "+": 9, "-": 9,
    "*": 10, "/": 10, "%": 10,
}

_ASSIGN_OPS = {"=", "+=", "-=", "*=", "&=", "|=", "^=", "<<=", ">>="}


class Parser:
    def __init__(self, source: str):
        self.tokens = tokenize(source)
        self.pos = 0

    # -- token helpers ----------------------------------------------------
    def peek(self, offset: int = 0) -> Token:
        return self.tokens[min(self.pos + offset, len(self.tokens) - 1)]

    def advance(self) -> Token:
        token = self.peek()
        self.pos += 1
        return token

    def expect_op(self, op: str) -> Token:
        token = self.advance()
        if token.kind != "op" or token.value != op:
            raise ParseError(f"expected {op!r}", token)
        return token

    def accept_op(self, op: str) -> bool:
        token = self.peek()
        if token.kind == "op" and token.value == op:
            self.pos += 1
            return True
        return False

    def accept_keyword(self, word: str) -> bool:
        token = self.peek()
        if token.kind == "keyword" and token.value == word:
            self.pos += 1
            return True
        return False

    def expect_ident(self) -> str:
        token = self.advance()
        if token.kind != "ident":
            raise ParseError("expected identifier", token)
        return token.value

    # -- types -------------------------------------------------------------
    def _peek_type(self, offset: int = 0) -> bool:
        token = self.peek(offset)
        return token.kind == "keyword" and token.value in (
            "char", "int", "unsigned", "void", "const", "auto", "static",
        )

    def parse_type(self) -> CType:
        token = self.advance()
        if token.kind != "keyword":
            raise ParseError("expected type", token)
        name = token.value
        if name == "unsigned":
            # "unsigned", "unsigned int", "unsigned char"
            nxt = self.peek()
            if nxt.kind == "keyword" and nxt.value in ("int", "char"):
                self.advance()
                name = nxt.value
            else:
                name = "int"
        if name not in ("char", "int", "void"):
            raise ParseError(f"bad type {name!r}", token)
        base = {"char": CHAR, "int": INT, "void": VOID}[name]
        if self.accept_op("*"):
            return CType(base.name, is_pointer=True)
        return base

    # -- top level ------------------------------------------------------------
    def parse_program(self) -> Program:
        program = Program()
        while self.peek().kind != "eof":
            self._parse_top_level(program)
        return program

    def _parse_top_level(self, program: Program) -> None:
        first = self.peek()
        if first.kind == "ident" and first.value == "__asm_block":
            # A file-scope #asm block's placeholder (see
            # libraries.extract_asm_blocks).
            self.advance()
            self.expect_op("(")
            number = self.advance()
            if number.kind != "num":
                raise ParseError("expected asm block number", number)
            self.expect_op(")")
            self.expect_op(";")
            program.asm_blocks.append(number.value)
            return
        storage = ""
        nodebug = False
        is_const = False
        while True:
            token = self.peek()
            if token.kind == "keyword" and token.value in ("root", "xmem",
                                                           "shared",
                                                           "protected"):
                storage = token.value
                self.advance()
            elif token.kind == "keyword" and token.value == "nodebug":
                nodebug = True
                self.advance()
            elif token.kind == "keyword" and token.value == "const":
                is_const = True
                self.advance()
            elif token.kind == "keyword" and token.value == "static":
                self.advance()  # file-scope static: accepted, no effect
            else:
                break
        ctype = self.parse_type()
        name = self.expect_ident()
        if self.peek().kind == "op" and self.peek().value == "(":
            program.functions.append(
                self._parse_function(ctype, name, storage, nodebug, first)
            )
        else:
            program.globals.extend(
                self._parse_global_tail(ctype, name, is_const, storage, first)
            )

    def _parse_global_tail(self, ctype: CType, first_name: str,
                           is_const: bool, storage: str,
                           first: Token) -> list[GlobalDecl]:
        decls = []
        name = first_name
        while True:
            array_size = 0
            initializer = None
            if self.accept_op("["):
                size_token = self.advance()
                if size_token.kind != "num":
                    raise ParseError("array size must be a constant",
                                     size_token)
                array_size = size_token.value
                self.expect_op("]")
            if self.accept_op("="):
                initializer = self._parse_initializer(array_size)
            decls.append(GlobalDecl(name, ctype, array_size, initializer,
                                    is_const, storage,
                                    first.line, first.col))
            if self.accept_op(","):
                name = self.expect_ident()
                continue
            self.expect_op(";")
            return decls

    def _parse_initializer(self, array_size: int):
        if self.accept_op("{"):
            values = []
            while not self.accept_op("}"):
                expr = self.parse_expression()
                values.append(self._const_value(expr))
                if not self.accept_op(","):
                    self.expect_op("}")
                    break
            if array_size and len(values) < array_size:
                values += [0] * (array_size - len(values))
            return values
        expr = self.parse_expression()
        return self._const_value(expr)

    def _const_value(self, expr) -> int:
        value = _fold(expr)
        if not isinstance(value, Num):
            raise ParseError("initializer must be constant",
                             self.peek())
        return value.value

    def _parse_function(self, return_type: CType, name: str, storage: str,
                        nodebug: bool, first: Token) -> Function:
        self.expect_op("(")
        params: list[Param] = []
        if not self.accept_op(")"):
            if self.peek().kind == "keyword" and self.peek().value == "void" \
                    and self.peek(1).kind == "op" and self.peek(1).value == ")":
                self.advance()
                self.expect_op(")")
            else:
                while True:
                    ptoken = self.peek()
                    ptype = self.parse_type()
                    pname = self.expect_ident()
                    params.append(Param(pname, ptype, ptoken.line,
                                        ptoken.col))
                    if not self.accept_op(","):
                        break
                self.expect_op(")")
        body = self.parse_block()
        return Function(name, return_type, params, body, storage, nodebug,
                        first.line, first.col)

    # -- statements ---------------------------------------------------------------
    def parse_block(self) -> list:
        self.expect_op("{")
        statements = []
        while not self.accept_op("}"):
            statements.append(self.parse_statement())
        return statements

    def parse_statement(self):
        token = self.peek()
        if token.kind == "op" and token.value == "{":
            # Nested block: flatten into a statement list via If(1) trick
            # is ugly; represent directly as a list wrapper.
            return self.parse_block()
        if self._peek_type():
            return self._parse_local_decl()
        if token.kind == "keyword":
            if token.value == "if":
                return self._parse_if()
            if token.value == "while":
                return self._parse_while()
            if token.value == "for":
                return self._parse_for()
            if token.value == "return":
                self.advance()
                value = None
                if not (self.peek().kind == "op" and self.peek().value == ";"):
                    value = self.parse_expression()
                self.expect_op(";")
                return Return(value, token.line, token.col)
            if token.value == "break":
                self.advance()
                self.expect_op(";")
                return Break(token.line, token.col)
            if token.value == "continue":
                self.advance()
                self.expect_op(";")
                return Continue(token.line, token.col)
            if token.value == "costate":
                return self._parse_costate()
            if token.value == "waitfor":
                self.advance()
                self.expect_op("(")
                condition = self.parse_expression()
                self.expect_op(")")
                self.expect_op(";")
                return Waitfor(condition, token.line, token.col)
            if token.value == "yield":
                self.advance()
                self.expect_op(";")
                return Yield(token.line, token.col)
            if token.value == "abort":
                self.advance()
                self.expect_op(";")
                return Abort(token.line, token.col)
        expr = self.parse_expression()
        self.expect_op(";")
        return ExprStmt(expr, token.line, token.col)

    def _parse_costate(self):
        token = self.advance()  # 'costate'
        name = ""
        mode = ""
        if self.peek().kind == "ident":
            name = self.advance().value
        if self.peek().kind == "keyword" \
                and self.peek().value in ("always_on", "init_on"):
            mode = self.advance().value
        body = self.parse_block()
        return Costate(body, name, mode, token.line, token.col)

    def _parse_local_decl(self):
        token = self.peek()
        is_auto = False
        while True:
            if self.accept_keyword("auto"):
                is_auto = True
            elif self.accept_keyword("static"):
                is_auto = False
            elif self.accept_keyword("const"):
                pass
            else:
                break
        ctype = self.parse_type()
        decls = []
        while True:
            name = self.expect_ident()
            array_size = 0
            initializer = None
            if self.accept_op("["):
                size_token = self.advance()
                if size_token.kind != "num":
                    raise ParseError("array size must be constant", size_token)
                array_size = size_token.value
                self.expect_op("]")
            if self.accept_op("="):
                initializer = self.parse_expression()
            decls.append(
                LocalDecl(name, ctype, array_size, initializer, is_auto,
                          token.line, token.col)
            )
            if not self.accept_op(","):
                break
        self.expect_op(";")
        return decls if len(decls) > 1 else decls[0]

    def _parse_if(self) -> If:
        token = self.advance()
        self.expect_op("(")
        condition = self.parse_expression()
        self.expect_op(")")
        then_body = self._statement_as_list()
        else_body = None
        if self.accept_keyword("else"):
            else_body = self._statement_as_list()
        return If(condition, then_body, else_body, token.line, token.col)

    def _parse_while(self) -> While:
        token = self.advance()
        self.expect_op("(")
        condition = self.parse_expression()
        self.expect_op(")")
        return While(condition, self._statement_as_list(), token.line,
                     token.col)

    def _parse_for(self) -> For:
        token = self.advance()
        self.expect_op("(")
        init = None
        if not self.accept_op(";"):
            init_token = self.peek()
            init = ExprStmt(self.parse_expression(), init_token.line,
                            init_token.col)
            self.expect_op(";")
        condition = None
        if not self.accept_op(";"):
            condition = self.parse_expression()
            self.expect_op(";")
        step = None
        if not (self.peek().kind == "op" and self.peek().value == ")"):
            step_token = self.peek()
            step = ExprStmt(self.parse_expression(), step_token.line,
                            step_token.col)
        self.expect_op(")")
        return For(init, condition, step, self._statement_as_list(),
                   token.line, token.col)

    def _statement_as_list(self) -> list:
        statement = self.parse_statement()
        if isinstance(statement, list):
            return statement
        return [statement]

    # -- expressions -----------------------------------------------------------
    def parse_expression(self):
        return self._parse_assignment()

    def _parse_assignment(self):
        left = self._parse_binary(1)
        token = self.peek()
        if token.kind == "op" and token.value in _ASSIGN_OPS:
            op = token.value
            self.advance()
            value = self._parse_assignment()
            if not isinstance(left, (Var, Index)):
                raise ParseError("assignment target must be a variable or "
                                 "array element", token)
            return Assign(left, value, op, token.line, token.col)
        return left

    def _parse_binary(self, min_precedence: int):
        left = self._parse_unary()
        while True:
            token = self.peek()
            if token.kind != "op":
                return left
            precedence = _PRECEDENCE.get(token.value, 0)
            if precedence < min_precedence:
                return left
            op = token.value
            self.advance()
            right = self._parse_binary(precedence + 1)
            left = _fold(Binary(op, left, right, token.line, token.col))

    def _parse_unary(self):
        token = self.peek()
        if token.kind == "op" and token.value in ("-", "~", "!"):
            self.advance()
            operand = self._parse_unary()
            return _fold(Unary(token.value, operand, token.line,
                               token.col))
        if token.kind == "op" and token.value == "+":
            self.advance()
            return self._parse_unary()
        if token.kind == "op" and token.value == "++":
            self.advance()
            target = self._parse_postfix()
            return Assign(target, Binary("+", target, Num(1)), "=",
                          token.line, token.col)
        if token.kind == "op" and token.value == "--":
            self.advance()
            target = self._parse_postfix()
            return Assign(target, Binary("-", target, Num(1)), "=",
                          token.line, token.col)
        return self._parse_postfix()

    def _parse_postfix(self):
        expr = self._parse_primary()
        while True:
            token = self.peek()
            if token.kind == "op" and token.value == "[":
                self.advance()
                index = self.parse_expression()
                self.expect_op("]")
                if not isinstance(expr, Var):
                    raise ParseError("can only index named arrays", token)
                expr = Index(expr, index, token.line, token.col)
            elif token.kind == "op" and token.value in ("++", "--"):
                # Postfix inc/dec in expression statements behaves like
                # prefix for this subset (value unused); reject elsewhere
                # is overkill for the firmware we compile.
                self.advance()
                op = "+" if token.value == "++" else "-"
                expr = Assign(expr, Binary(op, expr, Num(1)), "=",
                              token.line, token.col)
            else:
                return expr

    def _parse_primary(self):
        token = self.advance()
        if token.kind == "num":
            return Num(token.value, token.line, token.col)
        if token.kind == "ident":
            if self.peek().kind == "op" and self.peek().value == "(":
                self.advance()
                args = []
                if not self.accept_op(")"):
                    while True:
                        args.append(self.parse_expression())
                        if not self.accept_op(","):
                            break
                    self.expect_op(")")
                return Call(token.value, args, token.line, token.col)
            return Var(token.value, token.line, token.col)
        if token.kind == "op" and token.value == "(":
            # Either a cast "(char) expr" (ignored: all math is 16-bit,
            # stores truncate) or a parenthesized expression.
            if self.peek().kind == "keyword" and self.peek().value in (
                    "char", "int", "unsigned"):
                self.parse_type()
                self.expect_op(")")
                return self._parse_unary()
            expr = self.parse_expression()
            self.expect_op(")")
            return expr
        raise ParseError("expected expression", token)


def _signed16(value: int) -> int:
    value &= 0xFFFF
    return value - 0x10000 if value & 0x8000 else value


def _fold(expr):
    """Constant-fold Binary/Unary over Num operands.

    Semantics must match the generated code exactly: 16-bit wrapping
    arithmetic, *signed* comparisons (the runtime helpers are signed),
    and logical right shift.
    """
    if isinstance(expr, Binary) and isinstance(expr.left, Num) \
            and isinstance(expr.right, Num):
        a, b = expr.left.value, expr.right.value
        sa, sb = _signed16(a), _signed16(b)
        op = expr.op
        try:
            value = {
                "+": a + b, "-": a - b, "*": a * b,
                "&": a & b, "|": a | b, "^": a ^ b,
                "<<": a << (b & 15), ">>": (a & 0xFFFF) >> (b & 15),
                "==": int((a & 0xFFFF) == (b & 0xFFFF)),
                "!=": int((a & 0xFFFF) != (b & 0xFFFF)),
                "<": int(sa < sb), ">": int(sa > sb),
                "<=": int(sa <= sb), ">=": int(sa >= sb),
                "&&": int(bool(a) and bool(b)),
                "||": int(bool(a) or bool(b)),
                "/": a // b if b else 0,
                "%": a % b if b else 0,
            }[op]
        except KeyError:
            return expr
        return Num(value & 0xFFFF, expr.line, expr.col)
    if isinstance(expr, Unary) and isinstance(expr.operand, Num):
        a = expr.operand.value
        value = {"-": -a, "~": ~a, "!": int(not a)}[expr.op]
        return Num(value & 0xFFFF, expr.line, expr.col)
    return expr


def parse(source: str) -> Program:
    """Parse Dynamic C subset source into a :class:`Program`."""
    return Parser(source).parse_program()
