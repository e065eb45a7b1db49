"""Two-pass assembler for the Rabbit/Z80 core.

Syntax is classic Zilog:

    ; comment
    label:  ld   hl, table + 2
            ld   a, (hl)
            djnz loop
            db   1, 2, 'x', "str"
            dw   0x1234
            ds   16
    CONST   equ  0x80
            org  0x0100

Supported: the full main/CB/ED/DD/FD instruction set the CPU core
executes, plus ``LD XPC, A`` / ``LD A, XPC`` (Rabbit bank window).
Expressions allow ``+ - * / % << >> & | ^ ~ ( )``, decimal/hex
(``0x..`` or ``$..``)/binary (``%...``)/char literals, ``$`` for the
current location counter, and forward label references (resolved in
pass 2).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field


class AsmError(ValueError):
    """Assembly failure, carrying the line number."""

    def __init__(self, message: str, line_no: int = 0, line: str = ""):
        prefix = f"line {line_no}: " if line_no else ""
        suffix = f"  [{line.strip()}]" if line else ""
        super().__init__(prefix + message + suffix)
        self.line_no = line_no


REG8 = {"b": 0, "c": 1, "d": 2, "e": 3, "h": 4, "l": 5, "a": 7}
REG16_SP = {"bc": 0, "de": 1, "hl": 2, "sp": 3}
REG16_AF = {"bc": 0, "de": 1, "hl": 2, "af": 3}
CONDITIONS = {"nz": 0, "z": 1, "nc": 2, "c": 3, "po": 4, "pe": 5, "p": 6, "m": 7}
ALU_OPS = {"add": 0, "adc": 1, "sub": 2, "sbc": 3, "and": 4, "xor": 5, "or": 6, "cp": 7}
ROT_OPS = {"rlc": 0, "rrc": 1, "rl": 2, "rr": 3, "sla": 4, "sra": 5, "sll": 6, "srl": 7}
BLOCK_OPS = {
    "ldi": (0xED, 0xA0), "ldd": (0xED, 0xA8), "ldir": (0xED, 0xB0),
    "lddr": (0xED, 0xB8), "cpi": (0xED, 0xA1), "cpd": (0xED, 0xA9),
    "cpir": (0xED, 0xB1), "cpdr": (0xED, 0xB9),
}
SIMPLE_OPS = {
    "nop": (0x00,), "halt": (0x76,), "di": (0xF3,), "ei": (0xFB,),
    "exx": (0xD9,), "daa": (0x27,), "cpl": (0x2F,), "scf": (0x37,),
    "ccf": (0x3F,), "rlca": (0x07,), "rrca": (0x0F,), "rla": (0x17,),
    "rra": (0x1F,), "ret": (0xC9,), "neg": (0xED, 0x44),
    "reti": (0xED, 0x4D), "retn": (0xED, 0x45),
    "rld": (0xED, 0x6F),
    # RRD (Z80: ED 67) is deliberately absent: this core reassigns ED 67
    # to the Rabbit extension `LD XPC, A`, so RRD cannot be encoded.
}


@dataclass
class _Fixup:
    """A pass-2 patch: where to write which expression, how wide."""

    offset: int
    expression: str
    width: int  # 1, 2, or -1 (relative byte)
    line_no: int
    line: str
    relative_base: int = 0


@dataclass
class Assembly:
    """The result: code bytes, symbol table, per-address line map."""

    code: bytes
    origin: int
    symbols: dict[str, int]
    listing: list[tuple[int, str]] = field(default_factory=list)

    @property
    def size(self) -> int:
        return len(self.code)

    def symbol(self, name: str) -> int:
        if name not in self.symbols:
            raise AsmError(f"no such symbol {name!r}")
        return self.symbols[name]


class Assembler:
    """Stateful two-pass assembler; use :func:`assemble` for one-shots."""

    def __init__(self, origin: int = 0):
        self.origin = origin
        self.symbols: dict[str, int] = {}
        self._code = bytearray()
        self._pc = origin
        self._fixups: list[_Fixup] = []
        self._listing: list[tuple[int, str]] = []

    # -- expression evaluation ----------------------------------------------
    _TOKEN_RE = re.compile(
        r"\s*(?:(0x[0-9a-fA-F]+|\$[0-9a-fA-F]*|%[01]+|\d+|'(?:\\.|[^'])'"
        r"|[A-Za-z_.][A-Za-z0-9_.]*|<<|>>|[()+\-*/%&|^~])|(\S))"
    )

    def _tokenize(self, text: str) -> list[str]:
        tokens = []
        pos = 0
        while pos < len(text):
            match = self._TOKEN_RE.match(text, pos)
            if not match:
                break
            if match.group(2):
                raise AsmError(f"bad character {match.group(2)!r} in expression")
            tokens.append(match.group(1))
            pos = match.end()
        return tokens

    def eval_expr(self, text: str, line_no: int = 0, line: str = "",
                  allow_undefined: bool = False) -> int | None:
        """Evaluate an expression; None if undefined symbols are allowed
        and encountered."""
        tokens = self._tokenize(text)
        if not tokens:
            raise AsmError("empty expression", line_no, line)
        self._undefined_seen = False
        value, rest = self._parse_or(tokens, line_no, line, allow_undefined)
        if rest:
            raise AsmError(f"trailing tokens {rest!r} in expression", line_no, line)
        if self._undefined_seen:
            return None
        return value & 0xFFFFFF

    def _parse_or(self, tokens, line_no, line, allow_undefined):
        value, tokens = self._parse_xor(tokens, line_no, line, allow_undefined)
        while tokens and tokens[0] == "|":
            rhs, tokens = self._parse_xor(tokens[1:], line_no, line, allow_undefined)
            value |= rhs
        return value, tokens

    def _parse_xor(self, tokens, line_no, line, allow_undefined):
        value, tokens = self._parse_and(tokens, line_no, line, allow_undefined)
        while tokens and tokens[0] == "^":
            rhs, tokens = self._parse_and(tokens[1:], line_no, line, allow_undefined)
            value ^= rhs
        return value, tokens

    def _parse_and(self, tokens, line_no, line, allow_undefined):
        value, tokens = self._parse_shift(tokens, line_no, line, allow_undefined)
        while tokens and tokens[0] == "&":
            rhs, tokens = self._parse_shift(tokens[1:], line_no, line, allow_undefined)
            value &= rhs
        return value, tokens

    def _parse_shift(self, tokens, line_no, line, allow_undefined):
        value, tokens = self._parse_add(tokens, line_no, line, allow_undefined)
        while tokens and tokens[0] in ("<<", ">>"):
            op = tokens[0]
            rhs, tokens = self._parse_add(tokens[1:], line_no, line, allow_undefined)
            value = (value << rhs) if op == "<<" else (value >> rhs)
        return value, tokens

    def _parse_add(self, tokens, line_no, line, allow_undefined):
        value, tokens = self._parse_mul(tokens, line_no, line, allow_undefined)
        while tokens and tokens[0] in ("+", "-"):
            op = tokens[0]
            rhs, tokens = self._parse_mul(tokens[1:], line_no, line, allow_undefined)
            value = value + rhs if op == "+" else value - rhs
        return value, tokens

    def _parse_mul(self, tokens, line_no, line, allow_undefined):
        value, tokens = self._parse_unary(tokens, line_no, line, allow_undefined)
        while tokens and tokens[0] in ("*", "/", "%"):
            op = tokens[0]
            rhs, tokens = self._parse_unary(tokens[1:], line_no, line, allow_undefined)
            if op == "*":
                value *= rhs
            elif op == "/":
                value //= rhs if rhs else 1
            else:
                value %= rhs if rhs else 1
        return value, tokens

    def _parse_unary(self, tokens, line_no, line, allow_undefined):
        if not tokens:
            raise AsmError("expression ended unexpectedly", line_no, line)
        token = tokens[0]
        if token == "-":
            value, rest = self._parse_unary(tokens[1:], line_no, line, allow_undefined)
            return -value, rest
        if token == "~":
            value, rest = self._parse_unary(tokens[1:], line_no, line, allow_undefined)
            return ~value, rest
        if token == "+":
            return self._parse_unary(tokens[1:], line_no, line, allow_undefined)
        if token == "(":
            value, rest = self._parse_or(tokens[1:], line_no, line, allow_undefined)
            if not rest or rest[0] != ")":
                raise AsmError("missing )", line_no, line)
            return value, rest[1:]
        return self._parse_atom(token, tokens[1:], line_no, line, allow_undefined)

    def _parse_atom(self, token, rest, line_no, line, allow_undefined):
        if token.startswith("0x"):
            return int(token, 16), rest
        if token.startswith("$") and len(token) > 1:
            return int(token[1:], 16), rest
        if token == "$":
            return self._pc, rest
        if token.startswith("%"):
            return int(token[1:], 2), rest
        if token.isdigit():
            return int(token), rest
        if token.startswith("'"):
            inner = token[1:-1]
            if inner.startswith("\\"):
                inner = {"\\n": "\n", "\\r": "\r", "\\t": "\t", "\\0": "\0",
                         "\\\\": "\\", "\\'": "'"}.get(inner, inner[1:])
            return ord(inner), rest
        key = token.lower()
        if key in self.symbols:
            return self.symbols[key], rest
        if allow_undefined:
            self._undefined_seen = True
            return 0, rest
        raise AsmError(f"undefined symbol {token!r}", line_no, line)

    # -- emission helpers ----------------------------------------------------
    def _emit(self, *byte_values: int) -> None:
        for value in byte_values:
            self._code.append(value & 0xFF)
        self._pc += len(byte_values)

    def _emit_expr8(self, expression: str, line_no: int, line: str) -> None:
        value = self.eval_expr(expression, line_no, line, allow_undefined=True)
        if value is None:
            self._fixups.append(
                _Fixup(len(self._code), expression, 1, line_no, line)
            )
            self._emit(0)
        else:
            self._emit(value & 0xFF)

    def _emit_expr16(self, expression: str, line_no: int, line: str) -> None:
        value = self.eval_expr(expression, line_no, line, allow_undefined=True)
        if value is None:
            self._fixups.append(
                _Fixup(len(self._code), expression, 2, line_no, line)
            )
            self._emit(0, 0)
        else:
            self._emit(value & 0xFF, (value >> 8) & 0xFF)

    def _emit_relative(self, expression: str, line_no: int, line: str) -> None:
        base = self._pc + 1  # PC after the displacement byte
        value = self.eval_expr(expression, line_no, line, allow_undefined=True)
        if value is None:
            self._fixups.append(
                _Fixup(len(self._code), expression, -1, line_no, line,
                       relative_base=base)
            )
            self._emit(0)
        else:
            delta = value - base
            if not -128 <= delta <= 127:
                raise AsmError(f"relative jump out of range ({delta})",
                               line_no, line)
            self._emit(delta & 0xFF)

    # -- operand classification --------------------------------------------
    _IDX_RE = re.compile(r"^\(\s*(ix|iy)\s*([+-][^)]+)?\)$", re.IGNORECASE)

    def _classify(self, operand: str):
        text = operand.strip()
        low = text.lower()
        if low in REG8:
            return ("r8", REG8[low])
        if low in ("ixh", "ixl", "iyh", "iyl"):
            prefix = 0xDD if low[1] == "x" else 0xFD
            return ("r8x", prefix, 4 if low[2] == "h" else 5)
        if low in ("bc", "de", "hl", "sp", "af", "ix", "iy"):
            return ("r16", low)
        if low == "af'":
            return ("r16", "af'")
        if low in CONDITIONS:
            return ("cond", CONDITIONS[low])
        if low == "xpc":
            return ("xpc",)
        if low == "(c)":
            return ("port_c",)
        if low in ("(bc)", "(de)", "(hl)", "(sp)"):
            return ("mem_rp", low[1:-1])
        match = self._IDX_RE.match(text)
        if match:
            displacement = match.group(2) or "+0"
            return ("mem_idx", 0xDD if match.group(1).lower() == "ix" else 0xFD,
                    displacement)
        if text.startswith("(") and text.endswith(")"):
            return ("mem_imm", text[1:-1])
        return ("imm", text)

    # -- line handling ----------------------------------------------------------
    # `label:` or Dynamic C's global `label::`
    _LABEL_RE = re.compile(r"^([A-Za-z_.][A-Za-z0-9_.]*)\s*::?")

    @staticmethod
    def _strip_comment(line: str) -> str:
        out = []
        in_string = None
        for ch in line:
            if in_string:
                out.append(ch)
                if ch == in_string:
                    in_string = None
                continue
            if ch in "'\"":
                in_string = ch
                out.append(ch)
                continue
            if ch == ";":
                break
            out.append(ch)
        return "".join(out).rstrip()

    @staticmethod
    def _split_operands(text: str) -> list[str]:
        operands = []
        depth = 0
        current = []
        in_string = None
        for ch in text:
            if in_string:
                current.append(ch)
                if ch == in_string:
                    in_string = None
                continue
            if ch in "'\"":
                in_string = ch
                current.append(ch)
            elif ch == "(":
                depth += 1
                current.append(ch)
            elif ch == ")":
                depth -= 1
                current.append(ch)
            elif ch == "," and depth == 0:
                operands.append("".join(current).strip())
                current = []
            else:
                current.append(ch)
        tail = "".join(current).strip()
        if tail:
            operands.append(tail)
        return operands

    def assemble_source(self, source: str) -> Assembly:
        for line_no, raw_line in enumerate(source.splitlines(), start=1):
            line = self._strip_comment(raw_line)
            if not line.strip():
                continue
            self._assemble_line(line, line_no)
        self._apply_fixups()
        return Assembly(
            code=bytes(self._code),
            origin=self.origin,
            symbols=dict(self.symbols),
            listing=list(self._listing),
        )

    def _assemble_line(self, line: str, line_no: int) -> None:
        text = line
        match = self._LABEL_RE.match(text.strip())
        if match:
            label = match.group(1).lower()
            if label in self.symbols:
                raise AsmError(f"duplicate label {label!r}", line_no, line)
            self.symbols[label] = self._pc
            text = text.strip()[match.end():]
        text = text.strip()
        if not text:
            return
        parts = text.split(None, 1)
        mnemonic = parts[0].lower()
        operand_text = parts[1] if len(parts) > 1 else ""
        # EQU: "NAME equ expr" (label-style constant definition).
        if len(parts) > 1:
            sub = operand_text.split(None, 1)
            if sub and sub[0].lower() == "equ":
                value = self.eval_expr(sub[1] if len(sub) > 1 else "",
                                       line_no, line)
                self.symbols[mnemonic] = value
                return
        operands = self._split_operands(operand_text)
        self._listing.append((self._pc, line.strip()))
        self._encode(mnemonic, operands, line_no, line)

    def _apply_fixups(self) -> None:
        for fixup in self._fixups:
            value = self.eval_expr(fixup.expression, fixup.line_no, fixup.line)
            if fixup.width == 1:
                self._code[fixup.offset] = value & 0xFF
            elif fixup.width == 2:
                self._code[fixup.offset] = value & 0xFF
                self._code[fixup.offset + 1] = (value >> 8) & 0xFF
            else:
                delta = value - fixup.relative_base
                if not -128 <= delta <= 127:
                    raise AsmError(
                        f"relative jump out of range ({delta})",
                        fixup.line_no, fixup.line,
                    )
                self._code[fixup.offset] = delta & 0xFF

    # -- instruction encoding -----------------------------------------------
    def _encode(self, mnemonic: str, operands: list[str], line_no: int,
                line: str) -> None:
        try:
            self._encode_inner(mnemonic, operands)
        except AsmError:
            raise
        except Exception as exc:
            raise AsmError(f"cannot encode: {exc}", line_no, line) from exc
        return

    def _encode_inner(self, mnemonic: str, operands: list[str]) -> None:
        line_no, line = 0, ""  # context is attached by _encode
        ops = [self._classify(op) for op in operands]

        if mnemonic in SIMPLE_OPS and not operands:
            self._emit(*SIMPLE_OPS[mnemonic])
            return
        if mnemonic in BLOCK_OPS and not operands:
            self._emit(*BLOCK_OPS[mnemonic])
            return

        handler = getattr(self, f"_op_{mnemonic}", None)
        if handler is None:
            raise AsmError(f"unknown mnemonic {mnemonic!r}")
        handler(ops, operands)

    # individual mnemonics ---------------------------------------------------
    def _op_org(self, ops, raw):
        value = self.eval_expr(raw[0])
        if value < self._pc:
            raise AsmError(f"org {value:#x} goes backwards from {self._pc:#x}")
        while self._pc < value:
            self._emit(0)

    def _op_db(self, ops, raw):
        for item in raw:
            stripped = item.strip()
            if stripped.startswith('"') and stripped.endswith('"'):
                for ch in stripped[1:-1]:
                    self._emit(ord(ch))
            else:
                self._emit_expr8(item, 0, "")

    def _op_dw(self, ops, raw):
        for item in raw:
            self._emit_expr16(item, 0, "")

    def _op_ds(self, ops, raw):
        count = self.eval_expr(raw[0])
        fill = self.eval_expr(raw[1]) if len(raw) > 1 else 0
        for _ in range(count):
            self._emit(fill)

    def _op_align(self, ops, raw):
        boundary = self.eval_expr(raw[0])
        while self._pc % boundary:
            self._emit(0)

    def _op_ld(self, ops, raw):
        dst, src = ops
        # Rabbit XPC moves.
        if dst[0] == "xpc" and src == ("r8", 7):
            self._emit(0xED, 0x67)
            return
        if dst == ("r8", 7) and src[0] == "xpc":
            self._emit(0xED, 0x77)
            return
        # LD r, r' / LD r, (HL) / LD (HL), r
        if dst[0] == "r8" and src[0] == "r8":
            self._emit(0x40 | (dst[1] << 3) | src[1])
            return
        if dst[0] == "r8" and src == ("mem_rp", "hl"):
            self._emit(0x40 | (dst[1] << 3) | 6)
            return
        if dst == ("mem_rp", "hl") and src[0] == "r8":
            self._emit(0x70 | src[1])
            return
        if dst[0] == "r8" and src[0] == "mem_idx":
            self._emit(src[1], 0x40 | (dst[1] << 3) | 6)
            self._emit_expr8(src[2], 0, "")
            return
        if dst[0] == "mem_idx" and src[0] == "r8":
            self._emit(dst[1], 0x70 | src[1])
            self._emit_expr8(dst[2], 0, "")
            return
        if dst[0] == "mem_idx" and src[0] == "imm":
            self._emit(dst[1], 0x36)
            self._emit_expr8(dst[2], 0, "")
            self._emit_expr8(src[1], 0, "")
            return
        if dst[0] == "r8x" and src[0] == "imm":
            self._emit(dst[1], 0x06 | (dst[2] << 3))
            self._emit_expr8(src[1], 0, "")
            return
        if dst[0] == "r8x" and src[0] == "r8" and src[1] in (0, 1, 2, 3, 7):
            self._emit(dst[1], 0x40 | (dst[2] << 3) | src[1])
            return
        if dst[0] == "r8" and src[0] == "r8x" and dst[1] in (0, 1, 2, 3, 7):
            self._emit(src[1], 0x40 | (dst[1] << 3) | src[2])
            return
        # LD r, n / LD (HL), n
        if dst[0] == "r8" and src[0] == "imm":
            self._emit(0x06 | (dst[1] << 3))
            self._emit_expr8(src[1], 0, "")
            return
        if dst == ("mem_rp", "hl") and src[0] == "imm":
            self._emit(0x36)
            self._emit_expr8(src[1], 0, "")
            return
        # A <-> (BC)/(DE)/(nn)
        if dst == ("r8", 7) and src[0] == "mem_rp" and src[1] in ("bc", "de"):
            self._emit(0x0A if src[1] == "bc" else 0x1A)
            return
        if dst[0] == "mem_rp" and dst[1] in ("bc", "de") and src == ("r8", 7):
            self._emit(0x02 if dst[1] == "bc" else 0x12)
            return
        if dst == ("r8", 7) and src[0] == "mem_imm":
            self._emit(0x3A)
            self._emit_expr16(src[1], 0, "")
            return
        if dst[0] == "mem_imm" and src == ("r8", 7):
            self._emit(0x32)
            self._emit_expr16(dst[1], 0, "")
            return
        # 16-bit loads
        if dst[0] == "r16" and src[0] == "imm":
            name = dst[1]
            if name in ("ix", "iy"):
                self._emit(0xDD if name == "ix" else 0xFD, 0x21)
            elif name in REG16_SP:
                self._emit(0x01 | (REG16_SP[name] << 4))
            else:
                raise AsmError(f"cannot load immediate into {name}")
            self._emit_expr16(src[1], 0, "")
            return
        if dst[0] == "r16" and src[0] == "mem_imm":
            name = dst[1]
            if name == "hl":
                self._emit(0x2A)
            elif name in ("ix", "iy"):
                self._emit(0xDD if name == "ix" else 0xFD, 0x2A)
            elif name in REG16_SP:
                self._emit(0xED, 0x4B | (REG16_SP[name] << 4))
            else:
                raise AsmError(f"cannot load {name} from memory")
            self._emit_expr16(src[1], 0, "")
            return
        if dst[0] == "mem_imm" and src[0] == "r16":
            name = src[1]
            if name == "hl":
                self._emit(0x22)
            elif name in ("ix", "iy"):
                self._emit(0xDD if name == "ix" else 0xFD, 0x22)
            elif name in REG16_SP:
                self._emit(0xED, 0x43 | (REG16_SP[name] << 4))
            else:
                raise AsmError(f"cannot store {name}")
            self._emit_expr16(dst[1], 0, "")
            return
        if dst == ("r16", "sp") and src[0] == "r16" and src[1] in ("hl", "ix", "iy"):
            if src[1] == "hl":
                self._emit(0xF9)
            else:
                self._emit(0xDD if src[1] == "ix" else 0xFD, 0xF9)
            return
        raise AsmError(f"unsupported LD form: {raw}")

    def _alu_op(self, operation: int, ops, raw):
        # Accept both "add a, x" and "add x" spellings.
        if len(ops) == 2 and ops[0] == ("r8", 7):
            ops = ops[1:]
            raw = raw[1:]
        if len(ops) != 1:
            raise AsmError(f"bad ALU operand count: {raw}")
        operand = ops[0]
        if operand[0] == "r8":
            self._emit(0x80 | (operation << 3) | operand[1])
        elif operand == ("mem_rp", "hl"):
            self._emit(0x80 | (operation << 3) | 6)
        elif operand[0] == "mem_idx":
            self._emit(operand[1], 0x80 | (operation << 3) | 6)
            self._emit_expr8(operand[2], 0, "")
        elif operand[0] == "r8x":
            self._emit(operand[1], 0x80 | (operation << 3) | operand[2])
        elif operand[0] == "imm":
            self._emit(0xC6 | (operation << 3))
            self._emit_expr8(operand[1], 0, "")
        else:
            raise AsmError(f"bad ALU operand: {raw}")

    def _op_add(self, ops, raw):
        if len(ops) == 2 and ops[0][0] == "r16" and ops[0][1] in ("hl", "ix", "iy"):
            dst = ops[0][1]
            src = ops[1]
            if src[0] != "r16":
                raise AsmError(f"ADD {dst}, needs a register pair")
            mapping = dict(REG16_SP)
            if dst in ("ix", "iy"):
                self._emit(0xDD if dst == "ix" else 0xFD)
                mapping[dst] = 2
                if src[1] == "hl":
                    raise AsmError(f"ADD {dst}, hl is not encodable")
            index = mapping.get(src[1])
            if index is None:
                raise AsmError(f"bad pair {src[1]} for ADD")
            self._emit(0x09 | (index << 4))
            return
        self._alu_op(0, ops, raw)

    def _op_adc(self, ops, raw):
        if len(ops) == 2 and ops[0] == ("r16", "hl"):
            index = REG16_SP[ops[1][1]]
            self._emit(0xED, 0x4A | (index << 4))
            return
        self._alu_op(1, ops, raw)

    def _op_sub(self, ops, raw):
        self._alu_op(2, ops, raw)

    def _op_sbc(self, ops, raw):
        if len(ops) == 2 and ops[0] == ("r16", "hl"):
            index = REG16_SP[ops[1][1]]
            self._emit(0xED, 0x42 | (index << 4))
            return
        self._alu_op(3, ops, raw)

    def _op_and(self, ops, raw):
        self._alu_op(4, ops, raw)

    def _op_xor(self, ops, raw):
        self._alu_op(5, ops, raw)

    def _op_or(self, ops, raw):
        self._alu_op(6, ops, raw)

    def _op_cp(self, ops, raw):
        self._alu_op(7, ops, raw)

    def _inc_dec(self, ops, raw, eight_base: int, sixteen_base: int):
        operand = ops[0]
        if operand[0] == "r8":
            self._emit(eight_base | (operand[1] << 3))
        elif operand == ("mem_rp", "hl"):
            self._emit(eight_base | (6 << 3))
        elif operand[0] == "mem_idx":
            self._emit(operand[1], eight_base | (6 << 3))
            self._emit_expr8(operand[2], 0, "")
        elif operand[0] == "r16":
            name = operand[1]
            if name in ("ix", "iy"):
                self._emit(0xDD if name == "ix" else 0xFD, sixteen_base | (2 << 4))
            else:
                self._emit(sixteen_base | (REG16_SP[name] << 4))
        else:
            raise AsmError(f"bad INC/DEC operand: {raw}")

    def _op_inc(self, ops, raw):
        self._inc_dec(ops, raw, 0x04, 0x03)

    def _op_dec(self, ops, raw):
        self._inc_dec(ops, raw, 0x05, 0x0B)

    def _rot_shift(self, operation: int, ops, raw):
        operand = ops[0]
        if operand[0] == "r8":
            self._emit(0xCB, (operation << 3) | operand[1])
        elif operand == ("mem_rp", "hl"):
            self._emit(0xCB, (operation << 3) | 6)
        elif operand[0] == "mem_idx":
            self._emit(operand[1], 0xCB)
            self._emit_expr8(operand[2], 0, "")
            self._emit((operation << 3) | 6)
        else:
            raise AsmError(f"bad rotate operand: {raw}")

    def _op_rlc(self, ops, raw):
        self._rot_shift(0, ops, raw)

    def _op_rrc(self, ops, raw):
        self._rot_shift(1, ops, raw)

    def _op_rl(self, ops, raw):
        self._rot_shift(2, ops, raw)

    def _op_rr(self, ops, raw):
        self._rot_shift(3, ops, raw)

    def _op_sla(self, ops, raw):
        self._rot_shift(4, ops, raw)

    def _op_sra(self, ops, raw):
        self._rot_shift(5, ops, raw)

    def _op_sll(self, ops, raw):
        self._rot_shift(6, ops, raw)

    def _op_srl(self, ops, raw):
        self._rot_shift(7, ops, raw)

    def _bit_op(self, x: int, ops, raw):
        bit = self.eval_expr(raw[0])
        if not 0 <= bit <= 7:
            raise AsmError(f"bit number {bit} out of range")
        operand = ops[1]
        if operand[0] == "r8":
            self._emit(0xCB, (x << 6) | (bit << 3) | operand[1])
        elif operand == ("mem_rp", "hl"):
            self._emit(0xCB, (x << 6) | (bit << 3) | 6)
        elif operand[0] == "mem_idx":
            self._emit(operand[1], 0xCB)
            self._emit_expr8(operand[2], 0, "")
            self._emit((x << 6) | (bit << 3) | 6)
        else:
            raise AsmError(f"bad BIT operand: {raw}")

    def _op_bit(self, ops, raw):
        self._bit_op(1, ops, raw)

    def _op_res(self, ops, raw):
        self._bit_op(2, ops, raw)

    def _op_set(self, ops, raw):
        self._bit_op(3, ops, raw)

    def _op_jp(self, ops, raw):
        if len(ops) == 1:
            operand = ops[0]
            if operand == ("mem_rp", "hl"):
                self._emit(0xE9)
                return
            if operand[0] == "mem_idx":
                self._emit(operand[1], 0xE9)
                return
            if operand[0] == "r16" and operand[1] in ("hl", "ix", "iy"):
                # Accept "jp hl" spelling too.
                if operand[1] == "hl":
                    self._emit(0xE9)
                else:
                    self._emit(0xDD if operand[1] == "ix" else 0xFD, 0xE9)
                return
            self._emit(0xC3)
            self._emit_expr16(raw[0], 0, "")
            return
        condition = ops[0]
        if condition[0] == "r8" and raw[0].lower() == "c":
            condition = ("cond", CONDITIONS["c"])
        if condition[0] != "cond":
            raise AsmError(f"bad JP condition: {raw[0]}")
        self._emit(0xC2 | (condition[1] << 3))
        self._emit_expr16(raw[1], 0, "")

    def _op_jr(self, ops, raw):
        if len(ops) == 1:
            self._emit(0x18)
            self._emit_relative(raw[0], 0, "")
            return
        condition = ops[0]
        if condition[0] == "r8" and raw[0].lower() == "c":
            condition = ("cond", CONDITIONS["c"])
        if condition[0] != "cond" or condition[1] > 3:
            raise AsmError(f"bad JR condition: {raw[0]}")
        self._emit(0x20 | (condition[1] << 3))
        self._emit_relative(raw[1], 0, "")

    def _op_djnz(self, ops, raw):
        self._emit(0x10)
        self._emit_relative(raw[0], 0, "")

    def _op_call(self, ops, raw):
        if len(ops) == 1:
            self._emit(0xCD)
            self._emit_expr16(raw[0], 0, "")
            return
        condition = ops[0]
        if condition[0] == "r8" and raw[0].lower() == "c":
            condition = ("cond", CONDITIONS["c"])
        if condition[0] != "cond":
            raise AsmError(f"bad CALL condition: {raw[0]}")
        self._emit(0xC4 | (condition[1] << 3))
        self._emit_expr16(raw[1], 0, "")

    def _op_ret(self, ops, raw):
        condition = ops[0]
        if condition[0] == "r8" and raw[0].lower() == "c":
            condition = ("cond", CONDITIONS["c"])
        if condition[0] != "cond":
            raise AsmError(f"bad RET condition: {raw[0]}")
        self._emit(0xC0 | (condition[1] << 3))

    def _op_rst(self, ops, raw):
        target = self.eval_expr(raw[0])
        if target % 8 or target > 0x38:
            raise AsmError(f"bad RST target {target:#x}")
        self._emit(0xC7 | target)

    def _op_push(self, ops, raw):
        name = ops[0][1]
        if name in ("ix", "iy"):
            self._emit(0xDD if name == "ix" else 0xFD, 0xE5)
            return
        self._emit(0xC5 | (REG16_AF[name] << 4))

    def _op_pop(self, ops, raw):
        name = ops[0][1]
        if name in ("ix", "iy"):
            self._emit(0xDD if name == "ix" else 0xFD, 0xE1)
            return
        self._emit(0xC1 | (REG16_AF[name] << 4))

    def _op_ex(self, ops, raw):
        pair = (ops[0], ops[1])
        if pair == (("r16", "de"), ("r16", "hl")):
            self._emit(0xEB)
            return
        if pair == (("r16", "af"), ("r16", "af'")):
            self._emit(0x08)
            return
        if ops[0] == ("mem_rp", "sp") and ops[1][0] == "r16":
            name = ops[1][1]
            if name == "hl":
                self._emit(0xE3)
            elif name in ("ix", "iy"):
                self._emit(0xDD if name == "ix" else 0xFD, 0xE3)
            else:
                raise AsmError(f"bad EX (SP) operand {name}")
            return
        raise AsmError(f"unsupported EX form: {raw}")

    def _op_in(self, ops, raw):
        if len(ops) == 2 and ops[0] == ("r8", 7) and ops[1][0] == "mem_imm":
            self._emit(0xDB)
            self._emit_expr8(ops[1][1], 0, "")
            return
        if len(ops) == 2 and ops[0][0] == "r8" and ops[1] == ("port_c",):
            self._emit(0xED, 0x40 | (ops[0][1] << 3))
            return
        raise AsmError(f"unsupported IN form: {raw}")

    def _op_out(self, ops, raw):
        if len(ops) == 2 and ops[0][0] == "mem_imm" and ops[1] == ("r8", 7):
            self._emit(0xD3)
            self._emit_expr8(ops[0][1], 0, "")
            return
        if len(ops) == 2 and ops[0] == ("port_c",) and ops[1][0] == "r8":
            self._emit(0xED, 0x41 | (ops[1][1] << 3))
            return
        raise AsmError(f"unsupported OUT form: {raw}")

    def _op_im(self, ops, raw):
        mode = self.eval_expr(raw[0])
        self._emit(0xED, (0x46, 0x56, 0x5E)[mode])


def assemble(source: str, origin: int = 0) -> Assembly:
    """Assemble ``source`` at ``origin``; returns an :class:`Assembly`."""
    return Assembler(origin).assemble_source(source)
