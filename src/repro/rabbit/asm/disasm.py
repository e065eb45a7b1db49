"""Disassembler for the Rabbit/Z80 core.

Decodes machine code back to the assembler's own syntax; used by the
debug tooling and by round-trip tests (assemble -> disassemble ->
assemble must be a fixed point).  Unknown bytes decode to ``db`` so any
image disassembles without raising.
"""

from __future__ import annotations

from dataclasses import dataclass

_R8 = ("b", "c", "d", "e", "h", "l", "(hl)", "a")
_RP = ("bc", "de", "hl", "sp")
_RP_AF = ("bc", "de", "hl", "af")
_CC = ("nz", "z", "nc", "c", "po", "pe", "p", "m")
_ALU = ("add  a,", "adc  a,", "sub ", "sbc  a,", "and ", "xor ", "or  ", "cp  ")
_ROT = ("rlc", "rrc", "rl", "rr", "sla", "sra", "sll", "srl")
_X0Z7 = ("rlca", "rrca", "rla", "rra", "daa", "cpl", "scf", "ccf")
_BLOCK = {
    (4, 0): "ldi", (5, 0): "ldd", (6, 0): "ldir", (7, 0): "lddr",
    (4, 1): "cpi", (5, 1): "cpd", (6, 1): "cpir", (7, 1): "cpdr",
}


@dataclass(frozen=True)
class Instruction:
    """One decoded instruction."""

    address: int
    length: int
    text: str
    opcode_bytes: bytes

    def __str__(self) -> str:
        raw = " ".join(f"{b:02x}" for b in self.opcode_bytes)
        return f"{self.address:04x}  {raw:<12}  {self.text}"


class _Reader:
    def __init__(self, code: bytes, offset: int, origin: int):
        self.code = code
        self.offset = offset
        self.start = offset
        #: Address of ``code[0]``; relative jumps resolve against it.
        self.origin = origin

    def u8(self) -> int:
        if self.offset >= len(self.code):
            raise IndexError("ran off the end of code")
        value = self.code[self.offset]
        self.offset += 1
        return value

    def s8(self) -> int:
        value = self.u8()
        return value - 256 if value & 0x80 else value

    def u16(self) -> int:
        lo = self.u8()
        return lo | (self.u8() << 8)

    def consumed(self) -> bytes:
        return self.code[self.start: self.offset]


def disassemble_one(code: bytes, offset: int = 0,
                    origin: int = 0) -> Instruction:
    """Decode one instruction starting at ``offset``."""
    reader = _Reader(code, offset, origin)
    try:
        text = _decode(reader)
    except IndexError:
        reader.offset = min(offset + 1, len(code))
        text = f"db   0x{code[offset]:02X}"
    return Instruction(
        address=origin + offset,
        length=reader.offset - offset,
        text=text,
        opcode_bytes=reader.consumed(),
    )


def disassemble(code: bytes, origin: int = 0,
                count: int | None = None) -> list[Instruction]:
    """Decode a whole image (or the first ``count`` instructions)."""
    out = []
    offset = 0
    while offset < len(code):
        instruction = disassemble_one(code, offset, origin)
        out.append(instruction)
        offset += instruction.length
        if count is not None and len(out) >= count:
            break
    return out


def _decode(reader: _Reader, index_name: str | None = None) -> str:
    opcode = reader.u8()
    if opcode == 0xCB:
        return _decode_cb(reader, index_name, None)
    if opcode == 0xED:
        return _decode_ed(reader)
    if opcode == 0xDD:
        return _decode_indexed(reader, "ix")
    if opcode == 0xFD:
        return _decode_indexed(reader, "iy")
    return _decode_main(reader, opcode, index_name)


def _mem(index_name: str | None, displacement: int | None) -> str:
    if index_name is None:
        return "(hl)"
    sign = "+" if displacement >= 0 else "-"
    return f"({index_name}{sign}{abs(displacement)})"


def _decode_indexed(reader: _Reader, name: str) -> str:
    opcode = reader.u8()
    if opcode == 0xCB:
        displacement = reader.s8()
        return _decode_cb(reader, name, displacement)
    if opcode == 0xE9:
        return f"jp   ({name})"
    if opcode == 0xE5:
        return f"push {name}"
    if opcode == 0xE1:
        return f"pop  {name}"
    if opcode == 0xE3:
        return f"ex   (sp), {name}"
    if opcode == 0xF9:
        return f"ld   sp, {name}"
    if opcode == 0x21:
        return f"ld   {name}, 0x{reader.u16():04X}"
    if opcode == 0x22:
        return f"ld   (0x{reader.u16():04X}), {name}"
    if opcode == 0x2A:
        return f"ld   {name}, (0x{reader.u16():04X})"
    if opcode == 0x23:
        return f"inc  {name}"
    if opcode == 0x2B:
        return f"dec  {name}"
    if opcode & 0xCF == 0x09:
        pair = (opcode >> 4) & 3
        source = (_RP[0], _RP[1], name, _RP[3])[pair]
        return f"add  {name}, {source}"
    if opcode == 0x36:
        displacement = reader.s8()
        return f"ld   {_mem(name, displacement)}, 0x{reader.u8():02X}"
    if opcode == 0x34:
        return f"inc  {_mem(name, reader.s8())}"
    if opcode == 0x35:
        return f"dec  {_mem(name, reader.s8())}"
    x = opcode >> 6
    y = (opcode >> 3) & 7
    z = opcode & 7
    if x == 1 and (y == 6) != (z == 6):
        displacement = reader.s8()
        if y == 6:
            return f"ld   {_mem(name, displacement)}, {_R8[z]}"
        return f"ld   {_R8[y]}, {_mem(name, displacement)}"
    if x == 2 and z == 6:
        displacement = reader.s8()
        return f"{_ALU[y]} {_mem(name, displacement)}".replace("  (", " (")
    # IXH/IXL forms and anything else: fall back to main decoding with
    # the prefix noted as a raw byte.
    reader.offset -= 1
    inner = _decode_main(reader, reader.u8(), None)
    return inner  # prefixed-but-unaffected instruction


def _decode_cb(reader: _Reader, index_name: str | None,
               displacement: int | None) -> str:
    opcode = reader.u8()
    x = opcode >> 6
    y = (opcode >> 3) & 7
    z = opcode & 7
    target = _mem(index_name, displacement) if index_name else _R8[z]
    if x == 0:
        return f"{_ROT[y]:<4} {target}"
    if x == 1:
        return f"bit  {y}, {target}"
    if x == 2:
        return f"res  {y}, {target}"
    return f"set  {y}, {target}"


def _decode_ed(reader: _Reader) -> str:
    opcode = reader.u8()
    if opcode == 0x67:
        return "ld   xpc, a"
    if opcode == 0x77:
        return "ld   a, xpc"
    x = opcode >> 6
    y = (opcode >> 3) & 7
    z = opcode & 7
    if x == 1:
        if z == 0:
            return f"in   {_R8[y]}, (c)" if y != 6 else "in   f, (c)"
        if z == 1:
            return f"out  (c), {_R8[y]}" if y != 6 else "out  (c), 0"
        if z == 2:
            mnemonic = "adc" if y & 1 else "sbc"
            return f"{mnemonic}  hl, {_RP[y >> 1]}"
        if z == 3:
            address = reader.u16()
            if y & 1:
                return f"ld   {_RP[y >> 1]}, (0x{address:04X})"
            return f"ld   (0x{address:04X}), {_RP[y >> 1]}"
        if z == 4:
            return "neg"
        if z == 5:
            return "reti" if y == 1 else "retn"
        if z == 6:
            return f"im   {(0, 0, 1, 2, 0, 0, 1, 2)[y]}"
        if y == 5:
            return "rld"
        return f"db   0xED, 0x{opcode:02X}"
    if x == 2 and (y, z) in _BLOCK:
        return _BLOCK[(y, z)]
    return f"db   0xED, 0x{opcode:02X}"


def _decode_main(reader: _Reader, opcode: int,
                 index_name: str | None) -> str:
    x = opcode >> 6
    y = (opcode >> 3) & 7
    z = opcode & 7
    if x == 1:
        if opcode == 0x76:
            return "halt"
        return f"ld   {_R8[y]}, {_R8[z]}"
    if x == 2:
        return f"{_ALU[y]} {_R8[z]}".replace("  (", " (")
    if x == 0:
        return _decode_x0(reader, y, z)
    return _decode_x3(reader, y, z)


def _decode_x0(reader: _Reader, y: int, z: int) -> str:
    if z == 0:
        if y == 0:
            return "nop"
        if y == 1:
            return "ex   af, af'"
        if y == 2:
            return f"djnz 0x{_rel(reader):04X}"
        if y == 3:
            return f"jr   0x{_rel(reader):04X}"
        return f"jr   {_CC[y - 4]}, 0x{_rel(reader):04X}"
    if z == 1:
        if y & 1:
            return f"add  hl, {_RP[y >> 1]}"
        return f"ld   {_RP[y >> 1]}, 0x{reader.u16():04X}"
    if z == 2:
        table = {
            0: "ld   (bc), a", 1: "ld   a, (bc)",
            2: "ld   (de), a", 3: "ld   a, (de)",
        }
        if y in table:
            return table[y]
        address = reader.u16()
        return {
            4: f"ld   (0x{address:04X}), hl",
            5: f"ld   hl, (0x{address:04X})",
            6: f"ld   (0x{address:04X}), a",
            7: f"ld   a, (0x{address:04X})",
        }[y]
    if z == 3:
        mnemonic = "dec" if y & 1 else "inc"
        return f"{mnemonic}  {_RP[y >> 1]}"
    if z == 4:
        return f"inc  {_R8[y]}"
    if z == 5:
        return f"dec  {_R8[y]}"
    if z == 6:
        return f"ld   {_R8[y]}, 0x{reader.u8():02X}"
    return _X0Z7[y]


def _decode_x3(reader: _Reader, y: int, z: int) -> str:
    if z == 0:
        return f"ret  {_CC[y]}"
    if z == 1:
        if y & 1:
            return ("ret", "exx", "jp   (hl)", "ld   sp, hl")[y >> 1]
        return f"pop  {_RP_AF[y >> 1]}"
    if z == 2:
        return f"jp   {_CC[y]}, 0x{reader.u16():04X}"
    if z == 3:
        if y == 0:
            return f"jp   0x{reader.u16():04X}"
        if y == 2:
            return f"out  (0x{reader.u8():02X}), a"
        if y == 3:
            return f"in   a, (0x{reader.u8():02X})"
        if y == 4:
            return "ex   (sp), hl"
        if y == 5:
            return "ex   de, hl"
        if y == 6:
            return "di"
        return "ei"
    if z == 4:
        return f"call {_CC[y]}, 0x{reader.u16():04X}"
    if z == 5:
        if y == 1:
            return f"call 0x{reader.u16():04X}"
        return f"push {_RP_AF[y >> 1]}"
    if z == 6:
        return f"{_ALU[y]} 0x{reader.u8():02X}".replace("  0", " 0")
    return f"rst  0x{y * 8:02X}"


def _rel(reader: _Reader) -> int:
    displacement = reader.s8()
    return (reader.origin + reader.offset + displacement) & 0xFFFF
