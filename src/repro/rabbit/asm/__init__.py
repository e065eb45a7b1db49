"""Assembler and disassembler for the Rabbit/Z80 core (DESIGN.md S10)."""

from repro.rabbit.asm.assembler import (AsmError, AsmLine, Assembler, Assembly,
                                        assemble, parse_asm)
from repro.rabbit.asm.disasm import Instruction, disassemble, disassemble_one

__all__ = [
    "AsmError",
    "AsmLine",
    "Assembler",
    "Assembly",
    "Instruction",
    "assemble",
    "disassemble",
    "disassemble_one",
    "parse_asm",
]
