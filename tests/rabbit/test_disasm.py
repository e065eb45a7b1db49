"""Disassembler tests, including assemble/disassemble round trips."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.rabbit.asm import assemble
from repro.rabbit.asm.disasm import disassemble, disassemble_one
from tests.rabbit.test_fastpath_fuzz import _instructions, _layout

#: Instruction source lines used for round-trip testing (one per line,
#: address-free so reassembly is position-independent).
ROUND_TRIP_LINES = [
    "nop", "halt", "di", "ei", "exx", "daa", "cpl", "scf", "ccf",
    "rlca", "rrca", "rla", "rra", "ret", "neg", "reti", "ldir", "lddr",
    "cpir", "rld",
    "ld   a, 0x12", "ld   b, 0x00", "ld   l, 0xFF",
    "ld   bc, 0x1234", "ld   de, 0x0001", "ld   hl, 0xFFFF",
    "ld   sp, 0xDFF0", "ld   sp, hl",
    "ld   a, (bc)", "ld   (de), a", "ld   a, (0xC000)",
    "ld   (0xC000), a", "ld   (0xC000), hl", "ld   hl, (0xC000)",
    "ld   (0xC000), bc", "ld   de, (0xC000)",
    "ld   b, c", "ld   (hl), a", "ld   e, (hl)", "ld   (hl), 0x7F",
    "add  a, b", "adc  a, 0x10", "sub  (hl)", "sbc  a, c",
    "and  0x0F", "xor  a", "or   (hl)", "cp   0x30",
    "add  hl, de", "adc  hl, bc", "sbc  hl, sp",
    "inc  a", "dec  (hl)", "inc  de", "dec  sp",
    "rlc  b", "rrc  c", "rl   d", "rr   e", "sla  h", "sra  l",
    "sll  b", "srl  a", "rlc  (hl)",
    "bit  0, a", "bit  7, (hl)", "set  3, b", "res  5, (hl)",
    "jp   0x1234", "jp   nz, 0x1234", "jp   (hl)",
    "call 0x1234", "call z, 0x1234", "ret  nc", "rst  0x28",
    "push bc", "push af", "pop  de", "pop  af",
    "ex   de, hl", "ex   (sp), hl", "ex   af, af'",
    "in   a, (0x40)", "out  (0x41), a", "in   b, (c)", "out  (c), d",
    "im   1",
    "ld   xpc, a", "ld   a, xpc",
    "ld   ix, 0x1000", "ld   iy, 0x2000", "push ix", "pop  iy",
    "ld   (ix+5), a", "ld   b, (iy-3)", "ld   (ix+0), 0x42",
    "add  ix, de", "inc  (ix+1)", "dec  (iy-1)",
    "add  a, (ix+2)", "xor  (iy+7)",
    "bit  2, (ix+4)", "set  7, (iy-8)", "rlc  (ix+1)", "sll  (ix+3)",
    "jp   (ix)", "ld   sp, ix", "ex   (sp), iy",
]


@pytest.mark.parametrize("line", ROUND_TRIP_LINES)
def test_assemble_disassemble_fixed_point(line):
    code = assemble(line).code
    instructions = disassemble(code)
    assert len(instructions) == 1, (line, instructions)
    recoded = assemble(instructions[0].text).code
    assert recoded == code, (line, instructions[0].text)


@given(item=_instructions(st.integers(0, 0xFFFF)),
       origin=st.integers(1, 0xF000))
@settings(max_examples=300, deadline=None)
def test_fuzzer_instructions_survive_a_text_round_trip(item, origin):
    # Assemble -> disassemble -> assemble -> disassemble gives the same
    # text for everything the step-core fuzzer draws.  Text, not bytes:
    # undocumented aliases (FD 76, ED 63, the DD/FD CB register-copy
    # forms) re-assemble to their canonical encodings.  The stream sits
    # at a non-zero origin and each instruction re-assembles at its own
    # address, so relative branches must print absolute targets.
    code, _ = _layout(origin, [item])
    for instruction in disassemble(code, origin=origin):
        again = assemble(instruction.text, origin=instruction.address).code
        texts = [i.text for i in disassemble(again, instruction.address)]
        assert texts == [instruction.text], instruction


def test_relative_jump_targets_count_from_origin():
    # A djnz to itself at 0x0100 targets 0x0100, not the buffer start.
    code = assemble("""
    top:
        djnz top
        jr   nz, next
    next:
        nop
    """, origin=0x0100).code
    texts = [i.text for i in disassemble(code, origin=0x0100)]
    assert texts == ["djnz 0x0100", "jr   nz, 0x0104", "nop"]


def test_relative_jumps_decode_to_targets():
    assembly = assemble("""
        org 0
        jr   next
        nop
    next:
        djnz next
        jr   c, next
    """)
    instructions = disassemble(assembly.code)
    texts = [i.text for i in instructions]
    assert texts[0] == "jr   0x0003"
    assert texts[2] == "djnz 0x0003"
    assert texts[3] == "jr   c, 0x0003"


def test_stream_decoding_lengths():
    assembly = assemble("""
        org 0
        ld   a, 1
        ld   bc, 0x1234
        ldir
        halt
    """)
    instructions = disassemble(assembly.code)
    assert [i.length for i in instructions] == [2, 3, 2, 1]
    assert instructions[-1].address == 2 + 3 + 2


def test_origin_offsets_addresses():
    code = assemble("nop\nnop\n").code
    instructions = disassemble(code, origin=0x100)
    assert [i.address for i in instructions] == [0x100, 0x101]


def test_unknown_ed_decodes_as_db():
    instructions = disassemble(bytes([0xED, 0x00]))
    assert instructions[0].text.startswith("db")


def test_truncated_tail_is_db():
    # A lone 0xCD (CALL) with no operand bytes.
    instructions = disassemble(bytes([0xCD]))
    assert instructions[0].text.startswith("db")
    assert instructions[0].length == 1


def test_str_rendering():
    instruction = disassemble_one(assemble("ld a, 0x42").code)
    text = str(instruction)
    assert "3e 42" in text
    assert "ld   a, 0x42" in text


@given(data=st.binary(min_size=1, max_size=64))
@settings(max_examples=100, deadline=None)
def test_disassembler_total_on_arbitrary_bytes(data):
    # Any byte soup decodes without raising and consumes every byte.
    instructions = disassemble(data)
    assert sum(i.length for i in instructions) == len(data)


def test_count_limit():
    code = assemble("nop\n" * 10).code
    assert len(disassemble(code, count=3)) == 3


def test_aes_asm_disassembles_cleanly():
    # The hand-written AES image must contain no undecodable bytes in
    # its code section.
    from repro.rabbit.programs.aes_asm import generate_source

    assembly = assemble(generate_source())
    code_end = assembly.symbol("sbox_flash")
    instructions = disassemble(assembly.code[:code_end])
    bad = [i for i in instructions if i.text.startswith("db")]
    assert not bad
