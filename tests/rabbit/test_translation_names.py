"""No name bound into a translated block's namespace is a template local.

A translated function reads its closures (``_o*``, ``_b*``), its memory
views (``_S``, ``_F``, ``_P``), its cache (``_c``), its flag tables
(``_SZP``, ``_INC8``, ``_DEC8``), the cold-arm helpers (``_commit``,
``_around``) and their runs (``_run*``) as globals.  A template that
assigns the same name anywhere in the function makes it a local
throughout, and the global read fails at run time
(``UnboundLocalError``, or a call on an int) -- but only when the arm
that reads it runs.  This test catches such a clash when the text is
built: it scans the sources the translator emits for the E10 firmware
and for a stream of every opcode the decoder tags as a template.  A
register-only self-loop's text adds its own locals -- the budget and
cycle bound it is passed, the iteration count and its cap, the registers
it keeps in ``_r<name>`` -- and is scanned the same way: the E10 loop at
0x50 and one loop around every register-only template.
"""

from __future__ import annotations

import ast
import random

import pytest

from repro.experiments.e10_rsa import measure_widths
from repro.rabbit import fastcore
from repro.rabbit.board import Board
from repro.rabbit.fastcore import BlockCache, _decode_one, _register_source

#: Two-byte operands for the opcodes that take one: an address in the
#: data segment (stores and loads inline) and one in root flash.
WORDS = (0xC010, 0x0300)


#: Every template kind the decoder tags (``op._tmpl[0]``).
KINDS = {
    "rr", "rn", "incdec", "arith_r", "arith_n", "logic_r", "logic_n",
    "cb_rot", "ld_rp_nn", "incdec_rp", "add_hl", "adc_hl", "sbc_hl",
    "ex_de_hl", "simple", "mem", "mhl_read", "mhl_write", "mhl_logic",
    "ld_rp_mem", "ld_nn_hl", "push", "pop", "jump", "djnz", "call", "ret",
}


#: The head of a self-loop's text.
LOOP = "def _tr(cpu, memory, _n=0, _t=0):"


@pytest.fixture
def emitted(monkeypatch):
    """Every translation's ``(bound names, source)``, as emitted: the
    straight-line text and the self-loop text alike."""
    seen = []
    source = fastcore._Translation.source
    self_loop = fastcore._Translation.self_loop

    def spy(translation):
        text = source(translation)
        seen.append((set(translation.ns), text))
        return text

    def loop_spy(translation, start):
        text = self_loop(translation, start)
        if text is not None:
            seen.append((set(translation.ns), text))
        return text

    monkeypatch.setattr(fastcore._Translation, "source", spy)
    monkeypatch.setattr(fastcore._Translation, "self_loop", loop_spy)
    return seen


def _locals(text: str) -> set[str]:
    """The names the translated function ``_tr`` assigns."""
    [function] = ast.parse(text).body
    return {arg.arg for arg in function.args.args} | {
        node.id for node in ast.walk(function)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)}


def _assert_no_clash(emitted):
    assert emitted
    bound = set().union(*(names for names, _ in emitted))
    assigned = set().union(*(_locals(text) for _, text in emitted))
    assert not bound & assigned


def _instructions():
    """Every unprefixed, CB and ED opcode with two operand bytes, once
    per :data:`WORDS` entry (an opcode takes the bytes it needs)."""
    return [bytes(prefix) + bytes([opcode, word & 0xFF, word >> 8])
            for prefix in ((), (0xCB,), (0xED,))
            for opcode in range(256) for word in WORDS]


def test_e10_translations_bind_no_template_local(emitted):
    measure_widths()
    loops = [text for _, text in emitted if text.startswith(LOOP)]
    assert loops and all("    _rh = cpu.h" in text for text in loops)
    _assert_no_clash(emitted)


def test_every_template_kind_binds_no_template_local(emitted):
    """A shuffled stream of every opcode, translated from each
    instruction's start: each template in many neighbourhoods."""
    board = Board()
    cache = BlockCache(board.cpu)
    instructions = _instructions()
    random.Random(39).shuffle(instructions)
    board.memory.load_flash(b"".join(instructions), 0)
    starts = [0]
    for instruction in instructions[:-1]:
        starts.append(starts[-1] + len(instruction))
    tagged = set()
    for pc in starts:
        op, _, _ = _decode_one(board.memory, pc, 0xE000, set())
        if hasattr(op, "_tmpl"):
            tagged.add(op._tmpl[0])
        cache.translate(pc, cache.build_block(pc, pc))
    translated = {op._tmpl[0] for pc in starts
                  for op in cache.blocks[pc][0] if hasattr(op, "_tmpl")}
    assert translated == tagged == KINDS
    _assert_no_clash(emitted)


def test_every_self_loop_binds_no_template_local(emitted):
    """Each register-only template as the body of a ``djnz`` and of a
    ``dec c; jr nz`` self-loop: every one translates to loop text."""
    board = Board()
    memory = board.memory
    bodies = []
    for instruction in _instructions():
        memory.load_flash(instruction, 0)
        op, length, _ = _decode_one(memory, 0, 0xE000, set())
        t = getattr(op, "_tmpl", None)
        source = t and _register_source(*t[:3])
        if source and not any("cpu._" in line for line in source):
            bodies.append(instruction[:length])
    code, heads = b"", []
    for body in bodies:
        for tail in (b"\x10", b"\x0d\x20"):     # djnz / dec c; jr nz
            heads.append(0x100 + len(code))
            loop = body + tail
            code += loop + bytes([-(len(loop) + 1) & 0xFF])
    memory.load_flash(code, 0x100)
    cache = BlockCache(board.cpu)
    for pc in heads:
        cache.translate(pc, cache.build_block(pc, pc))
        assert cache.blocks[pc][4], hex(pc)
    assert len(heads) == sum(text.startswith(LOOP)
                             for _, text in emitted) > 200
    _assert_no_clash(emitted)
