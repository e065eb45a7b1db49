"""No name bound into a translated block's namespace is a template local.

A translated function reads its closures (``_o*``, ``_b*``), its
memory views (``_S``, ``_F``, ``_P``), its cache (``_c``), the cold-arm
helpers (``_commit``, ``_around``) and their runs (``_run*``) as
globals.  A template that assigns the same name anywhere in the
function makes it a local throughout, and the global read fails at run
time (``UnboundLocalError``, or a call on an int) -- but only when the
arm that reads it runs.  This test catches such a clash when the text is
built: it scans the sources the translator emits for the E10 firmware
and for a stream of every opcode the decoder tags as a template.
"""

from __future__ import annotations

import ast
import random

import pytest

from repro.experiments.e10_rsa import measure_widths
from repro.rabbit import fastcore
from repro.rabbit.board import Board
from repro.rabbit.fastcore import BlockCache, _decode_one

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


@pytest.fixture
def emitted(monkeypatch):
    """Every translation's ``(bound names, source)``, as emitted."""
    seen = []
    source = fastcore._Translation.source

    def spy(translation):
        text = source(translation)
        seen.append((set(translation.ns), text))
        return text

    monkeypatch.setattr(fastcore._Translation, "source", spy)
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
