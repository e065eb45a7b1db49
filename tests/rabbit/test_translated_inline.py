"""The translated tier runs the compiler's stack-machine classes inline.

A loop made only of the templated classes -- ``push``/``pop``,
``ld hl,(nn)``/``ld (nn),hl``, ``add hl,rp``, ``ex de,hl``, CB shifts,
``ld rp,nn``, ``inc``/``dec rp``, and the ``call``/``ret``/``djnz`` that
end its blocks -- must run without a single Python call out of the
translated functions while SP sits in the data segment.  With SP in the
bank window, or where a two-byte stack access straddles 0xDFFF, the
same blocks fall back to their closures and still match the step core
exactly.
"""

from __future__ import annotations

import sys

import pytest

from repro.rabbit.asm import assemble
from repro.rabbit.board import Board
from repro.rabbit.cpu import CpuError
from repro.rabbit.fastcore import BlockCache
from tests.rabbit.test_fastpath import _machine_state

STACK_MACHINE = """
        org 0
loop:   push hl
        ld   hl, (0xC010)
        pop  de
        add  hl, de
        ex   de, hl
        ld   (0xC012), hl
        srl  h
        rr   l
        inc  bc
        dec  de
        ld   de, 0x1234
        call sub
        djnz loop
        halt
sub:    ret
"""

#: Three passes of the 14 instructions the loop runs per pass.
BUDGET = 3 * 14


def _run(fast: bool, sp: int):
    """Run the loop's three passes; returns the Python calls the
    translated functions made, the run's outcome and the machine."""
    board = Board()
    cpu = board.cpu
    cpu.use_fast_core = fast
    if fast:
        cpu._cache = BlockCache(cpu)
        cpu._cache.translate_threshold = 1
    board.program(assemble(STACK_MACHINE).code)
    board.memory.load_sram(bytes(range(0x40)))
    cpu.b, cpu.h, cpu.l, cpu.sp = 3, 0x8F, 0x35, sp
    calls = []

    def watch(frame, event, _arg):
        caller = frame if event == "c_call" else frame.f_back
        if event in ("call", "c_call") and caller is not None \
                and caller.f_code.co_name == "_tr":
            calls.append(frame.f_code.co_name)

    sys.setprofile(watch)
    try:
        cpu.run(max_instructions=BUDGET)
    except CpuError as exc:     # the budget ends the run before HALT
        outcome = str(exc)
    finally:
        sys.setprofile(None)
    return calls, outcome, board


def test_stack_machine_loop_runs_without_closure_calls():
    calls, outcome, board = _run(True, 0xD000)
    cache = board.cpu._cache
    assert cache.translated_blocks == 3     # loop+call, ret, djnz
    assert cache.translated_execs == 9
    assert calls == []
    step_calls, step_outcome, step_board = _run(False, 0xD000)
    assert outcome == step_outcome == f"exceeded {BUDGET} instructions"
    assert _machine_state(board) == _machine_state(step_board)


@pytest.mark.parametrize("sp", [0xE800, 0xE001],
                         ids=["window", "straddles-0xdfff"])
def test_off_segment_stack_falls_back_to_the_closures(sp):
    calls, outcome, board = _run(True, sp)
    assert board.cpu._cache.translated_execs == 9
    assert calls                            # the closures ran
    _, step_outcome, step_board = _run(False, sp)
    assert outcome == step_outcome
    assert _machine_state(board) == _machine_state(step_board)


def _run_sram(source: str, fast: bool) -> Board:
    """Assemble ``source`` into the data segment at 0xC100 and run it to
    its HALT, on the step core or entering the translated tier at once."""
    board = Board()
    cpu = board.cpu
    cpu.use_fast_core = fast
    if fast:
        cpu._cache = BlockCache(cpu)
        cpu._cache.translate_threshold = 1
    assembly = assemble(source, origin=0xC100)
    board.memory.load_sram(assembly.code, 0x100)
    cpu.pc = 0xC100
    cpu.run(max_instructions=1000)
    assert cpu.halted
    return board


# The push's two bytes overwrite the `ld b, 0x11` after it in the same
# block; the translated function must stop there, like the closure list.
PUSH_ONTO_RUNNING_BLOCK = """
        ld   sp, patch + 2
        ld   hl, 0x2206         ; L = opcode of `ld b, n`, H = 0x22
        push hl
patch:  ld   b, 0x11
        ld   a, b
        halt
"""

# A two-byte write at 0xC1FF straddles two pages; only its high byte
# lands on the page of `target`, which has already been translated.
STRADDLING_WRITE = """
        call target
        ld   hl, 0x06FF         ; H = opcode of `ld b, n`
        {write}
        ld   sp, 0xD000
        call target
        halt
        org  0xC200
target: ld   a, 0x11
        ret
"""


def test_push_onto_the_running_block_stops_it():
    fast, step = (_run_sram(PUSH_ONTO_RUNNING_BLOCK, f) for f in (True, False))
    assert fast.cpu.a == 0x22
    assert fast.cpu._cache.invalidated_smc == 1
    assert _machine_state(fast) == _machine_state(step)


@pytest.mark.parametrize("write", ["ld sp, 0xC201\n        push hl",
                                   "ld (0xC1FF), hl"], ids=["push", "store"])
def test_page_straddling_write_invalidates_the_second_page(write):
    source = STRADDLING_WRITE.format(write=write)
    fast, step = (_run_sram(source, f) for f in (True, False))
    assert (fast.cpu.a, fast.cpu.b) == (0x11, 0x11)   # the rewritten target
    assert fast.cpu._cache.invalidated_smc >= 1
    assert _machine_state(fast) == _machine_state(step)
