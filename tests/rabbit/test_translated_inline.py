"""The translated tier runs the compiler's stack-machine classes inline.

A loop made only of the templated classes -- ``push``/``pop``,
``ld hl,(nn)``/``ld (nn),hl``, ``add hl,rp``, ``ex de,hl``, CB shifts,
``ld rp,nn``, ``inc``/``dec rp``, and the ``call``/``ret``/``djnz`` that
end its blocks -- must run without a single Python call out of the
translated functions while SP sits in the data segment.  With SP in the
bank window, or where a two-byte stack access straddles 0xDFFF, the
same blocks fall back to their closures and still match the step core
exactly.

A block's bookkeeping commits once, at its tail or at a ``bail`` exit;
a stack access off the data segment commits around its closure.  The
commit-around tests end such a block in a bail or a fault and compare
it with the step core and with the closure-list tier, and every
closure class that can fault is pinned to stop where the step core
does: PC past the instruction, R bumped.  ``adc``/``sbc
hl,rp`` and ED ``ld rp,(nn)`` are pinned on edge operands and
addresses.
"""

from __future__ import annotations

import sys

import pytest

from repro.rabbit.asm import assemble
from repro.rabbit.board import Board
from repro.rabbit.cpu import CpuError
from repro.rabbit.fastcore import BlockCache
from repro.rabbit.memory import MemoryError_
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


def _board(threshold: int | None) -> Board:
    """A board on the step core (``threshold`` None) or on the fast core
    entering the translated tier after ``threshold`` dispatches."""
    board = Board()
    cpu = board.cpu
    cpu.use_fast_core = threshold is not None
    if threshold is not None:
        cpu._cache = BlockCache(cpu)
        cpu._cache.translate_threshold = threshold
    return board


def _watched(run):
    """Call ``run()``; returns the names of the Python functions the
    translated functions called, and its result or exception (type and
    message)."""
    calls = []

    def watch(frame, event, _arg):
        caller = frame if event == "c_call" else frame.f_back
        if event in ("call", "c_call") and caller is not None \
                and caller.f_code.co_name == "_tr":
            calls.append(frame.f_code.co_name)

    sys.setprofile(watch)
    try:
        outcome = run()
    except (CpuError, MemoryError_) as exc:
        outcome = (type(exc).__name__, str(exc))
    finally:
        sys.setprofile(None)
    return calls, outcome


def _run(fast: bool, sp: int):
    """Run the loop's three passes; returns the Python calls the
    translated functions made, the run's outcome and the machine."""
    board = _board(1 if fast else None)
    cpu = board.cpu
    board.program(assemble(STACK_MACHINE).code)
    board.memory.load_sram(bytes(range(0x40)))
    cpu.b, cpu.h, cpu.l, cpu.sp = 3, 0x8F, 0x35, sp
    # The budget ends the run before HALT.
    calls, outcome = _watched(lambda: cpu.run(max_instructions=BUDGET))
    return calls, outcome, board


def test_stack_machine_loop_runs_without_closure_calls():
    calls, outcome, board = _run(True, 0xD000)
    cache = board.cpu._cache
    assert cache.translated_blocks == 3     # loop+call, ret, djnz
    assert cache.translated_execs == 9
    assert calls == []
    step_calls, step_outcome, step_board = _run(False, 0xD000)
    assert outcome == step_outcome == (
        "CpuError", f"exceeded {BUDGET} instructions")
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
    board = _board(1 if fast else None)
    cpu = board.cpu
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


# One block: two pops with SP in root flash take their cold arm (commit
# the run, call the closure, take the run back), hot templates follow,
# then the ending either bails or faults.  Pops read a fixed pattern.
COMMIT_AROUND = """
        ld   hl, 0x1234
        ld   sp, 0x0200         ; root flash: the cold arm
        pop  de
        pop  af
        ld   sp, 0xD000         ; the data segment: hot from here on
        push de
        ld   hl, (0xC010)
        pop  bc
        add  hl, bc
        sbc  hl, de
        ld   bc, (0xC012)
        ex   de, hl
        {ending}
        ld   a, 0x11
        halt
"""

#: Endings, with the XPC they run at and the calls the translated
#: functions make: the cold pops' closures (``op``), then the bailing
#: store's ``code_written`` and the next block's HALT, or the faulting
#: closure.
ENDINGS = {
    # LD (nn),HL onto the block's own page: inline, then bail.
    "store-bail": ("ld (0xC1F0), hl", 0x80,
                   ["op", "op", "code_written", "_step_op"]),
    # PUSH with SP in the window onto the block's own page: cold, bail.
    "push-bail": ("ld sp, 0xE1F2\n        push hl", 0x80,
                  ["op", "op", "op", "_step_op"]),
    # LD (nn),HL into flash: the closure raises.
    "store-fault": ("ld (0x0300), hl", 0x80, ["op", "op", "op"]),
    # PUSH straddling into root flash: the cold arm's closure raises.
    "push-fault": ("ld sp, 0xC001\n        push hl", 0x80,
                   ["op", "op", "op"]),
    # POP whose high byte is unpopulated: no register moves.
    "pop-fault": ("ld sp, 0xDFFF\n        pop bc", 0xA0, ["op", "op", "op"]),
}


def _commit_around(ending: str, threshold: int | None):
    source, xpc, _ = ENDINGS[ending]
    board = _board(threshold)
    cpu, memory = board.cpu, board.memory
    memory.load_flash(bytes(range(7, 256, 3)) * 8, 0x200)
    memory.load_sram(bytes(range(0x40)))
    code = assemble(COMMIT_AROUND.format(ending=source), origin=0xC100)
    memory.load_sram(code.code, 0x100)
    memory.xpc = xpc
    cpu.pc = 0xC100
    calls, outcome = _watched(lambda: cpu.run(max_instructions=1000))
    return calls, outcome, board


@pytest.mark.parametrize("ending", list(ENDINGS))
def test_cold_arms_commit_around_the_closure(ending):
    """Committed plus pending bookkeeping equals the step core's at the
    bail, at the fault and at the end, at either threshold."""
    calls, outcome, fast = _commit_around(ending, 1)
    assert calls == ENDINGS[ending][2]
    _, outcome_64, fast_64 = _commit_around(ending, 64)
    _, step_outcome, step = _commit_around(ending, None)
    assert outcome == outcome_64 == step_outcome
    cache, cache_64 = fast.cpu._cache, fast_64.cpu._cache
    assert cache.executed_blocks == cache_64.executed_blocks
    assert cache.translated_execs == cache.executed_blocks
    assert cache_64.translated_execs == 0
    # PC and R included: a fault leaves them past the instruction, bumped.
    assert _machine_state(fast) == _machine_state(fast_64) \
        == _machine_state(step)
    if ending.endswith("fault"):
        assert outcome[0] == "MemoryError_"
    else:
        assert cache.invalidated_smc == 1 and fast.cpu.a == 0x11


#: One faulting instruction per closure class that touches data memory,
#: after its set-up.  XPC 0xA0 leaves the bank window unpopulated, and
#: root flash is read-only.
FAULTS = {
    "store": ("ld a, 0x11", "ld (0x0300), a"),              # _op_mem
    "mhl-read": ("ld hl, 0xE000", "ld a, (hl)"),
    "mhl-write": ("ld hl, 0x0300", "ld (hl), a"),
    "ldir": ("ld de, 0x0300", "ldir"),                      # _op_ed_block
    "call": ("ld sp, 0x0302", "call 0x1234"),
    "rst": ("ld sp, 0x0302", "rst 0x28"),                   # _op_call
    "ret": ("ld sp, 0xE000", "ret"),
    "ret-cc": ("ld sp, 0xE000\n        scf", "ret c"),
    "push": ("ld sp, 0x0302", "push bc"),
    "pop": ("ld sp, 0xE000", "pop bc"),
}


def _fault(name: str, threshold: int | None):
    setup, instruction = FAULTS[name]
    board = _board(threshold)
    cpu = board.cpu
    code = assemble(f"""
        ld   bc, 4
        {setup}
        {instruction}
after:  halt
""", origin=0xC100)
    board.memory.load_sram(code.code, 0x100)
    board.memory.xpc = 0xA0
    cpu.pc = 0xC100
    _, outcome = _watched(lambda: cpu.run(max_instructions=100))
    return outcome, _machine_state(board), code.symbol("after")


@pytest.mark.parametrize("name", list(FAULTS))
def test_a_fault_stops_where_the_step_core_does(name):
    """PC past the faulting instruction and R bumped, its cycles and
    count not charged: the same on every tier as on the step core."""
    step = _fault(name, None)
    assert step[0][0] == "MemoryError_"
    assert step[1]["regs"][19] == step[2]            # PC at `after`
    assert _fault(name, 1) == _fault(name, 64) == step


#: Edge operands for the 16-bit arithmetic templates.
EDGES = (0x0000, 0x0001, 0x7FFF, 0x8000, 0xFFFF)
_PAIRS = ("bc", "de", "hl", "sp")


def _adc_sbc_program(op: str, pair: str) -> str:
    """Every edge case of ``op hl, pair``: F loaded whole through
    ``pop af`` (carry in 0 with every other flag set, or carry in 1
    alone), the result and F saved to the data segment."""
    lines = ["        org 0"]
    saved = 0xC100
    for hl in EDGES:
        for rp in (EDGES if pair != "hl" else (hl,)):
            for flags in (0xFE, 0x01):
                lines += ["ld sp, 0xD800", f"ld bc, {flags:#x}",
                          "push bc", "pop af", f"ld hl, {hl:#x}"]
                if pair != "hl":
                    lines.append(f"ld {pair}, {rp:#x}")
                lines += [f"{op} hl, {pair}", f"ld ({saved:#x}), hl",
                          f"ld sp, {saved + 4:#x}", "push af"]
                saved += 4
    return "\n        ".join(lines + ["halt"])


def _translated_run(source: str, threshold: int | None):
    """Run ``source`` from 0 to its HALT over patterned flash and SRAM;
    returns the calls out of the translated functions and the board."""
    board = _board(threshold)
    board.program(assemble(source).code)
    board.memory.load_flash(bytes(range(7, 256, 3)), 0x2000)
    board.memory.load_sram(bytes(range(7, 256, 3)) * 8)
    cpu = board.cpu
    calls, _ = _watched(lambda: cpu.run(max_instructions=5000))
    assert cpu.halted
    return calls, board


@pytest.mark.parametrize("pair", _PAIRS)
@pytest.mark.parametrize("op", ["adc", "sbc"])
def test_adc_sbc_hl_templates_match_the_step_core(op, pair):
    source = _adc_sbc_program(op, pair)
    calls, fast = _translated_run(source, 1)
    _, step = _translated_run(source, None)
    assert fast.cpu._cache.translated_execs > 0
    assert calls == ["_step_op"]            # the HALT
    assert _machine_state(fast) == _machine_state(step)


#: LD rp,(nn) sources: a word in root flash, one in the data segment
#: (both inline), and the two segment edges (the closure).
LOAD_ADDRESSES = {"root": (0x2010, True), "data": (0xC123, True),
                  "0xbfff": (0xBFFF, False), "0xdfff": (0xDFFF, False)}

#: How each loaded pair is saved to the data segment, inline.
SAVE = {"bc": ["push bc"], "de": ["push de"], "hl": ["ld (0xC100), hl"],
        "sp": ["ld hl, 0", "add hl, sp", "ld sp, 0xD800", "push hl"]}


@pytest.mark.parametrize("where", list(LOAD_ADDRESSES))
def test_ld_rp_nn_indirect_template_matches_the_step_core(where):
    address, inline = LOAD_ADDRESSES[where]
    lines = ["org 0", "ld sp, 0xD800"]
    for index, pair in enumerate(_PAIRS):
        # ED 4B/5B/6B/7B: the ED form for HL too.
        lines.append(f"db 0xED, {0x4B | index << 4:#x}, "
                     f"{address & 0xFF:#x}, {address >> 8:#x}")
        lines += SAVE[pair]
    source = "\n        ".join(lines + ["halt"])
    calls, fast = _translated_run(source, 1)
    _, step = _translated_run(source, None)
    if inline:
        assert calls == ["_step_op"]        # the HALT
    else:
        assert calls.count("op") == len(_PAIRS)
    assert _machine_state(fast) == _machine_state(step)
