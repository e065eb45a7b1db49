"""CycleProfiler on the fast core vs the single-step core.

With ``use_fast_core = False`` every unit the dispatch loop hands the
profiler is one instruction, which is the per-instruction attribution
the block-level profiler has to reproduce.  Each input runs once per
core, and the fast core runs at translate threshold 1 (every block
translated) and 64 (the default tiers).  The profiles -- self cycles,
instruction counts, call counts, collapsed stacks -- and the CPU spans
must be equal.

The inputs cover what can go wrong at block granularity: routines that
fall through into the next one, conditional calls and returns whose
transfer is decided by F, a taken CALL cc whose target is the next
instruction (so PC alone cannot tell it transferred), RST, interrupt
acknowledge, a self-modifying store that cuts a block short, and one
bank-window address whose last instruction differs by XPC.
"""

from __future__ import annotations

import pytest

from repro.obs import Obs
from repro.obs.profile import (
    CycleProfiler,
    assembly_function_symbols,
    compiled_function_symbols,
)
from repro.rabbit.asm import assemble
from repro.rabbit.board import Board
from repro.rabbit.fastcore import BlockCache
from repro.rabbit.programs.aes_asm import AesAsm, build_aes_asm
from repro.rabbit.programs.aes_c import AesC, build_aes_c
from tests.obs.test_profile import INTERRUPTED

KEY = bytes.fromhex("000102030405060708090a0b0c0d0e0f")
BLOCK = bytes.fromhex("00112233445566778899aabbccddeeff")


def _aes(implementation):
    def setup(board):
        if implementation == "c":
            impl = AesC(board, build_aes_c(include_decrypt=False))
            symbols = compiled_function_symbols(impl.program.compilation)
        else:
            impl = AesAsm(board, build_aes_asm(include_decrypt=False))
            symbols = assembly_function_symbols(impl.assembly)

        def run():
            impl.set_key(KEY)
            impl.encrypt_block(BLOCK)
            impl.encrypt_block(bytes(16))
        return symbols, run
    return setup


def _flash_stub(source, drive=None):
    """Burn ``source`` at 0 and profile every label in it."""
    def setup(board):
        assembly = assemble(source)
        board.program(assembly.code)

        def run():
            if drive is None:
                board.cpu.call_subroutine(assembly.symbols["main"])
            else:
                drive(board.cpu, assembly.symbols)
        return dict(assembly.symbols), run
    return setup


FALL_THROUGH = """
        org  0
main:   ld   a, 3
        call first
        call second
        ret
first:  ld   b, a          ; no RET: runs on into second
        inc  b
second: dec  b
        jr   nz, second
        ret
"""

TRANSFERS = """
        org  0
        jp   main
        org  8
rst8:   inc  a
        ret
        org  0x40
main:   xor  a             ; A=0: Z set, C clear
        call nz, leaf      ; not taken
        call z, next       ; taken; the target is the next instruction
next:   rst  8
        call c, leaf       ; not taken
        call leaf2
        ret                ; first pass returns into next
leaf:   ret
leaf2:  or   a             ; NZ
        ret  z             ; not taken
        ret  nz            ; taken
"""


def _interrupt_work(cpu, symbols):
    """Interrupt ``work``'s loop, as ``TestInterrupts`` does."""
    cpu._push(0xFFFF)
    cpu.run_cycles(40)
    cpu.request_interrupt(symbols["isr"])
    cpu.run_cycles(300)
    while cpu.pc != 0xFFFF:
        cpu.run_cycles(1)


# Runs from SRAM (flash is write-protected).  The store patches the
# operand of the next instruction, in the same block as the CALL after
# it, so the block is cut short by an SMC bail before its CALL.
SELF_MODIFYING = """
entry:  ld   c, 2
        ld   a, 0x22
loop:   ld   (patch + 1), a
patch:  ld   b, 0x11
        call sub
        dec  c
        jp   nz, loop
        ret
sub:    ld   a, b
        ret
"""


def _smc(board):
    assembly = assemble(SELF_MODIFYING, origin=0xC100)
    board.memory.load_sram(assembly.code, 0x100)
    symbols = {name: assembly.symbols[name] for name in ("entry", "sub")}

    def run():
        board.cpu.call_subroutine(symbols["entry"])
    return symbols, run


# One bank-window address, two XPC mappings: under XPC 0x80 the block
# at 0xE000 ends in RET, under 0x81 the same addresses end in a JP, so
# what its last instruction does depends on XPC, not just on PC.
WINDOW_ROOT = """
        org  0
main:   ld   a, 0x80
        ld   xpc, a
        call 0xE000
        ld   a, 0x81
        ld   xpc, a
        call 0xE000
        ret
"""
WINDOW_BANKS = {
    0x0000: "bank:   nop\n        nop\n        nop\n        ret",
    0x1000: "bank:   nop\n        nop\n        nop\n        jp   0xE100\n"
            "        org  0xE100\nbankret: ret",
}


def _window(board):
    assembly = assemble(WINDOW_ROOT)
    board.program(assembly.code)
    symbols = {"main": assembly.symbols["main"], "bank": 0xE000}
    for offset, source in WINDOW_BANKS.items():
        bank = assemble("        org  0xE000\n" + source, origin=0xE000)
        board.memory.load_sram(bank.code, offset)

    def run():
        board.cpu.call_subroutine(symbols["main"])
    return symbols, run


INPUTS = {
    "aes_c": _aes("c"),
    "aes_asm": _aes("asm"),
    "fall_through": _flash_stub(FALL_THROUGH),
    "transfers": _flash_stub(TRANSFERS),
    "interrupt": _flash_stub(INTERRUPTED, drive=_interrupt_work),
    "smc": _smc,
    "window": _window,
}


def _profile(setup, fast: bool) -> tuple[dict, Board]:
    board = Board()
    board.cpu.use_fast_core = fast
    symbols, run = setup(board)
    obs = Obs()
    profiler = CycleProfiler(board.cpu, symbols, tracer=obs.tracer)
    start = board.cpu.cycles
    with profiler:
        run()
    assert profiler.total_cycles == board.cpu.cycles - start
    return {
        "self_cycles": profiler.self_cycles,
        "instruction_counts": profiler.instruction_counts,
        "call_counts": profiler.call_counts,
        "collapsed": profiler.collapsed,
        "spans": [(span.name, span.start, span.end, span.args)
                  for span in obs.tracer.spans],
    }, board


@pytest.mark.parametrize("threshold", [1, 64])
@pytest.mark.parametrize("name", sorted(INPUTS))
def test_block_profile_equals_step_profile(monkeypatch, name, threshold):
    monkeypatch.setattr(BlockCache, "translate_threshold", threshold)
    step_profile, _board = _profile(INPUTS[name], fast=False)
    fast_profile, board = _profile(INPUTS[name], fast=True)
    assert fast_profile == step_profile
    assert board.cpu._cache.executed_blocks > 0
    if threshold == 1:
        assert board.cpu._cache.translated_execs > 0


def test_inputs_reach_every_transfer_kind():
    """The stubs exercise what their comments claim, on the step core."""
    profile, _board = _profile(INPUTS["transfers"], fast=False)
    assert profile["call_counts"] == {
        "next": 1, "rst8": 2, "leaf2": 2,
    }
    profile, _board = _profile(INPUTS["fall_through"], fast=False)
    assert profile["instruction_counts"]["second"] > 2
    assert profile["call_counts"] == {"first": 1, "second": 1}
    profile, board = _profile(INPUTS["smc"], fast=True)
    assert profile["call_counts"] == {"sub": 2}
    assert board.cpu._cache.invalidated_smc > 0
    profile, _board = _profile(INPUTS["interrupt"], fast=False)
    assert profile["call_counts"] == {"work": 1, "isr": 1}
    profile, _board = _profile(INPUTS["window"], fast=False)
    assert profile["call_counts"] == {"bank": 2}
    assert profile["collapsed"].keys() == {"main", "main;bank"}
