"""The translated tier compiles each distinct text once per process.

``BlockCache.translate`` looks its source up by the block key, the
text's length and its SHA-256 digest before compiling (the memo holds
no text).  Two boards that load the same firmware translate the
same block into functions that share one code object but nothing else:
each binds its own board's cache, memory and closures.  A block whose
text differs at the same key gets code of its own, and every function's
code keeps the ``<translated:0x...>`` filename of its block's key.  The
memo starts over when it is full.
"""

from __future__ import annotations

import pytest

from repro.rabbit import fastcore
from repro.rabbit.asm import assemble
from repro.rabbit.cpu import CpuError
from tests.rabbit.test_fastpath import _machine_state
from tests.rabbit.test_translated_inline import (
    BUDGET,
    STACK_MACHINE,
    _board,
)


def _translated(source: str):
    """Run ``source`` on a fresh board entering the translated tier at
    once; returns the board and its translated functions by key."""
    board = _board(1)
    board.program(assemble(source).code)
    board.memory.load_sram(bytes(range(0x40)))
    cpu = board.cpu
    cpu.b, cpu.h, cpu.l, cpu.sp = 3, 0x8F, 0x35, 0xD000
    with pytest.raises(CpuError):   # the budget ends the run before HALT
        cpu.run(max_instructions=BUDGET)
    functions = {key: block[3] for key, block in cpu._cache.blocks.items()
                 if block[3] is not None}
    assert functions
    return board, functions


def test_same_firmware_shares_code_not_namespaces():
    first, first_functions = _translated(STACK_MACHINE)
    second, second_functions = _translated(STACK_MACHINE)
    assert first_functions.keys() == second_functions.keys()
    for key, fn in first_functions.items():
        other = second_functions[key]
        assert fn.__code__ is other.__code__
        assert fn.__globals__ is not other.__globals__
        assert fn.__globals__["_c"] is first.cpu._cache
        assert other.__globals__["_c"] is second.cpu._cache
        assert fn.__globals__["_S"] is first.memory.sram
        assert other.__globals__["_S"] is second.memory.sram
        assert fn.__code__.co_filename == f"<translated:{key:#x}>"
    assert _machine_state(first) == _machine_state(second)


def test_different_text_at_the_same_key_gets_its_own_code():
    _, functions = _translated(STACK_MACHINE)
    changed = STACK_MACHINE.replace("ld   de, 0x1234", "ld   de, 0x4321")
    _, changed_functions = _translated(changed)
    # The loop's first block holds the changed constant; the others
    # (the RET and the DJNZ blocks) are the same text at the same key.
    assert functions.keys() == changed_functions.keys()
    differ = [key for key in functions
              if functions[key].__code__ is not changed_functions[key].__code__]
    assert differ == [0]
    code = changed_functions[0].__code__
    assert code.co_filename == functions[0].__code__.co_filename \
        == "<translated:0x0>"


def test_the_memo_starts_over_at_its_limit(monkeypatch):
    monkeypatch.setattr(fastcore, "_COMPILED", {})
    monkeypatch.setattr(fastcore, "_COMPILED_LIMIT", 2)
    board, functions = _translated(STACK_MACHINE)
    assert len(functions) == 3
    assert len(fastcore._COMPILED) == 1     # the third compile cleared it
    reference, _ = _translated(STACK_MACHINE)
    assert _machine_state(board) == _machine_state(reference)
