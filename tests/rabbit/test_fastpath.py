"""Fast-core equivalence: block-cached dispatch vs the single-step core.

The predecoded basic-block cache (``repro.rabbit.fastcore``) must be
observationally identical to the per-step fetch/decode path: same final
registers, same memory image, same cycle/instruction/read/write/wait
counters, on every workload.  These tests run the same firmware under
both cores and diff the complete machine state, plus the cases that can
only go wrong in a block cache: self-modifying code (also inside the
translated tier), resuming a run its budget stopped, reprogramming
flash, and the profiler riding the block listener.

The paper's Figure 3 redirector exists in this repo as Dynamic C
*source* (``repro.rabbit.programs.redirector_dc``, parsed by dclint,
never lowered to machine code), so the interrupt-driven firmware that
stands in for it on the emulated board is the Section 5.1 serial debug
monitor -- the one real firmware with an ISR, I/O, and a main loop.
"""

from __future__ import annotations

import ast
import inspect
from pathlib import Path

import pytest

from repro.rabbit import cpu as cpu_module
from repro.rabbit.asm import assemble
from repro.rabbit.board import Board
from repro.rabbit.cpu import Cpu, CpuError
from repro.rabbit.fastcore import BlockCache
from repro.rabbit.programs.aes_asm import AesAsm, build_aes_asm
from repro.rabbit.programs.serial_debug import SerialDebugMonitor

KEY = bytes.fromhex("000102030405060708090a0b0c0d0e0f")
BLOCK = bytes.fromhex("00112233445566778899aabbccddeeff")


def _machine_state(board: Board) -> dict:
    """The complete observable machine state, for exact comparison."""
    cpu, memory = board.cpu, board.memory
    return {
        "regs": (cpu.a, cpu.f, cpu.b, cpu.c, cpu.d, cpu.e, cpu.h, cpu.l,
                 cpu.a2, cpu.f2, cpu.b2, cpu.c2, cpu.d2, cpu.e2,
                 cpu.h2, cpu.l2, cpu.ix, cpu.iy, cpu.sp, cpu.pc,
                 cpu.i, cpu.r, cpu.iff1, cpu.iff2, cpu.im, cpu.halted),
        "cycles": cpu.cycles,
        "instructions": cpu.instructions,
        "reads": memory.reads,
        "writes": memory.writes,
        "wait_cycles": memory.wait_cycles,
        "xpc": memory.xpc,
        "flash": bytes(memory.flash),
        "sram": bytes(memory.sram),
    }


def _aes_workload(board: Board) -> list:
    """Key schedule + encrypt + decrypt on the emulated board."""
    aes = AesAsm(board, build_aes_asm())
    outputs = []
    aes.set_key(KEY)
    outputs.append(aes.encrypt_block(BLOCK))
    outputs.append(aes.decrypt_block(outputs[0][0]))
    return outputs


def _serial_workload(board: Board) -> list:
    """Boot the serial monitor and drive its ISR (Section 5.1)."""
    monitor = SerialDebugMonitor(board)
    monitor.boot()
    outputs = []
    for command in (b"s", b"r", b"s", b"R", b"s"):
        outputs.append(monitor.send_command(command))
    outputs.append((monitor.counter, monitor.saved_counter))
    outputs.append(monitor.interrupt_latency())
    return outputs


@pytest.mark.parametrize("workload", [_aes_workload, _serial_workload],
                         ids=["aes_asm", "serial_monitor"])
def test_cores_observationally_identical(workload):
    fast_board, slow_board = Board(), Board()
    slow_board.cpu.use_fast_core = False
    fast_outputs = workload(fast_board)
    slow_outputs = workload(slow_board)
    assert fast_outputs == slow_outputs
    assert _machine_state(fast_board) == _machine_state(slow_board)
    # The fast run must actually have taken the fast path.
    cache = fast_board.cpu._cache
    assert cache is not None and cache.executed_blocks > 0
    assert slow_board.cpu._cache is None


# Runs from SRAM (flash is write-protected): the store patches the
# operand of an instruction *ahead* of it in the same straight-line
# run, so a block cache that misses the write executes the stale
# `ld b, 0x11` image.  The loop runs twice so the patched copy is also
# re-dispatched from a rebuilt block.
SELF_MODIFYING = """
entry:  ld   c, 2           ; two passes
        ld   a, 0x22        ; patch operand
loop:   ld   (patch + 1), a ; self-modifying store, same 256-byte page
patch:  ld   b, 0x11        ; operand is overwritten to 0x22
        ld   a, b
        dec  c
        jp   nz, loop
        ld   (0xC050), a    ; park the result for the harness
        halt
"""

STUB_BASE = 0xC100  # logical; SRAM physical offset 0x100


def _load_stub(board: Board):
    assembly = assemble(SELF_MODIFYING, origin=STUB_BASE)
    board.memory.load_sram(assembly.code, STUB_BASE - 0xC000)
    return assembly


def test_self_modifying_code_invalidates_blocks():
    fast_board, slow_board = Board(), Board()
    slow_board.cpu.use_fast_core = False
    for board in (fast_board, slow_board):
        assembly = _load_stub(board)
        with pytest.raises(CpuError, match="HALT"):
            board.cpu.call_subroutine(assembly.symbols["entry"],
                                      max_instructions=200)
    assert fast_board.memory.sram[0x50] == 0x22  # patched value won
    assert _machine_state(fast_board) == _machine_state(slow_board)
    cache = fast_board.cpu._cache
    assert cache.executed_blocks > 0
    # The store landed on a watched code page and dropped its blocks.
    assert cache.decoded_blocks > len(cache.blocks)


def test_smc_invalidation_fires_in_translated_tier(monkeypatch):
    # Promote every block on first execution so the self-modifying
    # store lands while the translated code object is live.
    monkeypatch.setattr(BlockCache, "translate_threshold", 1)
    fast_board, slow_board = Board(), Board()
    slow_board.cpu.use_fast_core = False
    for board in (fast_board, slow_board):
        assembly = _load_stub(board)
        with pytest.raises(CpuError, match="HALT"):
            board.cpu.call_subroutine(assembly.symbols["entry"],
                                      max_instructions=200)
    assert fast_board.memory.sram[0x50] == 0x22  # patched value won
    assert _machine_state(fast_board) == _machine_state(slow_board)
    cache = fast_board.cpu._cache
    assert cache.translated_blocks > 0
    assert cache.translated_execs > 0
    assert cache.invalidated_smc > 0


def test_translated_tier_resume_parity(monkeypatch):
    # A run stopped mid-flight by its instruction budget -- after
    # translated blocks have already run -- must resume to the same
    # final state as the single-step core stopped and resumed the same
    # way.
    monkeypatch.setattr(BlockCache, "translate_threshold", 1)
    fast_board, slow_board = Board(), Board()
    slow_board.cpu.use_fast_core = False
    for board in (fast_board, slow_board):
        assembly = _load_stub(board)
        with pytest.raises(CpuError, match="did not return"):
            board.cpu.call_subroutine(assembly.symbols["entry"],
                                      max_instructions=10)
    assert fast_board.cpu._cache.translated_execs > 0
    assert _machine_state(fast_board) == _machine_state(slow_board)
    for board in (fast_board, slow_board):
        board.cpu.run(max_instructions=200)  # returns at HALT
        assert board.cpu.halted
    assert fast_board.memory.sram[0x50] == 0x22  # patched value won
    assert _machine_state(fast_board) == _machine_state(slow_board)


def test_reloading_memory_invalidates_everything():
    board = Board()
    aes = AesAsm(board, build_aes_asm())
    aes.set_key(KEY)
    aes.encrypt_block(BLOCK)
    cache = board.cpu._cache
    assert cache.blocks
    assembly = _load_stub(board)  # load_sram flushes the block cache
    assert not cache.blocks
    with pytest.raises(CpuError, match="HALT"):
        board.cpu.call_subroutine(assembly.symbols["entry"],
                                  max_instructions=200)
    assert board.memory.sram[0x50] == 0x22


def _monitor_pair():
    fast_board, slow_board = Board(), Board()
    slow_board.cpu.use_fast_core = False
    return [SerialDebugMonitor(board) for board in (fast_board, slow_board)]


@pytest.mark.parametrize("threshold", [1, 16])
def test_run_cycles_budget_identical(monkeypatch, threshold):
    # A block runs whole only when len(ops) * cycle_ceiling cannot reach
    # the cycle target, so every budget has to stop on the step core's
    # instruction boundary -- which also checks the ceiling really is an
    # upper bound.  Threshold 1 runs the sweep in the translated tier.
    monkeypatch.setattr(BlockCache, "translate_threshold", threshold)
    translated_execs = 0
    for budget in range(1, 601):
        monitors = _monitor_pair()
        ran = [monitor.board.run_cycles(budget) for monitor in monitors]
        assert ran[0] == ran[1], budget
        fast_board, slow_board = (monitor.board for monitor in monitors)
        assert _machine_state(fast_board) == _machine_state(slow_board), budget
        translated_execs += fast_board.cpu._cache.translated_execs
    # Several calls in a row mid-run, with the ISR driven in between.
    monitors = _monitor_pair()
    for budget in (1234, 1, 2, 3, 29, 30, 31, 97, 600, 5):
        ran = [monitor.board.run_cycles(budget) for monitor in monitors]
        assert ran[0] == ran[1], budget
        assert (_machine_state(monitors[0].board)
                == _machine_state(monitors[1].board)), budget
    replies = [[monitor.send_command(command, run_cycles=budget)
                for command, budget in ((b"s", 37), (b"r", 450), (b"s", 2000))]
               for monitor in monitors]
    assert replies[0] == replies[1]
    assert (_machine_state(monitors[0].board)
            == _machine_state(monitors[1].board))
    translated_execs += monitors[0].board.cpu._cache.translated_execs
    if threshold == 1:
        assert translated_execs > 0


@pytest.mark.parametrize("fast", [True, False], ids=["fast", "step"])
def test_halt_no_interrupt_can_wake_stops_the_run(fast):
    # An interrupt is pending but IFF1 is clear: the halt is final, so
    # run() returns at once instead of idling out its whole budget.
    for run in (lambda cpu: cpu.run(max_instructions=200_000),
                lambda cpu: cpu.run_cycles(200_000)):
        board = Board(flash_wait_states=0)
        board.cpu.use_fast_core = fast
        board.program(assemble("org 0\ndi\nhalt\n").code)
        board.cpu.request_interrupt(0x38)
        assert run(board.cpu) == 8
        assert board.cpu.halted


@pytest.mark.parametrize("fast", [True, False], ids=["fast", "step"])
def test_budget_exhaustion_wins_over_a_stop_on_the_last_instruction(fast):
    image = assemble("org 0\nnop\nnop\nhalt\n").code
    board = Board()
    board.cpu.use_fast_core = fast
    board.program(image)
    with pytest.raises(CpuError, match="exceeded 3 instructions"):
        board.cpu.run(max_instructions=3)  # the HALT is instruction 3
    board.program(image)
    assert board.cpu.run(max_instructions=4) > 0
    # The return lands on the stop address on the last budgeted step.
    board.program(assemble("org 0\nnop\nret\n").code)
    with pytest.raises(CpuError, match="did not return"):
        board.cpu.call_subroutine(0x0000, max_instructions=2)
    board.cpu.reset()
    assert board.cpu.call_subroutine(0x0000, max_instructions=3) > 0


def test_instruction_budget_exhaustion_identical():
    errors = []
    for fast in (True, False):
        board = Board()
        board.cpu.use_fast_core = fast
        assembly = _load_stub(board)
        with pytest.raises(CpuError) as excinfo:
            board.cpu.call_subroutine(assembly.symbols["entry"],
                                      max_instructions=5)
        errors.append(str(excinfo.value))
        assert board.cpu.instructions == 5
    assert errors[0] == errors[1]


def test_profiler_keeps_the_fast_core(monkeypatch):
    from repro.obs import Obs
    from repro.obs.profile import CycleProfiler

    # Each AES block's code dispatches about once per encrypt, so a low
    # threshold lets three encrypts reach the translated tier.
    monkeypatch.setattr(BlockCache, "translate_threshold", 2)
    board = Board()
    aes = AesAsm(board, build_aes_asm())
    aes.set_key(KEY)
    expected = aes.encrypt_block(BLOCK)
    cache = board.cpu._cache
    baseline_blocks = cache.executed_blocks
    baseline_translated = cache.translated_execs
    profiler = CycleProfiler(
        board.cpu, {"aes": 0x0000}, tracer=Obs().tracer
    )
    with profiler:
        assert board.cpu.use_fast_core
        for _ in range(3):
            assert aes.encrypt_block(BLOCK) == expected
        # Instrumented run: the block dispatcher and, once blocks
        # repeat, the translated tier did the work.
        assert cache.executed_blocks > baseline_blocks
        assert cache.translated_execs > baseline_translated
        assert profiler.total_cycles == 3 * expected[1]


class TestOneDispatchLoop:
    """``run``, ``call_subroutine`` and ``run_cycles`` share one dispatch
    loop, so the tiers and the stop rules cannot drift apart again."""

    @staticmethod
    def _tree():
        return ast.parse(inspect.getsource(cpu_module))

    def _calls(self, attr):
        return [node.lineno for node in ast.walk(self._tree())
                if isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == attr]

    def test_one_block_builder_and_translator_call(self):
        assert len(self._calls("build_block")) == 1
        assert len(self._calls("translate")) == 1

    def test_one_block_executing_loop(self):
        loops = [node.lineno for node in ast.walk(self._tree())
                 if isinstance(node, ast.For)
                 and isinstance(node.target, ast.Name)
                 and node.target.id == "op"]
        assert len(loops) == 1, loops

    def test_entry_points_do_not_loop(self):
        methods = {node.name: node for node in ast.walk(self._tree())
                   if isinstance(node, ast.FunctionDef)}
        for name in ("run", "call_subroutine", "run_cycles"):
            loops = [node.lineno for node in ast.walk(methods[name])
                     if isinstance(node, (ast.For, ast.While,
                                          ast.comprehension))]
            assert not loops, (name, loops)

    def test_fast_core_switch_is_use_fast_core_alone(self):
        # The profiler listens per block; nothing overrides ``step`` to
        # instrument the core, so the dispatch loop asks nothing else.
        methods = {node.name: node for node in ast.walk(self._tree())
                   if isinstance(node, ast.FunctionDef)}
        assert "_fast_eligible" not in methods
        [fast] = [node.value for node in ast.walk(methods["_dispatch"])
                  if isinstance(node, ast.Assign)
                  and [getattr(t, "id", None) for t in node.targets]
                  == ["fast"]]
        assert ast.unparse(fast) == "self.use_fast_core"

    def test_nothing_assigns_a_step_attribute(self):
        src = Path(cpu_module.__file__).resolve().parents[1]
        offenders = []
        for path in sorted(src.rglob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            for node in ast.walk(tree):
                targets = (node.targets if isinstance(node, ast.Assign)
                           else [node.target]
                           if isinstance(node, (ast.AugAssign,
                                                ast.AnnAssign))
                           else [])
                offenders += [
                    f"{path.name}:{node.lineno}" for target in targets
                    if isinstance(target, ast.Attribute)
                    and target.attr == "step"
                ]
        assert not offenders
