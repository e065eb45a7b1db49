"""CycleProfiler: attribution on a tiny program with a known call tree.

The fixture program has three routines -- ``start`` calls ``addone``
twice, ``addone`` calls ``noop`` once -- so every attribution mechanism
(nearest-preceding symbol, shadow call stack, call/return span emission)
has a hand-checkable answer.  The profiler rides the fast core's block
listener; ``test_profile_differential`` checks it against the
single-step core.
"""

import pytest

from repro.obs import Obs
from repro.obs.profile import (
    CycleProfiler,
    _is_control_flow_label,
    assembly_function_symbols,
    collapse_sublabels,
    compiled_function_symbols,
)
from repro.rabbit.asm import assemble
from repro.rabbit.board import CLOCK_HZ, Board

FIXTURE = """
        org  0
start:
        ld   a, 0
        call addone
        call addone
        ret
addone:
        inc  a
        call noop
        ret
noop:
        nop
        ret
"""


@pytest.fixture
def profiled():
    assembly = assemble(FIXTURE)
    board = Board()
    board.program(assembly.code)
    obs = Obs()
    profiler = CycleProfiler(
        board.cpu,
        {name: addr for name, addr in assembly.symbols.items()},
        tracer=obs.tracer,
    )
    with profiler:
        board.cpu.call_subroutine(assembly.symbols["start"])
    return profiler, obs, board


class TestAttribution:
    def test_every_cycle_lands_in_a_routine(self, profiled):
        profiler, _obs, board = profiled
        assert set(profiler.self_cycles) == {"start", "addone", "noop"}
        assert sum(profiler.self_cycles.values()) == profiler.total_cycles
        assert profiler.total_cycles == board.cpu.cycles

    def test_call_counts_match_the_call_tree(self, profiled):
        profiler, _obs, _board = profiled
        assert profiler.call_counts == {"addone": 2, "noop": 2}

    def test_collapsed_stacks_name_full_paths(self, profiled):
        profiler, _obs, _board = profiled
        assert set(profiler.collapsed) == {
            "start", "start;addone", "start;addone;noop",
        }
        assert sum(profiler.collapsed.values()) == profiler.total_cycles
        for line in profiler.flame_lines():
            stack, cycles = line.rsplit(" ", 1)
            assert profiler.collapsed[stack] == int(cycles)

    def test_returns_emit_cpu_spans_innermost_first(self, profiled):
        profiler, obs, board = profiled
        # Each taken RET closes the routine it returns from; the final
        # RET of `start` pops the injected stop address (no shadow frame)
        # so only the four real frames produce spans.
        assert [s.name for s in obs.tracer.spans] == [
            "cpu.noop", "cpu.addone", "cpu.noop", "cpu.addone",
        ]
        for span in obs.tracer.spans:
            assert span.cat == "rabbit.cpu"
            assert span.args["cycles"] == pytest.approx(
                (span.end - span.start) * CLOCK_HZ
            )
        assert obs.tracer.spans[-1].end <= board.cpu.cycles / CLOCK_HZ

    def test_report_rows_are_heaviest_first(self, profiled):
        profiler, _obs, _board = profiled
        rows = profiler.report_rows()
        cycles = [row["self cycles"] for row in rows]
        assert cycles == sorted(cycles, reverse=True)
        assert sum(row["instructions"] for row in rows) > 0
        assert sum(row["% of total"] for row in rows) == pytest.approx(
            100.0, abs=0.5
        )
        assert len(profiler.report_rows(top=2)) == 2

    def test_pc_below_first_symbol_charges_root(self):
        profiler = CycleProfiler(None, {"fn": 0x100})
        assert profiler.routine_at(0x50) == "<root>"
        assert profiler.routine_at(0x100) == "fn"
        assert profiler.routine_at(0x150) == "fn"


class TestInstallation:
    def test_uninstall_restores_the_class_method(self):
        board = Board()
        profiler = CycleProfiler(board.cpu, {"fn": 0})
        profiler.install()
        # The profiler listens for blocks; it never shadows ``Cpu.step``.
        assert "step" not in vars(board.cpu)
        profiler.uninstall()
        assert "step" not in vars(board.cpu)
        assert board.cpu.step.__func__ is type(board.cpu).step
        profiler.uninstall()  # idempotent

    def test_uninstall_clears_the_listener(self):
        board = Board()
        profiler = CycleProfiler(board.cpu, {"fn": 0, "other": 0x10})
        profiler.install()
        assert board.cpu.block_listener == profiler._on_unit
        assert board.cpu.block_ends == {0, 0x10}
        profiler.uninstall()
        assert board.cpu.block_listener is None
        assert board.cpu.block_ends == frozenset()
        profiler.uninstall()  # idempotent

    def test_double_install_rejected(self):
        board = Board()
        profiler = CycleProfiler(board.cpu, {"fn": 0})
        with profiler:
            with pytest.raises(RuntimeError):
                profiler.install()

    def test_second_listener_rejected(self):
        board = Board()
        first = CycleProfiler(board.cpu, {"fn": 0})
        second = CycleProfiler(board.cpu, {"fn": 0})
        with first:
            with pytest.raises(RuntimeError):
                second.install()
            second.uninstall()  # not installed: leaves the first alone
            assert board.cpu.block_listener == first._on_unit

    def test_fast_core_stays_engaged(self, profiled):
        _profiler, _obs, board = profiled
        assert "step" not in vars(board.cpu)
        assert board.cpu._cache.executed_blocks > 0

    def test_install_and_uninstall_each_drop_the_blocks_once(self):
        assembly = assemble(FIXTURE)
        board = Board()
        board.program(assembly.code)
        board.cpu.call_subroutine(assembly.symbols["start"])
        cache = board.cpu._cache
        flushes = cache.invalidated_flush
        with CycleProfiler(board.cpu, dict(assembly.symbols)):
            assert not cache.blocks
            board.cpu.call_subroutine(assembly.symbols["start"])
            # No block runs past a routine entry while profiling.
            entries = set(assembly.symbols.values())
            for pc, block in cache.blocks.items():
                assert not set(range(pc + 1, block[1] + 1)) & entries
        assert not cache.blocks
        assert cache.invalidated_flush == flushes + 2


# ``start`` calls ``work``; an interrupt lands in ``work``'s loop and its
# ISR returns with RETI.  Interrupt acknowledge pushes PC without a CALL
# opcode, so a profiler that only tracks CALLs pops ``work``'s frame at
# the RETI and charges the rest of ``work`` to the root of the stack.
INTERRUPTED = """
        org  0
start:  ei
        call work
        ret
work:   ld   b, 20
spin:   djnz spin
        ret
        org  0x80
isr:    ei
        reti
"""


class TestInterrupts:
    @pytest.fixture
    def interrupted(self):
        assembly = assemble(INTERRUPTED)
        board = Board()
        board.program(assembly.code)
        cpu = board.cpu
        obs = Obs()
        profiler = CycleProfiler(
            cpu, {name: assembly.symbols[name]
                  for name in ("start", "work", "isr")},
            tracer=obs.tracer,
        )
        before = cpu.instructions
        with profiler:
            cpu._push(0xFFFF)
            cpu.run_cycles(40)           # parks inside work's loop
            cpu.request_interrupt(assembly.symbols["isr"])
            while cpu.pc != 0xFFFF:
                cpu.run_cycles(1)        # one unit at a time
        return profiler, obs, cpu, cpu.instructions - before

    def test_isr_frame_nests_under_the_interrupted_routine(self, interrupted):
        profiler, _obs, cpu, _ran = interrupted
        assert set(profiler.collapsed) == {
            "start", "start;work", "start;work;isr",
        }
        assert profiler.call_counts == {"work": 1, "isr": 1}
        assert profiler.total_cycles == cpu.cycles

    def test_acknowledge_counts_no_instruction(self, interrupted):
        profiler, _obs, _cpu, ran = interrupted
        assert sum(profiler.instruction_counts.values()) == ran
        assert profiler.instruction_counts["isr"] == 2   # ei, reti

    def test_reti_closes_the_isr_span(self, interrupted):
        _profiler, obs, _cpu, _ran = interrupted
        assert [span.name for span in obs.tracer.spans] == [
            "cpu.isr", "cpu.work",
        ]


class TestSymbolSelection:
    def test_collapse_sublabels_folds_locals(self):
        symbols = {"mul16": 0x10, "mul16_loop": 0x14, "other": 0x30}
        assert collapse_sublabels(symbols) == {"mul16": 0x10, "other": 0x30}

    def test_assembly_function_symbols_filter_by_prefix(self):
        assembly = assemble(FIXTURE)
        assert assembly_function_symbols(assembly) == dict(assembly.symbols)
        assert assembly_function_symbols(assembly, prefix="add") == {
            "addone": assembly.symbols["addone"],
        }

    def test_control_flow_labels_recognized(self):
        for label in ("__for_17", "__endif_2", "__while_103",
                      "__ret_add_round_key", "__code_end", "__image_end"):
            assert _is_control_flow_label(label), label
        for label in ("__mul16", "__debug_trap", "__memcpy8"):
            assert not _is_control_flow_label(label), label

    def test_compiled_function_symbols_strip_and_filter(self):
        class FakeAssembly:
            symbols = {
                "_fn_main": 0x00,
                "_fn_xtime_c": 0x40,
                "__mul16": 0x80,
                "__mul16_loop": 0x84,
                "__for_17": 0x20,
                "__ret_main": 0x3E,
                "__code_end": 0xFF,
            }

        class FakeCompilation:
            assembly = FakeAssembly()

        assert compiled_function_symbols(FakeCompilation()) == {
            "main": 0x00, "xtime_c": 0x40, "__mul16": 0x80,
        }
