"""Inline assembly with embedded C (paper, Section 4.1).

"Dynamic C's support for inline assembly is more comprehensive than
most C implementations, and it can also integrate C into assembly
code" -- the ``#asm ... c expr ... #endasm`` form the paper shows, and
what its authors used in the error-handling routines.
"""

import pytest

from repro.dync.compiler import (
    CompiledProgram,
    CompileError,
    CompilerOptions,
    compile_source,
)
from repro.dync.compiler.libraries import extract_asm_blocks, LibraryError
from repro.rabbit.board import Board


class TestExtraction:
    def test_block_becomes_placeholder(self):
        source = "void f(void) {\n#asm\n  nop\n#endasm\n}\n"
        stripped, blocks = extract_asm_blocks(source)
        assert "__asm_block(0);" in stripped
        assert blocks == ["  nop\n"]

    def test_multiple_blocks_numbered(self):
        source = "#asm\nnop\n#endasm\nint x;\n#asm\nhalt\n#endasm\n"
        stripped, blocks = extract_asm_blocks(source)
        assert "__asm_block(0);" in stripped
        assert "__asm_block(1);" in stripped
        assert len(blocks) == 2

    def test_unterminated_rejected(self):
        with pytest.raises(LibraryError):
            extract_asm_blocks("#asm\nnop\n")

    def test_nodebug_variant_accepted(self):
        stripped, blocks = extract_asm_blocks("#asm nodebug\nnop\n#endasm\n")
        assert len(blocks) == 1

    def test_source_without_asm_untouched(self):
        source = "int x;\n"
        stripped, blocks = extract_asm_blocks(source)
        assert stripped == source
        assert blocks == []


class TestExecution:
    def test_inline_asm_inside_function(self):
        program = CompiledProgram(Board(), compile_source("""
            int out;
            void main() {
                out = 1;
            #asm
                ld   hl, 0x0777
                ld   (0xC3F8), hl
            #endasm
                out = out + 1;
            }
        """))
        program.call("main")
        assert program.peek_int("out") == 2
        memory = program.board.memory
        assert memory.read8(0xC3F8) | (memory.read8(0xC3F9) << 8) == 0x0777

    def test_embedded_c_lines(self):
        # The paper's InitValues example shape: `c start_time = 0;`.
        program = CompiledProgram(Board(), compile_source("""
            int start_time;
            int counter;
            void init_values(void) {
            #asm
                ld   hl, 0xA0
            c start_time = 0
            c counter = 256
            #endasm
            }
        """))
        program.poke_int("start_time", 7)
        program.poke_int("counter", 7)
        program.call("init_values")
        assert program.peek_int("start_time") == 0
        assert program.peek_int("counter") == 256

    def test_top_level_asm_routine_callable(self):
        program = CompiledProgram(Board(), compile_source("""
            int unused;
        #asm
        _answer::
                ld   hl, 42
                ret
        #endasm
        """))
        address = program.compilation.assembly.symbol("_answer")
        program.board.call(address)
        assert program.board.cpu.hl == 42

    def test_top_level_asm_after_a_comment_with_a_brace(self):
        # File scope is the C parser's call, not a count of braces in
        # the raw text.
        program = CompiledProgram(Board(), compile_source("""
            /* { */
        #asm
        _answer::
                ld   hl, 42
                ret
        #endasm
            int unused;
        """))
        address = program.compilation.assembly.symbol("_answer")
        program.board.call(address)
        assert program.board.cpu.hl == 42

    @pytest.mark.parametrize("source", [
        "__asm_block(3);\nint x;\n",
        "int x;\nvoid main() { __asm_block(3); }\n",
    ], ids=["file_scope", "in_function"])
    def test_missing_asm_block_is_a_compile_error(self, source):
        with pytest.raises(CompileError, match="^no such asm block 3$"):
            compile_source(source)

    @pytest.mark.parametrize("optimize", [False, True])
    def test_optimizer_keeps_hl_across_a_spill(self, optimize):
        # `ld hl, X / push hl / I / pop de` may become `ld de, X / I`
        # only when I reloads HL; `inc hl` reads the value it spilled.
        source = """
            int hl_out;
            int de_out;
            void main() {
            #asm
                ld   hl, 5
                push hl
                inc  hl
                pop  de
                ld   (0xC300), hl
                ex   de, hl
                ld   (0xC302), hl
            #endasm
            }
        """
        # `hl_out` and `de_out` are the first RAM globals, at 0xC300 and
        # 0xC302 by construction.
        program = CompiledProgram(Board(), compile_source(
            source, CompilerOptions(debug=False, optimize=optimize)))
        program.call("main")
        assert program.peek_int("hl_out") == 6
        assert program.peek_int("de_out") == 5

    def test_asm_mixes_with_optimizer(self):
        source = """
            int out;
            void main() {
                out = 10;
            #asm
                ld   hl, (0xC300)
                add  hl, hl
                ld   (0xC300), hl
            #endasm
            }
        """
        # `out` is the first RAM global, at 0xC300 by construction.
        build = compile_source(
            source, CompilerOptions(debug=False, optimize=True)
        )
        program = CompiledProgram(Board(), build)
        program.call("main")
        assert program.peek_int("out") == 20

    def test_bad_placeholder_rejected(self):
        with pytest.raises(CompileError):
            compile_source("void f(void) { __asm_block(99); }")
