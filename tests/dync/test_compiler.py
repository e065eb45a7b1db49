"""Dynamic C subset compiler: lexer, parser, codegen on the board."""

import ast
import inspect
from dataclasses import fields

import pytest

from repro.dync.compiler import (
    BEST,
    Compilation,
    CompileError,
    CompiledProgram,
    CompilerOptions,
    compile_source,
    ParseError,
    parse,
    peephole_optimize,
)
from repro.dync.compiler import codegen, peephole
from repro.dync.compiler.lexer import LexError, tokenize
from repro.dync.compiler.libraries import expand_uses, extract_asm_blocks
from repro.dync.compiler.options import PLACEMENTS
from repro.rabbit.asm import AsmError, assemble, assembler, parse_asm
from repro.rabbit.board import Board
from repro.rabbit.programs.aes_c import AES_C_ENCRYPT_SOURCE, AES_C_SOURCE
from repro.rabbit.programs.rsa_c import generate_source as rsa_source


def run(source: str, options: CompilerOptions | None = None) -> CompiledProgram:
    return CompiledProgram(Board(), compile_source(source, options))


class TestLexer:
    def test_token_kinds(self):
        tokens = tokenize("int x = 0x10 + 'A'; // comment")
        kinds = [(t.kind, t.value) for t in tokens[:-1]]
        assert kinds == [
            ("keyword", "int"), ("ident", "x"), ("op", "="),
            ("num", 16), ("op", "+"), ("num", 65), ("op", ";"),
        ]

    def test_block_comments_and_lines(self):
        tokens = tokenize("a /* multi\nline */ b")
        assert tokens[0].line == 1
        assert tokens[1].line == 2

    def test_char_escapes(self):
        values = [t.value for t in tokenize(r"'\n' '\t' '\0' '\\'") if t.kind == "num"]
        assert values == [10, 9, 0, 92]

    def test_multi_char_operators(self):
        ops = [t.value for t in tokenize("a <<= b >> c && d") if t.kind == "op"]
        assert ops == ["<<=", ">>", "&&"]

    def test_bad_character(self):
        with pytest.raises(LexError):
            tokenize("int x = @;")

    def test_unterminated_comment(self):
        with pytest.raises(LexError):
            tokenize("/* never ends")


class TestParser:
    def test_program_structure(self):
        program = parse("""
            const char table[3] = {1, 2, 3};
            int counter;
            root int fast(int a, char b) { return a + b; }
            nodebug void quiet(void) { }
        """)
        assert [g.name for g in program.globals] == ["table", "counter"]
        assert program.globals[0].is_const
        fast = program.function("fast")
        assert fast.storage == "root"
        assert [p.name for p in fast.params] == ["a", "b"]
        assert program.function("quiet").nodebug

    def test_constant_folding(self):
        program = parse("int x = 2 * 3 + (10 >> 1);")
        assert program.globals[0].initializer == 11

    def test_statement_kinds(self):
        parse("""
            void f(void) {
                int i;
                if (i) { i = 1; } else i = 2;
                while (i < 10) i++;
                for (i = 0; i < 4; i = i + 1) { break; }
                return;
            }
        """)

    def test_unsigned_spellings(self):
        program = parse("unsigned a; unsigned int b; unsigned char c;")
        assert program.globals[0].ctype.name == "int"
        assert program.globals[2].ctype.name == "char"

    def test_pointer_params(self):
        program = parse("int f(char* p) { return p[0]; }")
        assert program.function("f").params[0].ctype.is_pointer

    def test_bad_assignment_target(self):
        with pytest.raises(ParseError):
            parse("void f(void) { 1 = 2; }")

    def test_array_size_must_be_constant(self):
        with pytest.raises(ParseError):
            parse("int n; char buf[n];")

    def test_missing_semicolon(self):
        with pytest.raises(ParseError):
            parse("int x")


class TestCodegenExecution:
    def test_arithmetic(self):
        program = run("""
            int r_add; int r_sub; int r_mul; int r_neg;
            void main() {
                r_add = 1000 + 2345;
                r_sub = 100 - 250;
                r_mul = 123 * 45;
                r_neg = -7;
            }
        """)
        program.call("main")
        assert program.peek_int("r_add") == 3345
        assert program.peek_int("r_sub") == (100 - 250) & 0xFFFF
        assert program.peek_int("r_mul") == 123 * 45
        assert program.peek_int("r_neg") == (-7) & 0xFFFF

    def test_runtime_mul_not_folded(self):
        program = run("""
            int a; int b; int r;
            void main() { r = a * b; }
        """)
        program.poke_int("a", 250)
        program.poke_int("b", 200)
        program.call("main")
        assert program.peek_int("r") == (250 * 200) & 0xFFFF

    def test_bitwise_and_shifts(self):
        program = run("""
            int a; int b;
            int r_and; int r_or; int r_xor; int r_shl; int r_shr; int r_not;
            void main() {
                r_and = a & b;
                r_or  = a | b;
                r_xor = a ^ b;
                r_shl = a << 3;
                r_shr = a >> 2;
                r_not = ~a;
            }
        """)
        program.poke_int("a", 0b1100_1010)
        program.poke_int("b", 0b1010_0101)
        program.call("main")
        assert program.peek_int("r_and") == 0b1000_0000
        assert program.peek_int("r_or") == 0b1110_1111
        assert program.peek_int("r_xor") == 0b0110_1111
        assert program.peek_int("r_shl") == 0b1100_1010 << 3
        assert program.peek_int("r_shr") == 0b1100_1010 >> 2
        assert program.peek_int("r_not") == (~0b1100_1010) & 0xFFFF

    @pytest.mark.parametrize("a,b", [(5, 3), (3, 5), (5, 5), (0, 0xFFFF),
                                     (0x7FFF, 0x8000)])
    def test_signed_comparisons(self, a, b):
        program = run("""
            int a; int b;
            int lt; int gt; int le; int ge; int eq; int ne;
            void main() {
                lt = a < b;  gt = a > b;
                le = a <= b; ge = a >= b;
                eq = a == b; ne = a != b;
            }
        """)
        program.poke_int("a", a)
        program.poke_int("b", b)
        program.call("main")

        def signed(v):
            return v - 0x10000 if v & 0x8000 else v

        sa, sb = signed(a), signed(b)
        assert program.peek_int("lt") == int(sa < sb)
        assert program.peek_int("gt") == int(sa > sb)
        assert program.peek_int("le") == int(sa <= sb)
        assert program.peek_int("ge") == int(sa >= sb)
        assert program.peek_int("eq") == int(sa == sb)
        assert program.peek_int("ne") == int(sa != sb)

    def test_short_circuit_evaluation(self):
        program = run("""
            int calls;
            int bump(void) { calls = calls + 1; return 1; }
            int r1; int r2;
            void main() {
                calls = 0;
                r1 = 0 && bump();
                r2 = 1 || bump();
            }
        """)
        program.call("main")
        assert program.peek_int("r1") == 0
        assert program.peek_int("r2") == 1
        assert program.peek_int("calls") == 0  # never evaluated

    def test_char_truncation_and_zero_extension(self):
        program = run("""
            char c;
            int wide;
            void main() {
                c = 300;        /* truncates to 44 */
                wide = c + 1;   /* zero-extends */
            }
        """)
        program.call("main")
        assert program.peek_int("c") == 300 & 0xFF
        assert program.peek_int("wide") == (300 & 0xFF) + 1

    def test_arrays_and_pointers(self):
        program = run("""
            char buf[8];
            int words[4];
            int sum;
            int sum_bytes(char* p, int n) {
                int i; int total;
                total = 0;
                for (i = 0; i < n; i = i + 1) total = total + p[i];
                return total;
            }
            void main() {
                int i;
                for (i = 0; i < 8; i = i + 1) buf[i] = i * i;
                for (i = 0; i < 4; i = i + 1) words[i] = 1000 * i;
                sum = sum_bytes(buf, 8);
            }
        """)
        program.call("main")
        assert program.peek_bytes("buf", 8) == bytes(i * i for i in range(8))
        assert program.peek_int("sum") == sum(i * i for i in range(8))
        words = program.peek_bytes("words", 8)
        assert int.from_bytes(words[6:8], "little") == 3000

    def test_statics_persist_across_calls(self):
        # Dynamic C: locals are static by default.
        program = run("""
            int counter(void) {
                int n;
                n = n + 1;
                return n;
            }
            int r;
            void main() { counter(); counter(); r = counter(); }
        """)
        program.call("main")
        assert program.peek_int("r") == 3

    def test_while_break_continue(self):
        program = run("""
            int r;
            void main() {
                int i;
                r = 0;
                i = 0;
                while (1) {
                    i = i + 1;
                    if (i == 3) continue;
                    if (i > 6) break;
                    r = r + i;
                }
            }
        """)
        program.call("main")
        assert program.peek_int("r") == 1 + 2 + 4 + 5 + 6

    def test_compound_assignment_and_incdec(self):
        program = run("""
            int r;
            void main() {
                r = 10;
                r += 5;
                r -= 2;
                r <<= 1;
                r |= 1;
                r++;
                --r;
            }
        """)
        program.call("main")
        assert program.peek_int("r") == ((10 + 5 - 2) << 1 | 1)

    def test_division_by_power_of_two(self):
        program = run("""
            int q; int m;
            void main() { q = 100 / 4; m = 100 % 8; }
        """)
        program.call("main")
        assert program.peek_int("q") == 25
        assert program.peek_int("m") == 4

    def test_division_by_non_power_rejected(self):
        with pytest.raises(CompileError):
            compile_source("int x; void main() { x = x / 3; }")

    def test_function_args_and_return(self):
        program = run("""
            int max3(int a, int b, int c) {
                if (a >= b && a >= c) return a;
                if (b >= c) return b;
                return c;
            }
        """)
        program.call("max3", 3, 9, 5)
        assert program.return_value == 9
        program.call("max3", 30, 9, 5)
        assert program.return_value == 30

    def test_nested_calls(self):
        program = run("""
            int double_(int x) { return x + x; }
            int quad(int x) { return double_(double_(x)); }
        """)
        program.call("quad", 5)
        assert program.return_value == 20

    def test_unknown_function_rejected(self):
        with pytest.raises(CompileError):
            compile_source("void main() { missing(); }")

    def test_wrong_arity_rejected(self):
        with pytest.raises(CompileError):
            compile_source("int f(int a) { return a; } void main() { f(); }")

    def test_undefined_variable_rejected(self):
        with pytest.raises(CompileError):
            compile_source("void main() { ghost = 1; }")

    def test_const_write_rejected(self):
        with pytest.raises(CompileError):
            compile_source("const char t[2] = {1,2}; void main() { t[0] = 9; }")


class TestPlacements:
    SOURCE = """
        const char table[16] = {0,1,4,9,16,25,36,49,64,81,100,121,144,169,196,225};
        int r;
        void main() {
            int i;
            r = 0;
            for (i = 0; i < 16; i = i + 1) r = r + table[i];
        }
    """

    @pytest.mark.parametrize("placement", ["flash", "root_ram", "xmem"])
    def test_results_identical_across_placements(self, placement):
        program = run(self.SOURCE,
                      CompilerOptions(data_placement=placement))
        program.call("main")
        assert program.peek_int("r") == sum(i * i for i in range(16))

    def test_xmem_costs_more_cycles(self):
        cycles = {}
        for placement in ("root_ram", "xmem"):
            program = run(self.SOURCE, CompilerOptions(data_placement=placement))
            cycles[placement] = program.call("main")
        assert cycles["xmem"] > cycles["root_ram"]

    def test_explicit_storage_specifier_overrides(self):
        source = """
            root const char a[2] = {1, 2};
            xmem const char b[2] = {3, 4};
            int r;
            void main() { r = a[0] + b[1]; }
        """
        program = run(source, CompilerOptions(data_placement="flash"))
        program.call("main")
        assert program.peek_int("r") == 5
        assert program.program if False else True
        symbols = program.compilation.globals_map
        assert symbols["a"].placement == "ram"
        assert symbols["b"].placement == "xmem"


class TestOptimizationKnobs:
    SOURCE = """
        int acc;
        void main() {
            int i;
            acc = 0;
            for (i = 0; i < 10; i = i + 1) acc = acc + i * i;
        }
    """

    def test_all_knobs_preserve_semantics(self):
        expected = sum(i * i for i in range(10))
        for options in (CompilerOptions(), BEST,
                        CompilerOptions(debug=False),
                        CompilerOptions(optimize=True),
                        CompilerOptions(unroll=True)):
            program = run(self.SOURCE, options)
            program.call("main")
            assert program.peek_int("acc") == expected, options.describe()

    def test_nodebug_is_faster(self):
        debug = run(self.SOURCE, CompilerOptions(debug=True))
        nodebug = run(self.SOURCE, CompilerOptions(debug=False))
        assert debug.call("main") > nodebug.call("main")

    def test_optimize_is_not_slower(self):
        plain = run(self.SOURCE, CompilerOptions(debug=False))
        optimized = run(self.SOURCE, CompilerOptions(debug=False, optimize=True))
        assert optimized.call("main") <= plain.call("main")

    def test_unroll_grows_code(self):
        rolled = compile_source(self.SOURCE, CompilerOptions())
        unrolled = compile_source(self.SOURCE, CompilerOptions(unroll=True))
        assert unrolled.code_size > rolled.code_size

    def test_unroll_skips_break_loops(self):
        source = """
            int r;
            void main() {
                int i;
                for (i = 0; i < 4; i = i + 1) { if (i == 2) break; r = i; }
            }
        """
        rolled = compile_source(source, CompilerOptions())
        unrolled = compile_source(source, CompilerOptions(unroll=True))
        assert unrolled.code_size == rolled.code_size  # loop left alone

    def test_nodebug_function_attribute(self):
        source = """
            nodebug void quiet(void) { int i; i = 1; }
            void loud(void) { int i; i = 1; }
        """
        compilation = compile_source(source, CompilerOptions(debug=True))
        # Only `loud` gets instrumented.
        assert compilation.statements_instrumented == 1


def _peephole(source: str) -> list[tuple]:
    """The peephole's rewrite of ``source`` as (label, mnemonic,
    operands) triples."""
    return [(line.label, line.mnemonic, line.operands)
            for line in peephole_optimize(parse_asm(source))]


class TestPeephole:
    def test_push_pop_rewrite(self):
        source = "        push hl\n        pop  de\n"
        assert _peephole(source) == [(None, "ld", ["d", "h"]),
                                     (None, "ld", ["e", "l"])]

    def test_label_never_consumed(self):
        source = "        push hl\nlabel:\n        pop  de\n"
        # The pattern must NOT fire across labels.
        assert _peephole(source) == [(None, "push", ["hl"]),
                                     ("label", "", []),
                                     (None, "pop", ["de"])]

    def test_store_reload_elided(self):
        source = "        ld   (0xC300), hl\n        ld   hl, (0xC300)\n"
        assert _peephole(source) == [(None, "ld", ["(0xC300)", "hl"])]

    def test_jump_to_next_removed(self):
        source = "        jp   next\nnext:\n        ret\n"
        assert _peephole(source) == [("next", "", []), (None, "ret", [])]

    def test_spill_around_a_reload_becomes_ld_de(self):
        source = ("        ld   hl, 5\n        push hl\n"
                  "        ld   hl, (0xC300)\n        pop  de\n")
        assert _peephole(source) == [(None, "ld", ["de", "5"]),
                                     (None, "ld", ["hl", "(0xC300)"])]

    def test_spill_kept_around_an_instruction_using_hl(self):
        source = ("        ld   hl, 5\n        push hl\n"
                  "        inc  hl\n        pop  de\n")
        assert [m for _, m, _ in _peephole(source)] == [
            "ld", "push", "inc", "pop"]


class TestOneAssemblyParser:
    """The assembler's parser is the only code that reads assembly text:
    the peephole rewrites parsed lines, and file-scope #asm is placed by
    the C parser."""

    def test_peephole_has_no_lexer(self):
        tree = ast.parse(inspect.getsource(peephole))
        imported = {alias.name for node in ast.walk(tree)
                    if isinstance(node, (ast.Import, ast.ImportFrom))
                    for alias in node.names}
        assert "re" not in imported
        assert not {"_parse", "_next_label", "_LABEL_RE"} & set(vars(peephole))

    def test_no_brace_counting_hoist(self):
        assert not hasattr(codegen, "_hoist_top_level_asm")

    def test_compilation_keeps_no_asm_text(self):
        assert "asm_source" not in {f.name for f in fields(Compilation)}

    def test_compile_parses_the_generated_text_once(self, monkeypatch):
        calls = []

        def counting(source):
            calls.append(source)
            return parse_asm(source)

        monkeypatch.setattr(codegen, "parse_asm", counting)
        compile_source("int x; void main() { x = 1; }",
                       CompilerOptions(optimize=True))
        assert len(calls) == 1


def _parsed_text(source: str) -> str:
    """The text :func:`parse` sees for ``source`` in a compile."""
    return extract_asm_blocks(expand_uses(source))[0]


def _every_option():
    return [CompilerOptions(debug=debug, optimize=optimize, unroll=unroll,
                            data_placement=placement)
            for debug in (True, False) for optimize in (False, True)
            for unroll in (False, True) for placement in PLACEMENTS]


def _matrix_sources() -> dict[str, str]:
    sources = {"aes-encrypt": AES_C_ENCRYPT_SOURCE, "aes": AES_C_SOURCE}
    for width in (2, 3, 4, 8, 16, 32):
        sources[f"rsa{width}"] = rsa_source(width)
    return sources


def _clear_memos():
    codegen._PARSED.clear()
    assembler._PARSED_LINES.clear()


def _build(compilation: Compilation):
    return (compilation.assembly.code, compilation.assembly.symbols,
            compilation.code_size, compilation.statements_instrumented,
            {name: (symbol.address, symbol.xmem_phys, symbol.placement)
             for name, symbol in compilation.globals_map.items()})


#: ``x op= e`` on a scalar and on an element, inside a loop that unrolls
#: around a nested loop and an ``if``.
SHARED_NODES = """
    int tally;
    int cells[4];
    void main() {
        int i;
        int j;
        for (i = 0; i < 4; i = i + 1) {
            cells[i] += i;
            tally += cells[i];
            for (j = 0; j < 2; j = j + 1) { tally <<= 1; }
            if (tally > 100) { tally -= 50; }
        }
    }
"""


class TestParseMemos:
    """One parse per distinct source text and per distinct assembly
    line, shared by every later compile: codegen never mutates a
    Program, and every AsmLine is the caller's own."""

    @pytest.mark.parametrize("source", [SHARED_NODES, AES_C_SOURCE,
                                        rsa_source(4)],
                             ids=["shared-nodes", "aes", "rsa4"])
    def test_codegen_leaves_the_program_as_parsed(self, source):
        _clear_memos()
        builds = [_build(compile_source(source, options))
                  for options in _every_option()]
        text = _parsed_text(source)
        assert list(codegen._PARSED) == [text]
        assert codegen._PARSED[text] == parse(text)
        assert len({code for code, *_ in builds}) > 1   # options took effect

    def test_unrolled_copies_run_like_the_loop(self):
        rolled = run(SHARED_NODES, CompilerOptions(unroll=False))
        unrolled = run(SHARED_NODES, CompilerOptions(unroll=True))
        rolled.call("main")
        unrolled.call("main")
        assert rolled.peek_int("tally") == unrolled.peek_int("tally") != 0
        assert rolled.peek_bytes("cells", 8) == unrolled.peek_bytes(
            "cells", 8) == bytes([0, 0, 1, 0, 2, 0, 3, 0])

    @pytest.mark.parametrize("source", list(_matrix_sources().values()),
                             ids=list(_matrix_sources()))
    def test_primed_builds_equal_cold_builds(self, source):
        cold = []
        for options in _every_option():
            _clear_memos()
            cold.append(_build(compile_source(source, options)))
        primed = [_build(compile_source(source, options))
                  for options in _every_option()]
        assert primed == cold

    ASM = ("start:  ld   a, ';'      ; a quoted semicolon\n"
           "COUNT   equ  3 + 1\n"
           "big::   db   \"a;b\", 'x', COUNT\n"
           "        ld   (ix + 2), a ; comment\n"
           "\n"
           "; a comment line\n"
           "        djnz start\n")

    def test_parse_asm_primed_equals_cold(self):
        _clear_memos()
        cold = parse_asm(self.ASM)
        primed = parse_asm(self.ASM)
        assert primed == cold
        assert [line.operands for line in cold] == [
            ["a", "';'"], ["count", "3 + 1"], ['"a;b"', "'x'", "COUNT"],
            ["(ix + 2)", "a"], [], [], ["start"]]
        assert [line.label for line in cold][:3] == ["start", None, "big"]
        assert cold[1].mnemonic == "equ"
        assert cold[3].text == "        ld   (ix + 2), a"
        # Every line owns its operands: a rewrite reaches no other.
        assert all(a.operands is not b.operands
                   for a, b in zip(cold, primed))
        primed[0].operands[0] = "b"
        assert parse_asm(self.ASM) == cold

    def test_repeated_lines_keep_their_own_line_numbers(self):
        _clear_memos()
        lines = parse_asm("        nop\nX equ 1\n        nop\nX equ 1\n")
        assert [line.line_no for line in lines] == [1, 2, 3, 4]
        with pytest.raises(AsmError, match="^line 4: duplicate label"):
            assemble("a:      nop\n        nop\n        nop\na:      nop\n")

    def test_an_equ_error_reports_its_own_line(self):
        _clear_memos()
        for source, line_no in (("        equ  5\n", 1),
                                ("        nop\n        nop\n"
                                 "        equ  5\n", 3),
                                ("        equ  5\n", 1)):
            with pytest.raises(AsmError,
                               match=f"^line {line_no}: equ needs a name"):
                parse_asm(source)
        assert "        equ  5" not in assembler._PARSED_LINES

    def test_memos_stay_within_their_bounds(self, monkeypatch):
        monkeypatch.setattr(codegen, "_PARSED_LIMIT", 2)
        monkeypatch.setattr(assembler, "_PARSED_LINES_LIMIT", 40)
        _clear_memos()
        for value in range(5):
            source = f"int x; void main() {{ x = {value}; }}"
            assert len(codegen._PARSED) <= 2
            assert len(assembler._PARSED_LINES) <= 40
            program = run(source)
            program.call("main")
            assert program.peek_int("x") == value
        assert 0 < len(codegen._PARSED) <= 2
        assert 0 < len(assembler._PARSED_LINES) <= 40
        _clear_memos()
