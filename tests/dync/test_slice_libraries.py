"""Tests for the slice statement (preemptive multitasking) and the
#use library mechanism."""

import pytest

from repro.dync.compiler import (
    CompiledProgram,
    CompilerOptions,
    compile_source,
)
from repro.dync.compiler.libraries import (
    expand_uses,
    LibraryError,
    STANDARD_LIBRARIES,
)
from repro.dync.runtime.slice_stmt import Slice, SliceError, SliceScheduler
from repro.net.sim import Simulator
from repro.rabbit.board import Board


class TestSliceScheduler:
    def test_budget_preempts_long_body(self):
        sim = Simulator()
        scheduler = SliceScheduler(sim)
        trace = []

        def hog():
            for step in range(10):
                trace.append(("hog", step))
                yield 1

        def light():
            for step in range(2):
                trace.append(("light", step))
                yield 1

        hog_task = scheduler.add(hog(), budget_ticks=3)
        scheduler.add(light(), budget_ticks=3)
        scheduler.run_until_all_done()
        # The hog must have been preempted: 'light' entries appear
        # before the hog's 10 steps are done.
        light_first = trace.index(("light", 0))
        hog_last = trace.index(("hog", 9))
        assert light_first < hog_last
        assert hog_task.preemptions >= 2

    def test_voluntary_yield_of_remainder(self):
        sim = Simulator()
        scheduler = SliceScheduler(sim)
        order = []

        def polite():
            order.append("polite-1")
            yield -1  # give up the rest of my slice
            order.append("polite-2")
            yield 1

        def other():
            order.append("other")
            yield 1

        scheduler.add(polite(), budget_ticks=100)
        scheduler.add(other(), budget_ticks=100)
        scheduler.run_until_all_done()
        assert order.index("other") < order.index("polite-2")

    def test_time_advances_per_tick(self):
        sim = Simulator()
        scheduler = SliceScheduler(sim, tick_s=0.001)

        def body():
            for _ in range(5):
                yield 1

        scheduler.add(body(), budget_ticks=2)
        scheduler.run_until_all_done()
        assert sim.now >= 0.005

    def test_tick_accounting(self):
        sim = Simulator()
        scheduler = SliceScheduler(sim)

        def body():
            yield 3
            yield 2

        task = scheduler.add(body(), budget_ticks=10)
        scheduler.run_until_all_done()
        assert task.ticks_consumed == 5
        assert task.done

    def test_bad_budget(self):
        sim = Simulator()
        scheduler = SliceScheduler(sim)
        with pytest.raises(SliceError):
            scheduler.add(iter(()), budget_ticks=0)

    def test_double_start(self):
        sim = Simulator()
        scheduler = SliceScheduler(sim)
        scheduler.add(iter(()), budget_ticks=1)
        scheduler.start()
        with pytest.raises(SliceError):
            scheduler.start()

    def test_contrast_with_costates(self):
        # Costatements NEVER preempt: a body that refuses to yield hogs
        # the loop.  Slices cut it off.  This is the paper's 4.2 split.
        sim = Simulator()
        scheduler = SliceScheduler(sim)
        progress = []

        def stubborn():
            for step in range(100):
                progress.append(step)
                yield 1  # each step costs a tick but never volunteers

        def starved():
            progress.append("starved-ran")
            yield 1

        scheduler.add(stubborn(), budget_ticks=5)
        scheduler.add(starved(), budget_ticks=5)
        scheduler.run_until_all_done(timeout=120)
        assert progress.index("starved-ran") <= 6


class TestLibraries:
    def test_use_splices_library(self):
        source = '#use "rand.lib"\nint out;\nvoid main() { srand_(7); out = rand_(); }\n'
        expanded = expand_uses(source)
        assert "int rand_" in expanded
        assert "#use" not in expanded

    def test_use_is_idempotent(self):
        source = '#use "rand.lib"\n#use "rand.lib"\nint x;\n'
        expanded = expand_uses(source)
        assert expanded.count("int rand_") == 1

    def test_include_rejected(self):
        with pytest.raises(LibraryError, match="does not support #include"):
            expand_uses('#include <stdio.h>\nint x;\n')

    def test_unknown_library(self):
        with pytest.raises(LibraryError, match="no such library"):
            expand_uses('#use "nonsense.lib"\n')

    def test_rand_lib_compiles_and_runs(self):
        source = """
            #use "rand.lib"
            int a; int b; int c;
            void main() {
                srand_(1);
                a = rand_();
                b = rand_();
                srand_(1);
                c = rand_();
            }
        """
        program = CompiledProgram(
            Board(), compile_source(source, CompilerOptions(debug=False))
        )
        program.call("main")
        a, b, c = (program.peek_int(n) for n in "abc")
        assert 0 <= a <= 32767
        assert a != b          # stream advances
        assert a == c          # reseeding replays
        # Cross-check the LCG arithmetic in Python (16-bit wrap).
        expected = (1 * 25173 + 13849) & 0xFFFF
        assert a == expected & 32767

    def test_string_lib_memcpy_memcmp(self):
        source = """
            #use "string.lib"
            char src[8];
            char dst[8];
            int cmp_equal; int cmp_diff;
            void main() {
                int i;
                for (i = 0; i < 8; i = i + 1) src[i] = i * 7;
                memcpy_(dst, src, 8);
                cmp_equal = memcmp_(dst, src, 8);
                dst[3] = 99;
                cmp_diff = memcmp_(dst, src, 8);
            }
        """
        program = CompiledProgram(
            Board(), compile_source(source, CompilerOptions(debug=False))
        )
        program.call("main")
        assert program.peek_bytes("dst", 3) == bytes(i * 7 for i in range(3))
        assert program.peek_int("cmp_equal") == 0
        assert program.peek_int("cmp_diff") != 0

    def test_ringlog_lib_wraps(self):
        source = """
            #use "ringlog.lib"
            int count;
            void main() {
                int i;
                for (i = 0; i < 100; i = i + 1) ringlog_put(i);
                count = ringlog_count();
            }
        """
        program = CompiledProgram(
            Board(), compile_source(source, CompilerOptions(debug=False))
        )
        program.call("main")
        assert program.peek_int("count") == 64  # bounded, never grows past

    def test_registry_contents(self):
        assert set(STANDARD_LIBRARIES) == {"rand.lib", "string.lib",
                                           "ringlog.lib"}
