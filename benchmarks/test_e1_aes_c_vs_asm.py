"""E1 (paper section 6): AES C port vs hand assembly on the Rabbit.

Regenerates the paper's headline measurement: the testbench that pumps
keys through both AES implementations, reporting cycles per block and
the speed ratio.  The asserted shape: assembly >= 10x faster.
"""

import pytest

from repro.dync.compiler import CompilerOptions
from repro.experiments.e1_aes import measure_implementation, run_e1
from repro.rabbit.board import Board
from repro.rabbit.programs.aes_asm import AesAsm, build_aes_asm
from repro.rabbit.programs.aes_c import AesC, build_aes_c


@pytest.fixture(scope="module")
def e1_result():
    return run_e1(keys=2, blocks_per_key=2)


@pytest.mark.experiment("E1")
def test_e1_reproduces(e1_result, print_result):
    print_result(e1_result)
    assert e1_result.reproduced, e1_result.summary


def test_e1_ratio_is_order_of_magnitude(e1_result):
    c_cycles = e1_result.rows[0]["cycles/block"]
    asm_cycles = e1_result.rows[1]["cycles/block"]
    assert c_cycles / asm_cycles >= 10.0


def test_e1_asm_absolute_speed_sane(e1_result):
    # The assembly cipher should beat 10 KB/s at 30 MHz -- otherwise the
    # redirector product would have been hopeless.
    assert e1_result.rows[1]["KB/s"] > 10


@pytest.mark.benchmark(group="e1-aes")
def test_bench_c_port_block(benchmark):
    """Wall-clock cost of emulating one C-port AES block."""
    implementation = AesC(Board(), build_aes_c(CompilerOptions()))
    implementation.set_key(bytes(range(16)))
    benchmark(implementation.encrypt_block, bytes(16))


@pytest.mark.benchmark(group="e1-aes")
def test_bench_asm_block(benchmark):
    """Wall-clock cost of emulating one hand-assembly AES block."""
    implementation = AesAsm(Board(), build_aes_asm())
    implementation.set_key(bytes(range(16)))
    benchmark(implementation.encrypt_block, bytes(16))


@pytest.mark.benchmark(group="e1-aes")
def test_bench_full_testbench(benchmark):
    """The whole pump-keys-through-both testbench, one key one block."""

    def testbench():
        c_impl = AesC(Board(), build_aes_c(CompilerOptions()))
        asm_impl = AesAsm(Board(), build_aes_asm())
        measure_implementation(c_impl, 1, 1, "c")
        measure_implementation(asm_impl, 1, 1, "asm")

    benchmark.pedantic(testbench, rounds=1, iterations=1)
