"""Ablations: how sensitive are the headline results to our modelling
choices?  (DESIGN.md section 5: "write ablation benches for the design
choices DESIGN.md calls out".)

A1  flash wait states: the E1 C-vs-asm ratio must not be an artifact of
    the memory timing model.
B1  record size: E4's throughput gap across request sizes.
C1  big-loop pass overhead: the Figure-3 service across loop costs.
D1  unroll limit: E2's unrolling knob across limits.
"""

import pytest

from repro.dync.compiler import CompilerOptions
from repro.experiments.e1_aes import measure_implementation
from repro.experiments.e4_throughput import _run_rmc_service
from repro.issl.costmodel import RMC2000_ASM
from repro.rabbit.board import Board
from repro.rabbit.programs.aes_asm import AesAsm, build_aes_asm
from repro.rabbit.programs.aes_c import AesC, build_aes_c


@pytest.mark.parametrize("wait_states", [0, 1, 3])
def test_a1_ratio_robust_to_flash_timing(wait_states):
    c_impl = AesC(Board(flash_wait_states=wait_states), build_aes_c())
    asm_impl = AesAsm(Board(flash_wait_states=wait_states), build_aes_asm())
    c_m = measure_implementation(c_impl, 1, 1, "c")
    asm_m = measure_implementation(asm_impl, 1, 1, "asm")
    ratio = c_m.cycles_per_block / asm_m.cycles_per_block
    # The conclusion (>=10x) holds at every plausible wait-state count.
    assert ratio >= 10.0, (wait_states, ratio)


@pytest.mark.parametrize("request_size", [32, 256, 768])
def test_b1_throughput_gap_across_record_sizes(request_size):
    plain, _obs = _run_rmc_service(False, 4, request_size, RMC2000_ASM)
    secure, _obs = _run_rmc_service(True, 4, request_size, RMC2000_ASM)
    ratio = plain.throughput_bps / secure.throughput_bps
    assert ratio >= 4.0, (request_size, ratio)


def test_b1_bigger_records_amortize_better():
    # Per-record overhead means tiny requests suffer relatively more.
    def goodput(size):
        report, _obs = _run_rmc_service(True, 4, size, RMC2000_ASM)
        return report.throughput_bps

    assert goodput(768) > goodput(32)


def _run_c1(pass_overhead_us, requests):
    """One client against Figure 3's service at a given big-loop cost."""
    from repro.crypto.demokeys import DEMO_PSK
    from repro.crypto.prng import CipherRng
    from repro.issl import FREE, IsslContext, UNIX_FULL
    from repro.services import (
        build_redirector_world,
        ClientReport,
        secure_request_client,
        TLS_PORT,
    )

    world = build_redirector_world(
        b"abl", clients=1, cost_model=FREE,
        pass_overhead_s=pass_overhead_us * 1e-6,
    )
    client = world.hosts["c0"]
    report = ClientReport("c")
    ctx = IsslContext(UNIX_FULL, CipherRng(b"c"), psk=DEMO_PSK)
    process = client.spawn(secure_request_client(
        client, ctx, "10.0.0.1", TLS_PORT, requests, 32, report))
    world.sim.run_until_complete(process, timeout=3600)
    return report


@pytest.mark.parametrize("pass_overhead_us", [2, 10, 50])
def test_c1_service_works_across_loop_costs(pass_overhead_us):
    report = _run_c1(pass_overhead_us, 2)
    assert report.error is None


def test_c1_slower_loop_means_slower_service():
    reports = {}
    for pass_overhead_us in (2, 50):
        report = _run_c1(pass_overhead_us, 3)
        assert report.error is None
        reports[pass_overhead_us] = report.end - report.start
    assert reports[50] > reports[2]


@pytest.mark.parametrize("unroll_limit", [4, 16, 32])
def test_d1_unroll_limit_correctness_and_monotone_size(unroll_limit):
    from repro.dync.compiler import compile_source
    from repro.rabbit.programs.aes_c import AES_C_SOURCE

    compilation = compile_source(
        AES_C_SOURCE,
        CompilerOptions(unroll=True, unroll_limit=unroll_limit),
    )
    assert compilation.code_size > 0


def test_d1_bigger_limit_unrolls_more():
    from repro.dync.compiler import compile_source

    source = """
        int acc;
        void main() {
            int i;
            for (i = 0; i < 20; i = i + 1) acc = acc + i;
        }
    """
    small = compile_source(source, CompilerOptions(unroll=True, unroll_limit=4))
    large = compile_source(source, CompilerOptions(unroll=True, unroll_limit=32))
    assert large.code_size > small.code_size  # 20-trip loop only unrolls at 32


@pytest.mark.benchmark(group="ablation")
def test_bench_e1_kernel_no_waits(benchmark):
    implementation = AesAsm(Board(flash_wait_states=0), build_aes_asm())
    implementation.set_key(bytes(16))
    benchmark(implementation.encrypt_block, bytes(16))
