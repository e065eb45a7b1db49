"""E1: the C port of AES vs. hand-coded assembly (paper, Section 6).

"A testbench that pumped keys through the two implementations of the
AES cipher showed the assembly implementation ran faster than the C
port by a factor of [more than an order of magnitude]."

The testbench pumps ``keys`` distinct keys through both implementations
on the cycle-counting Rabbit core: for each key, run the key schedule
and encrypt ``blocks_per_key`` blocks; cross-check every ciphertext
against the Python reference.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.crypto.rijndael import Rijndael
from repro.experiments.harness import ExperimentResult
from repro.obs.profile import (
    CycleProfiler,
    assembly_function_symbols,
    compiled_function_symbols,
)
from repro.rabbit.board import Board, CLOCK_HZ
from repro.rabbit.programs.aes_asm import AesAsm
from repro.rabbit.programs.aes_c import AesC


@dataclass
class AesMeasurement:
    """Cycle counts for one implementation over the whole workload."""

    name: str
    key_schedule_cycles: int
    encrypt_cycles: int
    blocks: int
    code_size: int

    @property
    def cycles_per_block(self) -> float:
        return self.encrypt_cycles / self.blocks

    @property
    def blocks_per_second(self) -> float:
        return CLOCK_HZ / self.cycles_per_block

    @property
    def throughput_bytes_per_second(self) -> float:
        return 16 * self.blocks_per_second


def _workload(keys: int, blocks_per_key: int):
    for key_index in range(keys):
        key = bytes((key_index * 17 + j * 31 + 3) & 0xFF for j in range(16))
        blocks = [
            bytes((key_index + j * 13 + b * 7) & 0xFF for j in range(16))
            for b in range(blocks_per_key)
        ]
        yield key, blocks


def measure_implementation(implementation, keys: int,
                           blocks_per_key: int, name: str) -> AesMeasurement:
    """Pump the workload through one implementation, verifying output."""
    key_cycles = 0
    encrypt_cycles = 0
    total_blocks = 0
    for key, blocks in _workload(keys, blocks_per_key):
        reference = Rijndael(key)
        key_cycles += implementation.set_key(key)
        for block in blocks:
            ciphertext, cycles = implementation.encrypt_block(block)
            if ciphertext != reference.encrypt_block(block):
                raise AssertionError(
                    f"{name}: wrong ciphertext for key={key.hex()}"
                )
            encrypt_cycles += cycles
            total_blocks += 1
    return AesMeasurement(
        name=name,
        key_schedule_cycles=key_cycles,
        encrypt_cycles=encrypt_cycles,
        blocks=total_blocks,
        code_size=implementation.code_size,
    )


def run_e1(keys: int = 2, blocks_per_key: int = 2) -> ExperimentResult:
    """Run the E1 testbench; returns the result record.

    Each implementation runs under a
    :class:`repro.obs.profile.CycleProfiler` and the result carries
    per-routine cycle attribution in ``extra_tables`` -- the answer to
    *where* the order of magnitude goes, not just that it does.
    """
    c_impl = AesC(Board(), include_decrypt=False)
    asm_impl = AesAsm(Board(), include_decrypt=False)
    c_profiler = CycleProfiler(
        c_impl.board.cpu,
        compiled_function_symbols(c_impl.program.compilation),
    )
    asm_profiler = CycleProfiler(
        asm_impl.board.cpu,
        assembly_function_symbols(asm_impl.assembly, prefix="aes_"),
    )
    with c_profiler:
        c_measurement = measure_implementation(
            c_impl, keys, blocks_per_key, "C port (Dynamic C defaults)"
        )
    with asm_profiler:
        asm_measurement = measure_implementation(
            asm_impl, keys, blocks_per_key, "hand assembly"
        )
    extra_tables = {
        "C port: cycles by routine": c_profiler.report_rows(top=8),
        "hand assembly: cycles by routine": asm_profiler.report_rows(),
    }
    ratio = c_measurement.cycles_per_block / asm_measurement.cycles_per_block
    rows = [
        {
            "implementation": m.name,
            "cycles/block": round(m.cycles_per_block),
            "blocks/s @30MHz": round(m.blocks_per_second, 1),
            "KB/s": round(m.throughput_bytes_per_second / 1024, 2),
            "keysched cycles": m.key_schedule_cycles // keys,
            "code bytes": m.code_size,
        }
        for m in (c_measurement, asm_measurement)
    ]
    metrics = {
        "c_cycles_per_block": c_measurement.cycles_per_block,
        "asm_cycles_per_block": asm_measurement.cycles_per_block,
        "asm_over_c_speed_ratio": ratio,
        "c_code_bytes": c_measurement.code_size,
        "asm_code_bytes": asm_measurement.code_size,
        "c_key_schedule_cycles": c_measurement.key_schedule_cycles // keys,
        "asm_key_schedule_cycles": asm_measurement.key_schedule_cycles // keys,
        "c_kb_per_s": c_measurement.throughput_bytes_per_second / 1024,
        "asm_kb_per_s": asm_measurement.throughput_bytes_per_second / 1024,
        "blocks_measured": c_measurement.blocks,
    }
    return ExperimentResult(
        experiment_id="E1",
        title="AES: straightforward C port vs hand-coded assembly",
        paper_claim="assembly faster by more than an order of magnitude",
        rows=rows,
        metrics=metrics,
        summary=f"assembly is {ratio:.1f}x faster than the C port",
        reproduced=ratio >= 10.0,
        notes=(
            "every ciphertext cross-checked against the FIPS-197 "
            "reference implementation"
        ),
        extra_tables=extra_tables,
    )
