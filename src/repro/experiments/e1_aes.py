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

from dataclasses import dataclass, replace

from repro.crypto.rijndael import Rijndael
from repro.dync.compiler import CompilerOptions
from repro.experiments.aes_builds import ASSEMBLY, BUILDS
from repro.experiments.harness import ExperimentResult
from repro.obs.profile import (
    CycleProfiler,
    assembly_function_symbols,
    compiled_function_symbols,
)
from repro.rabbit.board import CLOCK_HZ


@dataclass(frozen=True)
class AesMeasurement:
    """Cycle counts for one implementation, per key and per block in
    workload order."""

    name: str
    key_cycles: tuple[int, ...]
    block_cycles: tuple[int, ...]
    blocks_per_key: int
    code_size: int

    @property
    def keys(self) -> int:
        return len(self.key_cycles)

    @property
    def blocks(self) -> int:
        return len(self.block_cycles)

    @property
    def key_schedule_cycles(self) -> int:
        return sum(self.key_cycles)

    @property
    def encrypt_cycles(self) -> int:
        return sum(self.block_cycles)

    @property
    def cycles_per_block(self) -> float:
        return self.encrypt_cycles / self.blocks

    @property
    def blocks_per_second(self) -> float:
        return CLOCK_HZ / self.cycles_per_block

    @property
    def throughput_bytes_per_second(self) -> float:
        return 16 * self.blocks_per_second

    def prefix(self, keys: int,
               blocks_per_key: int) -> "AesMeasurement | None":
        """This run cut to the ``(keys, blocks_per_key)`` workload, or
        ``None`` when that workload is not a prefix of this one's.

        The workload runs key by key, so ``(1, B')`` is a prefix when
        ``B'`` is at most this run's blocks per key, and ``(K', B)``
        when the blocks per key match and ``K'`` is at most its keys.
        Every block's cycles depend on its data, so no other cut (and
        no mean) stands in for a run.
        """
        if not (keys == 1 and blocks_per_key <= self.blocks_per_key
                or blocks_per_key == self.blocks_per_key
                and keys <= self.keys):
            return None
        return replace(
            self,
            key_cycles=self.key_cycles[:keys],
            block_cycles=self.block_cycles[:keys * blocks_per_key],
            blocks_per_key=blocks_per_key,
        )


def _workload(keys: int, blocks_per_key: int):
    for key_index in range(keys):
        key = bytes((key_index * 17 + j * 31 + 3) & 0xFF for j in range(16))
        blocks = [
            bytes((key_index + j * 13 + b * 7) & 0xFF for j in range(16))
            for b in range(blocks_per_key)
        ]
        yield key, blocks


def measure_implementation(implementation, keys: int,
                           blocks_per_key: int, name: str,
                           after_key=None) -> AesMeasurement:
    """Pump the workload through one implementation, verifying output;
    ``after_key()``, when given, runs after each key's blocks."""
    key_cycles = []
    block_cycles = []
    for key, blocks in _workload(keys, blocks_per_key):
        reference = Rijndael(key)
        key_cycles.append(implementation.set_key(key))
        for block in blocks:
            ciphertext, cycles = implementation.encrypt_block(block)
            if ciphertext != reference.encrypt_block(block):
                raise AssertionError(
                    f"{name}: wrong ciphertext for key={key.hex()}"
                )
            block_cycles.append(cycles)
        if after_key is not None:
            after_key()
    return AesMeasurement(
        name=name,
        key_cycles=tuple(key_cycles),
        block_cycles=tuple(block_cycles),
        blocks_per_key=blocks_per_key,
        code_size=implementation.code_size,
    )


def measure_profiled(implementation, keys: int, blocks_per_key: int,
                     name: str, symbols: dict[str, int]):
    """:func:`measure_implementation` under a
    :class:`~repro.obs.profile.CycleProfiler` over ``symbols``; returns
    the run and the profiler's
    :meth:`~repro.obs.profile.CycleProfiler.report_rows` after each key
    (the last are the whole run's)."""
    profiler = CycleProfiler(implementation.board.cpu, symbols)
    profiles = []
    with profiler:
        measurement = measure_implementation(
            implementation, keys, blocks_per_key, name,
            after_key=lambda: profiles.append(profiler.report_rows()),
        )
    return measurement, profiles


def run_e1(keys: int = 2, blocks_per_key: int = 2) -> ExperimentResult:
    """Run the E1 testbench; returns the result record.

    Each implementation runs under a
    :class:`repro.obs.profile.CycleProfiler` and the result carries
    per-routine cycle attribution in ``extra_tables`` -- the answer to
    *where* the order of magnitude goes, not just that it does.  Both
    builds come from :data:`~repro.experiments.aes_builds.BUILDS`, and
    both runs are kept there, with their profile rows at each key, for
    E2 and E3.
    """
    c_impl = BUILDS.load(CompilerOptions())
    asm_impl = BUILDS.load(ASSEMBLY)
    c_measurement, c_profiles = measure_profiled(
        c_impl, keys, blocks_per_key, "C port (Dynamic C defaults)",
        compiled_function_symbols(c_impl.program.compilation),
    )
    asm_measurement, asm_profiles = measure_profiled(
        asm_impl, keys, blocks_per_key, "hand assembly",
        assembly_function_symbols(asm_impl.assembly, prefix="aes_"),
    )
    BUILDS.keep(CompilerOptions(), c_measurement, c_profiles)
    BUILDS.keep(ASSEMBLY, asm_measurement, asm_profiles)
    extra_tables = {
        "C port: cycles by routine": c_profiles[-1][:8],
        "hand assembly: cycles by routine": asm_profiles[-1],
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
