"""Calibration drift: costmodel presets vs freshly measured E1 cycles.

E4's network-level numbers are only as honest as the
``repro.issl.costmodel`` presets they charge crypto time at, and those
presets are constants calibrated from E1 (EXPERIMENTS.md "Calibration
loop").  This gate re-measures AES cycles/block on the cycle-counting
board and asserts the presets still match, so a compiler or emulator
change cannot silently decouple the throughput story from the
instruction-level measurement.
"""

import pytest

from repro.experiments.e1_aes import measure_implementation
from repro.issl.costmodel import RMC2000_ASM, RMC2000_C_PORT
from repro.rabbit.board import Board
from repro.rabbit.programs.aes_asm import AesAsm, build_aes_asm
from repro.rabbit.programs.aes_c import AesC, build_aes_c

#: Presets round the measured values (and per-block cost wobbles a few
#: percent with key/block mix), so the leash is loose-ish -- but far
#: tighter than any change that would move the E4 story.
CALIBRATION_RTOL = 0.10


def _measured_cycles_per_block(implementation) -> float:
    return measure_implementation(
        implementation, keys=1, blocks_per_key=2, name="calibration"
    ).cycles_per_block


def test_c_port_preset_matches_measurement():
    measured = _measured_cycles_per_block(
        AesC(Board(), build_aes_c(include_decrypt=False))
    )
    assert measured == pytest.approx(
        RMC2000_C_PORT.cycles_per_aes_block, rel=CALIBRATION_RTOL
    ), (
        f"RMC2000_C_PORT.cycles_per_aes_block="
        f"{RMC2000_C_PORT.cycles_per_aes_block} has drifted from the "
        f"fresh E1 measurement {measured:.0f}; recalibrate the preset "
        f"(and refresh BENCH_baseline.json)"
    )


def test_asm_preset_matches_measurement():
    measured = _measured_cycles_per_block(
        AesAsm(Board(), build_aes_asm(include_decrypt=False))
    )
    assert measured == pytest.approx(
        RMC2000_ASM.cycles_per_aes_block, rel=CALIBRATION_RTOL
    ), (
        f"RMC2000_ASM.cycles_per_aes_block="
        f"{RMC2000_ASM.cycles_per_aes_block} has drifted from the fresh "
        f"E1 measurement {measured:.0f}; recalibrate the preset "
        f"(and refresh BENCH_baseline.json)"
    )


def test_presets_preserve_e1_order_of_magnitude():
    """The two presets must keep encoding the paper's headline ratio."""
    ratio = (RMC2000_C_PORT.cycles_per_aes_block
             / RMC2000_ASM.cycles_per_aes_block)
    assert ratio >= 10.0
