"""The paper's Section 6 measurement, interactive.

    python examples/aes_shootout.py

Compiles the straightforward C port of AES-128 at every optimization
setting, assembles the hand-optimized version, runs them all on the
cycle-counting Rabbit 2000, verifies every ciphertext against FIPS-197,
and prints the table the paper summarizes in prose.
"""

from repro.crypto.rijndael import Rijndael
from repro.dync.compiler import CompilerOptions
from repro.experiments.harness import format_table
from repro.rabbit.board import Board, CLOCK_HZ
from repro.rabbit.programs.aes_asm import AesAsm, build_aes_asm
from repro.rabbit.programs.aes_c import AesC, build_aes_c

KEY = bytes.fromhex("000102030405060708090a0b0c0d0e0f")
BLOCK = bytes.fromhex("00112233445566778899aabbccddeeff")

CONFIGS = [
    ("C, Dynamic C defaults", CompilerOptions()),
    ("C, data in root RAM", CompilerOptions(data_placement="root_ram")),
    ("C, loops unrolled", CompilerOptions(unroll=True)),
    ("C, debugging off", CompilerOptions(debug=False)),
    ("C, optimizer on", CompilerOptions(optimize=True)),
    ("C, everything on", CompilerOptions(debug=False, optimize=True,
                                         unroll=True,
                                         data_placement="root_ram")),
]


def main() -> None:
    reference = Rijndael(KEY)
    expected = reference.encrypt_block(BLOCK)
    rows = []
    baseline = None
    for label, options in CONFIGS:
        implementation = AesC(Board(), build_aes_c(options))
        implementation.set_key(KEY)
        ciphertext, cycles = implementation.encrypt_block(BLOCK)
        assert ciphertext == expected, label
        if baseline is None:
            baseline = cycles
        rows.append({
            "implementation": label,
            "cycles/block": cycles,
            "us @30MHz": round(cycles / CLOCK_HZ * 1e6, 1),
            "KB/s": round(16 * CLOCK_HZ / cycles / 1024, 2),
            "vs default": f"{(baseline - cycles) / baseline * 100:+.1f}%",
            "code bytes": implementation.code_size,
        })
    asm = AesAsm(Board(), build_aes_asm())
    asm.set_key(KEY)
    ciphertext, cycles = asm.encrypt_block(BLOCK)
    assert ciphertext == expected
    rows.append({
        "implementation": "hand-coded assembly",
        "cycles/block": cycles,
        "us @30MHz": round(cycles / CLOCK_HZ * 1e6, 1),
        "KB/s": round(16 * CLOCK_HZ / cycles / 1024, 2),
        "vs default": f"{(baseline - cycles) / baseline * 100:+.1f}%",
        "code bytes": asm.code_size,
    })
    print(format_table(rows))
    ratio = baseline / cycles
    print(f"\nAssembly vs default C port: {ratio:.1f}x faster")
    print("(paper: \"faster than the C port by a factor of\" more than an")
    print(" order of magnitude; C-level optimizations \"only improved run")
    print(" time by perhaps 20%\")")


if __name__ == "__main__":
    main()
