"""The Dynamic C subset bignum modexp on the board."""

import pytest

from repro.experiments.e10_rsa import _CASES
from repro.rabbit.asm import assemble
from repro.rabbit.board import Board
from repro.rabbit.fastcore import BlockCache
from repro.rabbit.memory import MemoryError_
from repro.rabbit.programs.rsa_c import generate_source, RsaC


@pytest.fixture(scope="module")
def rsa16():
    return RsaC(Board(), n_bytes=2)


class TestModexp:
    @pytest.mark.parametrize("base,exp,mod", [
        (2, 10, 1000),
        (0x1234, 3, 0xFFF1),
        (1, 0xFFFF, 0xFFF1),
        (0xFFF0, 0xFFFF, 0xFFF1),
        (5, 0, 97),            # exponent zero -> 1
        (0, 5, 97),            # base zero -> 0
    ])
    def test_matches_python_pow(self, rsa16, base, exp, mod):
        result, cycles = rsa16.modexp(base % mod, exp, mod)
        assert result == pow(base % mod, exp, mod)
        assert cycles > 0

    def test_range_validation(self, rsa16):
        with pytest.raises(ValueError):
            rsa16.modexp(1, 1, 1 << 16)   # modulus too wide
        with pytest.raises(ValueError):
            rsa16.modexp(100, 1, 50)      # base not reduced

    def test_generate_source_width_validation(self):
        with pytest.raises(ValueError):
            generate_source(1)
        with pytest.raises(ValueError):
            generate_source(64)

    def test_cycles_grow_with_width(self, rsa16):
        rsa24 = RsaC(Board(), n_bytes=3)
        _, c16 = rsa16.modexp(0x1234, 0xFFF1, 0xFFF1 + 0x0A)
        _, c24 = rsa24.modexp(0x1234, 0xFFFFF1, 0xFFFFFB)
        assert c24 > 2 * c16


def _counters(cache):
    return (cache.executed_blocks, cache.translated_execs,
            cache.decoded_blocks, cache.translated_blocks)


class TestBlockCounters:
    """How the dispatch loop finds and runs blocks may change; what it
    runs may not.  Each iteration of a self-loop run inside its
    translated function is still one executed, translated block."""

    def test_one_modexp(self):
        base, exponent, modulus = _CASES[2]
        rsa = RsaC(Board(), n_bytes=2)
        rsa.modexp(base % modulus, exponent, modulus)
        assert _counters(rsa.board.cpu._cache) == (58420, 54374, 83, 55)

    # A 100-pass self-loop, then a block that stores to the data
    # segment and raises at its store into flash.
    RAISES = """
        org 0
        ld   b, 100
loop:   inc  hl
        djnz loop
        ld   b, 80
again:  ld   a, b
        ld   (0xC000), a
        ld   (0x0300), hl
        djnz again
        halt
"""

    @pytest.mark.parametrize("threshold,counters", [
        (1, (101, 101, 3, 3)),
        (64, (101, 36, 3, 1)),
    ])
    def test_a_block_that_raises_is_counted(self, threshold, counters):
        board = Board()
        cpu = board.cpu
        cpu._cache = BlockCache(cpu)
        cpu._cache.translate_threshold = threshold
        board.program(assemble(self.RAISES).code)
        with pytest.raises(MemoryError_, match="without unlock"):
            cpu.run(max_instructions=10_000)
        assert (cpu.instructions, cpu.pc) == (204, 14)
        assert _counters(cpu._cache) == counters
