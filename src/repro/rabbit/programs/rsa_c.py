"""Modular exponentiation in the Dynamic C subset (DESIGN.md S13).

The paper's port dropped RSA because the bignum package was "too
complicated to rework."  This module quantifies the decision the
reworking would have bought: a small, clean bignum (byte-limb arrays,
Russian-peasant modular multiply -- no division anywhere) compiled by
the Dynamic C subset compiler and run on the cycle-counting board.

Measured cycles scale as O(bits^3); experiment E10 measures small
moduli directly and extrapolates to RSA-512 to show the handshake cost
that made the authors abandon RSA rather than rework the bignum.

The generated program works on ``N``-byte little-endian operands:

    mod_[N], base_[N], exp_[N]  -- inputs
    acc_[N]                     -- modexp result
    rsa_modexp()                -- acc_ = base_ ^ exp_  (mod mod_)

Requires mod_ > base_ and a modulus with its top bit clear is fine; the
classic add-and-reduce invariant only needs operands < mod_.
"""

from __future__ import annotations

from repro.dync.compiler import (
    CompiledProgram,
    CompilerOptions,
    compile_source,
)
from repro.rabbit.board import Board


def generate_source(n_bytes: int) -> str:
    """The Dynamic C subset source for an ``n_bytes``-limb modexp."""
    if not 2 <= n_bytes <= 32:
        raise ValueError("n_bytes must be in [2, 32]")
    return f"""
/* bignum modexp, byte limbs, little-endian; N = {n_bytes} bytes */

char mod_[{n_bytes}];
char base_[{n_bytes}];
char exp_[{n_bytes}];
char acc_[{n_bytes}];
char prod_[{n_bytes}];
char dbl_[{n_bytes}];
char sqr_[{n_bytes}];

/* a >= b ? */
int geq(char* a, char* b) {{
    int i;
    for (i = {n_bytes} - 1; i >= 0; i = i - 1) {{
        if (a[i] > b[i]) return 1;
        if (a[i] < b[i]) return 0;
    }}
    return 1;
}}

/* a = a - b (callers guarantee a >= b) */
void sub_(char* a, char* b) {{
    int i; int borrow; int t;
    borrow = 0;
    for (i = 0; i < {n_bytes}; i = i + 1) {{
        t = a[i] - b[i] - borrow;
        if (t < 0) {{ t = t + 256; borrow = 1; }} else borrow = 0;
        a[i] = t;
    }}
}}

/* a = (a + b) mod mod_ ; requires a, b < mod_ */
void addmod(char* a, char* b) {{
    int i; int carry; int t;
    carry = 0;
    for (i = 0; i < {n_bytes}; i = i + 1) {{
        t = a[i] + b[i] + carry;
        a[i] = t & 255;
        carry = t >> 8;
    }}
    /* a+b < 2*mod_ < 2^(8N+1): at most one subtraction, and a carry
     * out means the true value exceeds 2^8N > mod_. */
    if (carry || geq(a, mod_)) sub_(a, mod_);
}}

void copy_(char* dst, char* src) {{
    int i;
    for (i = 0; i < {n_bytes}; i = i + 1) dst[i] = src[i];
}}

void zero_(char* a) {{
    int i;
    for (i = 0; i < {n_bytes}; i = i + 1) a[i] = 0;
}}

/* prod_ = (a * b) mod mod_ by shift-and-add (no division, ever) */
void modmul(char* a, char* b) {{
    int i; int bit; int byte;
    zero_(prod_);
    copy_(dbl_, a);
    for (i = 0; i < {8 * n_bytes}; i = i + 1) {{
        byte = b[i / 8];
        bit = (byte >> (i & 7)) & 1;
        if (bit) addmod(prod_, dbl_);
        addmod(dbl_, dbl_);
    }}
}}

/* acc_ = base_ ^ exp_ mod mod_, LSB-first square-and-multiply */
void rsa_modexp(void) {{
    int i; int bit; int byte;
    zero_(acc_);
    acc_[0] = 1;
    copy_(sqr_, base_);
    for (i = 0; i < {8 * n_bytes}; i = i + 1) {{
        byte = exp_[i / 8];
        bit = (byte >> (i & 7)) & 1;
        if (bit) {{
            modmul(acc_, sqr_);
            copy_(acc_, prod_);
        }}
        modmul(sqr_, sqr_);
        copy_(sqr_, prod_);
    }}
}}
"""


class RsaC:
    """Compiled modexp for ``n_bytes``-wide operands on a Board."""

    def __init__(self, board: Board, n_bytes: int,
                 options: CompilerOptions | None = None):
        self.board = board
        self.n_bytes = n_bytes
        self.program = CompiledProgram(board, compile_source(
            generate_source(n_bytes), options or CompilerOptions(debug=False),
        ))
        self.code_size = self.program.code_size

    def modexp(self, base: int, exponent: int, modulus: int) -> tuple[int, int]:
        """Compute base^exponent mod modulus on the board.

        Returns (result, cycles).  Operands must fit ``n_bytes`` and
        base must already be reduced mod modulus.
        """
        limit = 1 << (8 * self.n_bytes)
        if not 0 < modulus < limit:
            raise ValueError("modulus out of range for this build")
        if base >= modulus:
            raise ValueError("base must be < modulus")
        width = self.n_bytes
        self.program.poke_bytes("mod_", modulus.to_bytes(width, "little"))
        self.program.poke_bytes("base_", base.to_bytes(width, "little"))
        self.program.poke_bytes("exp_", exponent.to_bytes(width, "little"))
        cycles = self.program.call("rsa_modexp")
        result = int.from_bytes(
            self.program.peek_bytes("acc_", width), "little"
        )
        return result, cycles
