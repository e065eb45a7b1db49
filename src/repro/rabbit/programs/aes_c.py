"""The straightforward C port of AES-128 (DESIGN.md S13).

This is the code the paper's authors carried over from issl: clean,
portable, byte-oriented C with no platform tricks -- the version the
Dynamic C compiler chews on in experiment E1, and whose knobs the E2
sweep turns.  Compare :mod:`repro.rabbit.programs.aes_asm`.
"""

from __future__ import annotations

from repro.crypto.gf import INV_SBOX, SBOX
from repro.dync.compiler import (
    Compilation,
    CompiledProgram,
    CompilerOptions,
    compile_source,
)
from repro.rabbit.board import Board


def _sbox_initializer() -> str:
    rows = []
    for i in range(0, 256, 16):
        rows.append(", ".join(str(b) for b in SBOX[i: i + 16]))
    return ",\n    ".join(rows)


def _inv_sbox_initializer() -> str:
    rows = []
    for i in range(0, 256, 16):
        rows.append(", ".join(str(b) for b in INV_SBOX[i: i + 16]))
    return ",\n    ".join(rows)


#: Encryption-only source: the artifact the paper's section 6
#: testbench measured ("pumped keys through the two
#: implementations of the AES cipher").
AES_C_ENCRYPT_SOURCE = f"""
/* AES-128 encryption: straightforward portable C (Rijndael reference
 * style), as carried over from issl.  Locals are static by default --
 * this is Dynamic C -- and all state is statically allocated because
 * the port removed malloc (paper, section 5.2). */

const char sbox[256] = {{
    {_sbox_initializer()}
}};

char state[16];
char key[16];
char rk[176];
char rcon;

int xtime_c(int x) {{
    int y;
    y = x + x;
    if (y & 256) y = y ^ 283;
    return y & 255;
}}

void expand_key(void) {{
    int i;
    int t0; int t1; int t2; int t3; int tmp;
    for (i = 0; i < 16; i = i + 1) rk[i] = key[i];
    rcon = 1;
    for (i = 16; i < 176; i = i + 4) {{
        t0 = rk[i - 4]; t1 = rk[i - 3]; t2 = rk[i - 2]; t3 = rk[i - 1];
        if ((i & 15) == 0) {{
            tmp = t0;
            t0 = sbox[t1] ^ rcon;
            t1 = sbox[t2];
            t2 = sbox[t3];
            t3 = sbox[tmp];
            rcon = xtime_c(rcon);
        }}
        rk[i]     = rk[i - 16] ^ t0;
        rk[i + 1] = rk[i - 15] ^ t1;
        rk[i + 2] = rk[i - 14] ^ t2;
        rk[i + 3] = rk[i - 13] ^ t3;
    }}
}}

void add_round_key(int round) {{
    int i;
    int base;
    base = round * 16;
    for (i = 0; i < 16; i = i + 1)
        state[i] = state[i] ^ rk[base + i];
}}

void sub_bytes(void) {{
    int i;
    for (i = 0; i < 16; i = i + 1) state[i] = sbox[state[i]];
}}

void shift_rows(void) {{
    int t;
    t = state[1];  state[1]  = state[5];  state[5]  = state[9];
    state[9] = state[13];    state[13] = t;
    t = state[2];  state[2]  = state[10]; state[10] = t;
    t = state[6];  state[6]  = state[14]; state[14] = t;
    t = state[3];  state[3]  = state[15]; state[15] = state[11];
    state[11] = state[7];    state[7]  = t;
}}

void mix_columns(void) {{
    int c; int i;
    int a0; int a1; int a2; int a3;
    for (c = 0; c < 4; c = c + 1) {{
        i = c * 4;
        a0 = state[i]; a1 = state[i + 1]; a2 = state[i + 2]; a3 = state[i + 3];
        state[i]     = xtime_c(a0) ^ (xtime_c(a1) ^ a1) ^ a2 ^ a3;
        state[i + 1] = a0 ^ xtime_c(a1) ^ (xtime_c(a2) ^ a2) ^ a3;
        state[i + 2] = a0 ^ a1 ^ xtime_c(a2) ^ (xtime_c(a3) ^ a3);
        state[i + 3] = (xtime_c(a0) ^ a0) ^ a1 ^ a2 ^ xtime_c(a3);
    }}
}}

void aes_set_key(void) {{
    expand_key();
}}

void aes_encrypt(void) {{
    int round;
    add_round_key(0);
    for (round = 1; round < 10; round = round + 1) {{
        sub_bytes();
        shift_rows();
        mix_columns();
        add_round_key(round);
    }}
    sub_bytes();
    shift_rows();
    add_round_key(10);
}}

"""

#: Decryption add-on (issl needs both directions in production).
AES_C_DECRYPT_EXTRAS = f"""
const char inv_sbox[256] = {{
    {_inv_sbox_initializer()}
}};

int mul2(int x) {{ return xtime_c(x); }}
int mul9(int x)  {{ return xtime_c(xtime_c(xtime_c(x))) ^ x; }}
int mul11(int x) {{ return xtime_c(xtime_c(xtime_c(x)) ^ x) ^ x; }}
int mul13(int x) {{ return xtime_c(xtime_c(xtime_c(x) ^ x)) ^ x; }}
int mul14(int x) {{ return xtime_c(xtime_c(xtime_c(x) ^ x) ^ x); }}

void inv_sub_bytes(void) {{
    int i;
    for (i = 0; i < 16; i = i + 1) state[i] = inv_sbox[state[i]];
}}

void inv_shift_rows(void) {{
    int t;
    t = state[13]; state[13] = state[9]; state[9] = state[5];
    state[5] = state[1];  state[1] = t;
    t = state[2];  state[2] = state[10]; state[10] = t;
    t = state[6];  state[6] = state[14]; state[14] = t;
    t = state[7];  state[7] = state[11]; state[11] = state[15];
    state[15] = state[3]; state[3] = t;
}}

void inv_mix_columns(void) {{
    int c; int i;
    int a0; int a1; int a2; int a3;
    for (c = 0; c < 4; c = c + 1) {{
        i = c * 4;
        a0 = state[i]; a1 = state[i + 1]; a2 = state[i + 2]; a3 = state[i + 3];
        state[i]     = mul14(a0) ^ mul11(a1) ^ mul13(a2) ^ mul9(a3);
        state[i + 1] = mul9(a0) ^ mul14(a1) ^ mul11(a2) ^ mul13(a3);
        state[i + 2] = mul13(a0) ^ mul9(a1) ^ mul14(a2) ^ mul11(a3);
        state[i + 3] = mul11(a0) ^ mul13(a1) ^ mul9(a2) ^ mul14(a3);
    }}
}}

void aes_decrypt(void) {{
    int round;
    add_round_key(10);
    for (round = 9; round > 0; round = round - 1) {{
        inv_shift_rows();
        inv_sub_bytes();
        add_round_key(round);
        inv_mix_columns();
    }}
    inv_shift_rows();
    inv_sub_bytes();
    add_round_key(0);
}}
"""

#: The full Dynamic C subset source (both directions).
AES_C_SOURCE = AES_C_ENCRYPT_SOURCE + AES_C_DECRYPT_EXTRAS


def build_aes_c(options: CompilerOptions | None = None,
                include_decrypt: bool = True) -> Compilation:
    """Compile the C port under ``options``; load it with :class:`AesC`."""
    source = AES_C_SOURCE if include_decrypt else AES_C_ENCRYPT_SOURCE
    return compile_source(source, options)


class AesC:
    """The compiled C port, with the same interface as :class:`AesAsm`.

    Loads a build from :func:`build_aes_c` onto ``board``; a build
    without decryption has no ``aes_decrypt`` to call.
    """

    def __init__(self, board: Board, compilation: Compilation):
        self.board = board
        self.program = CompiledProgram(board, compilation)
        self.code_size = self.program.code_size

    def set_key(self, key: bytes) -> int:
        if len(key) != 16:
            raise ValueError("AES-128 key must be 16 bytes")
        self.program.poke_bytes("key", key)
        return self.program.call("aes_set_key")

    def encrypt_block(self, block: bytes) -> tuple[bytes, int]:
        if len(block) != 16:
            raise ValueError("AES block must be 16 bytes")
        self.program.poke_bytes("state", block)
        cycles = self.program.call("aes_encrypt")
        return self.program.peek_bytes("state", 16), cycles

    def decrypt_block(self, block: bytes) -> tuple[bytes, int]:
        if len(block) != 16:
            raise ValueError("AES block must be 16 bytes")
        self.program.poke_bytes("state", block)
        cycles = self.program.call("aes_decrypt")
        return self.program.peek_bytes("state", 16), cycles
