"""Predecoded basic-block execution for the Rabbit core.

The slow path (:meth:`repro.rabbit.cpu.Cpu.step`) re-fetches and
re-decodes every instruction through the octal-field dispatch chain.
This module decodes each straight-line run of instructions *once* into a
list of bound handler closures -- a basic block -- keyed by
``(logical PC, XPC)`` when the block sits in the bank window and by the
logical PC alone below it (those mappings are fixed).  The dispatch loop
(:meth:`repro.rabbit.cpu.Cpu._dispatch`) then runs one whole block per
dispatch, or a single step when the block could cross a stop: the
instruction budget, a stop address inside it, or the cycle target
(judged with :func:`cycle_ceiling`).

Exactness contract (the entire point -- E1/E2/E5 cycle counts must be
byte-identical to the single-step core):

* every closure self-accounts: ``cpu.cycles`` (base T-states + the
  instruction's fetch wait states precomputed at decode + data wait
  states measured dynamically), ``cpu.pc``, ``cpu.r``,
  ``cpu.instructions``, ``memory.reads``/``memory.wait_cycles`` for the
  fetch bytes it no longer reads;
* anything that can change control flow, interrupt state, bank mapping
  or talk to I/O ends its block (branches, CALL/RET/RST, HALT, EI/DI,
  IN/OUT, ``LD XPC, A``, the repeating block ops);
* anything not specialized falls back to a *generic* closure that calls
  ``cpu._step_instruction()`` -- it re-fetches at run time, so it is
  always correct, merely not faster;
* writes to pages holding decoded code invalidate the affected blocks
  and raise :attr:`BlockCache.bail`, which the dispatch loop checks
  after every closure and translated code after every write, so
  self-modifying code re-decodes mid-block exactly where the slow path
  would observe the new bytes;
* ``load_flash``/``load_sram`` (reprogramming) and wait-state changes
  drop the whole cache.

The repeating block ops (LDIR/LDDR/CPIR/CPDR) execute one iteration per
dispatch, rewinding PC like the slow path does, so instruction budgets
and cycle targets count their iterations exactly as the slow path does.

On top of the closure-list tier sits the *translated tier*
(:meth:`BlockCache.translate`): once a block has dispatched
``translate_threshold`` times, it is compiled into one specialized
function with the per-opcode dispatch loop eliminated and the counter
updates of template-able instruction runs fused into batched epilogues.
SMC write-watching, flush invalidation and the ``bail`` protocol extend
unchanged to translated blocks -- the write that invalidates a page
drops the block (translated function included) and the in-flight
execution returns at the next post-write check, exactly where the
closure-list tier would have broken out of its loop.
"""

from __future__ import annotations

import operator

from repro.rabbit.cpu import _PARITY, FLAG_C, FLAG_H, FLAG_N, FLAG_PV, FLAG_Z
from repro.rabbit.memory import FLASH_SIZE, SRAM_BASE, SRAM_SIZE

#: Longest straight-line run decoded into one block.
MAX_BLOCK_INSTRUCTIONS = 128


def cycle_ceiling(memory) -> int:
    """Upper bound on the cycles any instruction but a block's last one
    can charge at ``memory``'s current wait states.

    23 is the largest base T-state cost the decoders charge (the DD/FD
    CB bit ops, INC/DEC (IX+d), EX (SP),IX).  An unprefixed, CB or ED
    instruction makes at most six memory accesses (four fetch bytes plus
    two data bytes, e.g. ``LD (nn),BC``), each paying at most the larger
    of the two wait-state settings.  DD/FD-prefixed forms can exceed
    this (a prefix may repeat), but every one of them ends its block, so
    it only ever runs last -- and the dispatch loop's guard
    (``cycles + len(ops) * ceiling`` below the cycle target) only needs
    the instructions before the last to stay under the target.
    """
    return 23 + 6 * max(memory.flash_wait_states, memory.sram_wait_states)


#: 8-bit register attribute names by octal index (6 is (HL)).
_R8 = ("b", "c", "d", "e", "h", "l", None, "a")
#: 16-bit pair attribute halves by index (3 = SP, handled specially).
_RP = (("b", "c"), ("d", "e"), ("h", "l"), None)
#: Condition-code flag masks by index (NZ Z NC C PO PE P M).
_CC_MASK = (FLAG_Z, FLAG_Z, FLAG_C, FLAG_C, FLAG_PV, FLAG_PV, 0x80, 0x80)


def _step_op(cpu, memory):
    """Generic fallback: re-fetch and execute through the slow decoder."""
    cpu._step_instruction()


# ---------------------------------------------------------------------------
# Closure factories.  Each returned closure performs ONE instruction and
# fully self-accounts (see the module docstring's contract).
# ---------------------------------------------------------------------------

def _op_simple(body, length, base, np, fw):
    """Instruction with no data-memory traffic; ``body(cpu)`` mutates
    registers/flags only."""
    total = base + fw

    def op(cpu, memory):
        memory.reads += length
        memory.wait_cycles += fw
        body(cpu)
        cpu.pc = np
        cpu.cycles += total
        cpu.r = (cpu.r + 1) & 0x7F
        cpu.instructions += 1
    op._tmpl = ("simple", body, length, base, np, fw)
    return op


def _op_mem(body, length, base, np, fw):
    """Instruction whose ``body(cpu, memory)`` reads/writes data memory;
    data wait states are measured around the body, like the slow path."""
    def op(cpu, memory):
        memory.reads += length
        memory.wait_cycles += fw
        before = memory.wait_cycles
        body(cpu, memory)
        cpu.pc = np
        cpu.cycles += base + fw + (memory.wait_cycles - before)
        cpu.r = (cpu.r + 1) & 0x7F
        cpu.instructions += 1
    op._tmpl = ("mem", body, length, base, np, fw)
    return op


#: AND / XOR / OR as C-level callables, by ALU operation index.
_LOGIC_OPS = {4: operator.and_, 5: operator.xor, 6: operator.or_}


def _op_ld_rr_fused(dst, src, np, fw):
    """LD r, r' -- fully fused (the single hottest op class)."""
    total = 4 + fw

    def op(cpu, memory):
        memory.reads += 1
        memory.wait_cycles += fw
        setattr(cpu, dst, getattr(cpu, src))
        cpu.pc = np
        cpu.cycles += total
        cpu.r = (cpu.r + 1) & 0x7F
        cpu.instructions += 1
    op._tmpl = ("rr", dst, src, 1, 4, np, fw)
    return op


def _op_ld_rn_fused(dst, value, np, fw):
    total = 7 + fw

    def op(cpu, memory):
        memory.reads += 2
        memory.wait_cycles += fw
        setattr(cpu, dst, value)
        cpu.pc = np
        cpu.cycles += total
        cpu.r = (cpu.r + 1) & 0x7F
        cpu.instructions += 1
    op._tmpl = ("rn", dst, value, 2, 7, np, fw)
    return op


def _op_ld_r_mhl_fused(dst, np, fw):
    def op(cpu, memory):
        memory.reads += 1
        memory.wait_cycles += fw
        before = memory.wait_cycles
        setattr(cpu, dst, memory.read8((cpu.h << 8) | cpu.l))
        cpu.pc = np
        cpu.cycles += 7 + fw + (memory.wait_cycles - before)
        cpu.r = (cpu.r + 1) & 0x7F
        cpu.instructions += 1
    op._tmpl = ("mhl_read", dst, None, 1, 7, np, fw)
    return op


def _op_ld_mhl_r_fused(src, np, fw):
    def op(cpu, memory):
        memory.reads += 1
        memory.wait_cycles += fw
        before = memory.wait_cycles
        memory.write8((cpu.h << 8) | cpu.l, getattr(cpu, src))
        cpu.pc = np
        cpu.cycles += 7 + fw + (memory.wait_cycles - before)
        cpu.r = (cpu.r + 1) & 0x7F
        cpu.instructions += 1
    op._tmpl = ("mhl_write", src, None, 1, 7, np, fw)
    return op


def _op_incdec_r_fused(name, is_inc, np, fw):
    total = 4 + fw
    if is_inc:
        def op(cpu, memory):
            memory.reads += 1
            memory.wait_cycles += fw
            setattr(cpu, name, cpu._inc8(getattr(cpu, name)))
            cpu.pc = np
            cpu.cycles += total
            cpu.r = (cpu.r + 1) & 0x7F
            cpu.instructions += 1
        op._tmpl = ("incdec", name, True, 1, 4, np, fw)
        return op

    def op(cpu, memory):
        memory.reads += 1
        memory.wait_cycles += fw
        setattr(cpu, name, cpu._dec8(getattr(cpu, name)))
        cpu.pc = np
        cpu.cycles += total
        cpu.r = (cpu.r + 1) & 0x7F
        cpu.instructions += 1
    op._tmpl = ("incdec", name, False, 1, 4, np, fw)
    return op


def _op_logic_r_fused(operation, src, np, fw):
    """AND/XOR/OR r with inline flag math (crypto kernels live here)."""
    fn = _LOGIC_OPS[operation]
    half = FLAG_H if operation == 4 else 0
    total = 4 + fw

    def op(cpu, memory):
        memory.reads += 1
        memory.wait_cycles += fw
        a = fn(cpu.a, getattr(cpu, src))
        cpu.a = a
        f = (a & 0x80) | half
        if a == 0:
            f |= FLAG_Z
        if _PARITY[a]:
            f |= FLAG_PV
        cpu.f = f
        cpu.pc = np
        cpu.cycles += total
        cpu.r = (cpu.r + 1) & 0x7F
        cpu.instructions += 1
    op._tmpl = ("logic_r", operation, src, 1, 4, np, fw)
    return op


def _op_logic_n_fused(operation, value, np, fw):
    fn = _LOGIC_OPS[operation]
    half = FLAG_H if operation == 4 else 0
    total = 7 + fw

    def op(cpu, memory):
        memory.reads += 2
        memory.wait_cycles += fw
        a = fn(cpu.a, value)
        cpu.a = a
        f = (a & 0x80) | half
        if a == 0:
            f |= FLAG_Z
        if _PARITY[a]:
            f |= FLAG_PV
        cpu.f = f
        cpu.pc = np
        cpu.cycles += total
        cpu.r = (cpu.r + 1) & 0x7F
        cpu.instructions += 1
    op._tmpl = ("logic_n", operation, value, 2, 7, np, fw)
    return op


def _op_logic_mhl_fused(operation, np, fw):
    fn = _LOGIC_OPS[operation]
    half = FLAG_H if operation == 4 else 0

    def op(cpu, memory):
        memory.reads += 1
        memory.wait_cycles += fw
        before = memory.wait_cycles
        a = fn(cpu.a, memory.read8((cpu.h << 8) | cpu.l))
        cpu.a = a
        f = (a & 0x80) | half
        if a == 0:
            f |= FLAG_Z
        if _PARITY[a]:
            f |= FLAG_PV
        cpu.f = f
        cpu.pc = np
        cpu.cycles += 7 + fw + (memory.wait_cycles - before)
        cpu.r = (cpu.r + 1) & 0x7F
        cpu.instructions += 1
    op._tmpl = ("mhl_logic", operation, None, 1, 7, np, fw)
    return op


def _op_arith_r_fused(operation, src, np, fw):
    """ADD/ADC/SUB/SBC/CP r via the (already flattened) ALU helpers."""
    total = 4 + fw

    def op(cpu, memory):
        memory.reads += 1
        memory.wait_cycles += fw
        cpu._alu(operation, getattr(cpu, src))
        cpu.pc = np
        cpu.cycles += total
        cpu.r = (cpu.r + 1) & 0x7F
        cpu.instructions += 1
    op._tmpl = ("arith_r", operation, src, 1, 4, np, fw)
    return op


def _op_arith_n_fused(operation, value, np, fw):
    total = 7 + fw

    def op(cpu, memory):
        memory.reads += 2
        memory.wait_cycles += fw
        cpu._alu(operation, value)
        cpu.pc = np
        cpu.cycles += total
        cpu.r = (cpu.r + 1) & 0x7F
        cpu.instructions += 1
    op._tmpl = ("arith_n", operation, value, 2, 7, np, fw)
    return op


def _op_jr(target, fw, np=None, mask=0, want=False, taken=12, skipped=7):
    """JR d / JR cc, d (``np is None`` means unconditional)."""
    def op(cpu, memory):
        memory.reads += 2
        memory.wait_cycles += fw
        if np is None or ((cpu.f & mask) != 0) == want:
            cpu.pc = target
            cpu.cycles += taken + fw
        else:
            cpu.pc = np
            cpu.cycles += skipped + fw
        cpu.r = (cpu.r + 1) & 0x7F
        cpu.instructions += 1
    return op


def _op_djnz(target, np, fw):
    def op(cpu, memory):
        memory.reads += 2
        memory.wait_cycles += fw
        b = (cpu.b - 1) & 0xFF
        cpu.b = b
        if b:
            cpu.pc = target
            cpu.cycles += 13 + fw
        else:
            cpu.pc = np
            cpu.cycles += 8 + fw
        cpu.r = (cpu.r + 1) & 0x7F
        cpu.instructions += 1
    return op


def _op_jp(addr, length, fw):
    def op(cpu, memory):
        memory.reads += length
        memory.wait_cycles += fw
        cpu.pc = addr
        cpu.cycles += 10 + fw
        cpu.r = (cpu.r + 1) & 0x7F
        cpu.instructions += 1
    return op


def _op_jp_cc(addr, np, mask, want, fw):
    def op(cpu, memory):
        memory.reads += 3
        memory.wait_cycles += fw
        cpu.pc = addr if ((cpu.f & mask) != 0) == want else np
        cpu.cycles += 10 + fw
        cpu.r = (cpu.r + 1) & 0x7F
        cpu.instructions += 1
    return op


def _op_jp_hl(fw):
    def op(cpu, memory):
        memory.reads += 1
        memory.wait_cycles += fw
        cpu.pc = (cpu.h << 8) | cpu.l
        cpu.cycles += 4 + fw
        cpu.r = (cpu.r + 1) & 0x7F
        cpu.instructions += 1
    return op


def _op_call(addr, np, fw, mask=0, want=None):
    """CALL nn / CALL cc, nn (``want is None`` means unconditional)."""
    def op(cpu, memory):
        memory.reads += 3
        memory.wait_cycles += fw
        if want is None or ((cpu.f & mask) != 0) == want:
            before = memory.wait_cycles
            sp = (cpu.sp - 2) & 0xFFFF
            cpu.sp = sp
            memory.write8(sp, np & 0xFF)
            memory.write8((sp + 1) & 0xFFFF, np >> 8)
            cpu.pc = addr
            cpu.cycles += 17 + fw + (memory.wait_cycles - before)
        else:
            cpu.pc = np
            cpu.cycles += 10 + fw
        cpu.r = (cpu.r + 1) & 0x7F
        cpu.instructions += 1
    return op


def _op_rst(vector, np, fw):
    def op(cpu, memory):
        memory.reads += 1
        memory.wait_cycles += fw
        before = memory.wait_cycles
        sp = (cpu.sp - 2) & 0xFFFF
        cpu.sp = sp
        memory.write8(sp, np & 0xFF)
        memory.write8((sp + 1) & 0xFFFF, np >> 8)
        cpu.pc = vector
        cpu.cycles += 11 + fw + (memory.wait_cycles - before)
        cpu.r = (cpu.r + 1) & 0x7F
        cpu.instructions += 1
    return op


def _op_ret(fw, np=None, mask=0, want=False):
    """RET / RET cc (``np is None`` means unconditional)."""
    def op(cpu, memory):
        memory.reads += 1
        memory.wait_cycles += fw
        if np is None or ((cpu.f & mask) != 0) == want:
            before = memory.wait_cycles
            sp = cpu.sp
            lo = memory.read8(sp)
            hi = memory.read8((sp + 1) & 0xFFFF)
            cpu.sp = (sp + 2) & 0xFFFF
            cpu.pc = lo | (hi << 8)
            cpu.cycles += ((10 if np is None else 11) + fw
                           + (memory.wait_cycles - before))
        else:
            cpu.pc = np
            cpu.cycles += 5 + fw
        cpu.r = (cpu.r + 1) & 0x7F
        cpu.instructions += 1
    return op


def _op_ed_block(y, z, np, fw, start):
    """LDI/LDD/LDIR/LDDR (z=0) and CPI/CPD/CPIR/CPDR (z=1).

    Repeating forms rewind PC to the instruction start and run one
    iteration per dispatch, exactly like the slow path.
    """
    repeat = y >= 6
    inc = 1 if y in (4, 6) else -1
    if z == 0:
        def op(cpu, memory):
            memory.reads += 2
            memory.wait_cycles += fw
            before = memory.wait_cycles
            hl = (cpu.h << 8) | cpu.l
            de = (cpu.d << 8) | cpu.e
            memory.write8(de, memory.read8(hl))
            hl = (hl + inc) & 0xFFFF
            de = (de + inc) & 0xFFFF
            cpu.h = hl >> 8
            cpu.l = hl & 0xFF
            cpu.d = de >> 8
            cpu.e = de & 0xFF
            bc = (((cpu.b << 8) | cpu.c) - 1) & 0xFFFF
            cpu.b = bc >> 8
            cpu.c = bc & 0xFF
            f = cpu.f & ~(FLAG_N | FLAG_H | FLAG_PV) & 0xFF
            if bc:
                f |= FLAG_PV
            cpu.f = f
            if repeat and bc:
                cpu.pc = start
                cpu.cycles += 21 + fw + (memory.wait_cycles - before)
            else:
                cpu.pc = np
                cpu.cycles += 16 + fw + (memory.wait_cycles - before)
            cpu.r = (cpu.r + 1) & 0x7F
            cpu.instructions += 1
        return op

    def op(cpu, memory):
        memory.reads += 2
        memory.wait_cycles += fw
        before = memory.wait_cycles
        hl = (cpu.h << 8) | cpu.l
        value = memory.read8(hl)
        carry = cpu.f & FLAG_C
        cpu._sub8(cpu.a, value, 0, store_carry=False)
        if carry:
            cpu.f |= FLAG_C
        else:
            cpu.f &= ~FLAG_C & 0xFF
        hl = (hl + inc) & 0xFFFF
        cpu.h = hl >> 8
        cpu.l = hl & 0xFF
        bc = (((cpu.b << 8) | cpu.c) - 1) & 0xFFFF
        cpu.b = bc >> 8
        cpu.c = bc & 0xFF
        if bc:
            cpu.f |= FLAG_PV
        else:
            cpu.f &= ~FLAG_PV & 0xFF
        if repeat and bc and not (cpu.f & FLAG_Z):
            cpu.pc = start
            cpu.cycles += 21 + fw + (memory.wait_cycles - before)
        else:
            cpu.pc = np
            cpu.cycles += 16 + fw + (memory.wait_cycles - before)
        cpu.r = (cpu.r + 1) & 0x7F
        cpu.instructions += 1
    return op


# ---------------------------------------------------------------------------
# Register-op bodies (pure register/flag mutations for _op_simple).
# ---------------------------------------------------------------------------

def _body_ld_rp_nn(pair, value):
    if pair == 3:
        def body(cpu):
            cpu.sp = value
        return body
    hi, lo = _RP[pair]
    hi_v, lo_v = value >> 8, value & 0xFF

    def body(cpu):
        setattr(cpu, hi, hi_v)
        setattr(cpu, lo, lo_v)
    return body


def _body_incdec_rp(pair, delta):
    if pair == 3:
        def body(cpu):
            cpu.sp = (cpu.sp + delta) & 0xFFFF
        return body
    hi, lo = _RP[pair]

    def body(cpu):
        value = (((getattr(cpu, hi) << 8) | getattr(cpu, lo)) + delta) \
            & 0xFFFF
        setattr(cpu, hi, value >> 8)
        setattr(cpu, lo, value & 0xFF)
    return body


def _body_add_hl(pair):
    if pair == 3:
        def body(cpu):
            result = cpu._add16((cpu.h << 8) | cpu.l, cpu.sp)
            cpu.h = result >> 8
            cpu.l = result & 0xFF
        return body
    hi, lo = _RP[pair]

    def body(cpu):
        result = cpu._add16(
            (cpu.h << 8) | cpu.l,
            (getattr(cpu, hi) << 8) | getattr(cpu, lo),
        )
        cpu.h = result >> 8
        cpu.l = result & 0xFF
    return body


def _body_ex_af(cpu):
    cpu.a, cpu.a2 = cpu.a2, cpu.a
    cpu.f, cpu.f2 = cpu.f2, cpu.f


def _body_exx(cpu):
    cpu.b, cpu.b2 = cpu.b2, cpu.b
    cpu.c, cpu.c2 = cpu.c2, cpu.c
    cpu.d, cpu.d2 = cpu.d2, cpu.d
    cpu.e, cpu.e2 = cpu.e2, cpu.e
    cpu.h, cpu.h2 = cpu.h2, cpu.h
    cpu.l, cpu.l2 = cpu.l2, cpu.l


def _body_ex_de_hl(cpu):
    cpu.d, cpu.e, cpu.h, cpu.l = cpu.h, cpu.l, cpu.d, cpu.e


def _body_ld_sp_hl(cpu):
    cpu.sp = (cpu.h << 8) | cpu.l


def _body_rlca(cpu):
    a = cpu.a
    carry = a >> 7
    cpu.a = ((a << 1) | carry) & 0xFF
    f = cpu.f & ~(FLAG_C | FLAG_N | FLAG_H) & 0xFF
    cpu.f = (f | FLAG_C) if carry else f


def _body_rrca(cpu):
    a = cpu.a
    carry = a & 1
    cpu.a = (a >> 1) | (carry << 7)
    f = cpu.f & ~(FLAG_C | FLAG_N | FLAG_H) & 0xFF
    cpu.f = (f | FLAG_C) if carry else f


def _body_rla(cpu):
    a = cpu.a
    carry_in = cpu.f & FLAG_C
    carry = a >> 7
    cpu.a = ((a << 1) | carry_in) & 0xFF
    f = cpu.f & ~(FLAG_C | FLAG_N | FLAG_H) & 0xFF
    cpu.f = (f | FLAG_C) if carry else f


def _body_rra(cpu):
    a = cpu.a
    carry_in = cpu.f & FLAG_C
    carry = a & 1
    cpu.a = (a >> 1) | (carry_in << 7)
    f = cpu.f & ~(FLAG_C | FLAG_N | FLAG_H) & 0xFF
    cpu.f = (f | FLAG_C) if carry else f


def _body_daa(cpu):
    cpu._daa()


def _body_cpl(cpu):
    cpu.a ^= 0xFF
    cpu.f = (cpu.f | FLAG_N | FLAG_H) & 0xFF


def _body_scf(cpu):
    cpu.f = (cpu.f | FLAG_C) & ~(FLAG_N | FLAG_H) & 0xFF


def _body_ccf(cpu):
    f = cpu.f
    had_carry = f & FLAG_C
    f &= ~(FLAG_C | FLAG_N | FLAG_H) & 0xFF
    cpu.f = (f | FLAG_H) if had_carry else (f | FLAG_C)


_X0_Z7_BODIES = (_body_rlca, _body_rrca, _body_rla, _body_rra,
                 _body_daa, _body_cpl, _body_scf, _body_ccf)


# ---------------------------------------------------------------------------
# Memory-op bodies (for _op_mem).
# ---------------------------------------------------------------------------

def _body_alu_hl(operation):
    def body(cpu, memory):
        cpu._alu(operation, memory.read8((cpu.h << 8) | cpu.l))
    return body


def _body_ld_pair_a(hi, lo):
    def body(cpu, memory):
        memory.write8((getattr(cpu, hi) << 8) | getattr(cpu, lo), cpu.a)
    return body


def _body_ld_a_pair(hi, lo):
    def body(cpu, memory):
        cpu.a = memory.read8((getattr(cpu, hi) << 8) | getattr(cpu, lo))
    return body


def _body_ld_nn_hl(addr):
    def body(cpu, memory):
        memory.write8(addr, cpu.l)
        memory.write8((addr + 1) & 0xFFFF, cpu.h)
    return body


def _body_ld_hl_nn(addr):
    def body(cpu, memory):
        cpu.l = memory.read8(addr)
        cpu.h = memory.read8((addr + 1) & 0xFFFF)
    return body


def _body_ld_nn_a(addr):
    def body(cpu, memory):
        memory.write8(addr, cpu.a)
    return body


def _body_ld_a_nn(addr):
    def body(cpu, memory):
        cpu.a = memory.read8(addr)
    return body


def _body_incdec_mhl(is_inc):
    if is_inc:
        def body(cpu, memory):
            addr = (cpu.h << 8) | cpu.l
            memory.write8(addr, cpu._inc8(memory.read8(addr)))
    else:
        def body(cpu, memory):
            addr = (cpu.h << 8) | cpu.l
            memory.write8(addr, cpu._dec8(memory.read8(addr)))
    return body


def _body_ld_mhl_n(value):
    def body(cpu, memory):
        memory.write8((cpu.h << 8) | cpu.l, value)
    return body


def _body_push(pair):
    if pair == 3:
        def body(cpu, memory):
            sp = (cpu.sp - 2) & 0xFFFF
            cpu.sp = sp
            memory.write8(sp, cpu.f)
            memory.write8((sp + 1) & 0xFFFF, cpu.a)
        return body
    hi, lo = _RP[pair]

    def body(cpu, memory):
        sp = (cpu.sp - 2) & 0xFFFF
        cpu.sp = sp
        memory.write8(sp, getattr(cpu, lo))
        memory.write8((sp + 1) & 0xFFFF, getattr(cpu, hi))
    return body


def _body_pop(pair):
    if pair == 3:
        def body(cpu, memory):
            sp = cpu.sp
            cpu.f = memory.read8(sp)
            cpu.a = memory.read8((sp + 1) & 0xFFFF)
            cpu.sp = (sp + 2) & 0xFFFF
        return body
    hi, lo = _RP[pair]

    def body(cpu, memory):
        sp = cpu.sp
        setattr(cpu, lo, memory.read8(sp))
        setattr(cpu, hi, memory.read8((sp + 1) & 0xFFFF))
        cpu.sp = (sp + 2) & 0xFFFF
    return body


def _body_ex_sp_hl(cpu, memory):
    sp = cpu.sp
    lo = memory.read8(sp)
    hi = memory.read8((sp + 1) & 0xFFFF)
    memory.write8(sp, cpu.l)
    memory.write8((sp + 1) & 0xFFFF, cpu.h)
    cpu.l = lo
    cpu.h = hi


# ---------------------------------------------------------------------------
# CB-prefixed bodies.
# ---------------------------------------------------------------------------

def _bit_flags(cpu, value, bit_index):
    """Replicates the slow path's BIT flag updates exactly."""
    f = cpu.f & ~(FLAG_Z | FLAG_PV | 0x80 | FLAG_N) & 0xFF
    f |= FLAG_H
    if not value & (1 << bit_index):
        f |= FLAG_Z | FLAG_PV
    elif bit_index == 7:
        f |= 0x80
    cpu.f = f


def _cb_closure(b1, np, fw):
    """Specialized CB op (rot/shift, BIT, RES, SET) or None."""
    x = b1 >> 6
    y = (b1 >> 3) & 7
    z = b1 & 7
    if z == 6:
        if x == 0:
            def body(cpu, memory):
                addr = (cpu.h << 8) | cpu.l
                memory.write8(addr, cpu._rot(y, memory.read8(addr)))
            return _op_mem(body, 2, 15, np, fw)
        if x == 1:
            def body(cpu, memory):
                _bit_flags(cpu, memory.read8((cpu.h << 8) | cpu.l), y)
            return _op_mem(body, 2, 12, np, fw)
        if x == 2:
            mask = ~(1 << y) & 0xFF

            def body(cpu, memory):
                addr = (cpu.h << 8) | cpu.l
                memory.write8(addr, memory.read8(addr) & mask)
            return _op_mem(body, 2, 15, np, fw)
        bit = 1 << y

        def body(cpu, memory):
            addr = (cpu.h << 8) | cpu.l
            memory.write8(addr, memory.read8(addr) | bit)
        return _op_mem(body, 2, 15, np, fw)
    name = _R8[z]
    if x == 0:
        def body(cpu):
            setattr(cpu, name, cpu._rot(y, getattr(cpu, name)))
        return _op_simple(body, 2, 8, np, fw)
    if x == 1:
        def body(cpu):
            _bit_flags(cpu, getattr(cpu, name), y)
        return _op_simple(body, 2, 8, np, fw)
    if x == 2:
        mask = ~(1 << y) & 0xFF

        def body(cpu):
            setattr(cpu, name, getattr(cpu, name) & mask)
        return _op_simple(body, 2, 8, np, fw)
    bit = 1 << y

    def body(cpu):
        setattr(cpu, name, getattr(cpu, name) | bit)
    return _op_simple(body, 2, 8, np, fw)


# ---------------------------------------------------------------------------
# The decoder.
# ---------------------------------------------------------------------------

class _StopBlock(Exception):
    """Internal: the block cannot extend past this point."""


def _fetch_bytes(memory, pc, length, limit, pages):
    """Instruction bytes + their fetch wait states; registers pages."""
    if pc + length > limit:
        raise _StopBlock
    data = []
    fw = 0
    for i in range(length):
        logical = pc + i
        physical = memory.translate(logical)
        if physical < FLASH_SIZE:
            fw += memory.flash_wait_states
            data.append(memory.flash[physical])
        elif SRAM_BASE <= physical < SRAM_BASE + SRAM_SIZE:
            fw += memory.sram_wait_states
            data.append(memory.sram[physical - SRAM_BASE])
        else:
            raise _StopBlock  # unpopulated: let the slow path raise
        pages.add(physical >> 8)
    return data, fw


def _decode_one(memory, pc, limit, pages):
    """Decode the instruction at ``pc``; returns ``(op, next_pc, ender)``.

    Raises :class:`_StopBlock` when the instruction cannot be decoded in
    place (unpopulated fetch, crosses a mapping boundary, prefixed form
    we treat as opaque) -- the caller ends the block before it.
    """
    (b0,), _ = _fetch_bytes(memory, pc, 1, limit, pages)

    # Prefixes and other opaque forms first.
    if b0 == 0xCB:
        data, fw = _fetch_bytes(memory, pc, 2, limit, pages)
        return _cb_closure(data[1], pc + 2, fw), pc + 2, False
    if b0 == 0xED:
        data, fw = _fetch_bytes(memory, pc, 2, limit, pages)
        b1 = data[1]
        x = b1 >> 6
        y = (b1 >> 3) & 7
        z = b1 & 7
        if b1 == 0x67:          # LD XPC, A: bank-window change, ender
            return _step_op, pc + 2, True
        if b1 == 0x77:          # LD A, XPC
            return _step_op, pc + 2, False
        if x == 2 and z in (0, 1) and y >= 4:
            return _op_ed_block(y, z, pc + 2, fw, pc), pc + 2, True
        if x == 1:
            if z in (0, 1):     # IN r,(C) / OUT (C),r: I/O, ender
                return _step_op, pc + 2, True
            if z == 5:          # RETN/RETI: control flow, ender
                return _step_op, pc + 2, True
            if z == 2:          # ADC/SBC HL, rp (compiled C's workhorse)
                pair = y >> 1
                if pair == 3:
                    def get_rp(cpu):
                        return cpu.sp
                else:
                    hi, lo = _RP[pair]

                    def get_rp(cpu):
                        return (getattr(cpu, hi) << 8) | getattr(cpu, lo)
                if y & 1:
                    def body(cpu):
                        result = cpu._adc16((cpu.h << 8) | cpu.l,
                                            get_rp(cpu))
                        cpu.h = result >> 8
                        cpu.l = result & 0xFF
                else:
                    def body(cpu):
                        result = cpu._sbc16((cpu.h << 8) | cpu.l,
                                            get_rp(cpu))
                        cpu.h = result >> 8
                        cpu.l = result & 0xFF
                return _op_simple(body, 2, 15, pc + 2, fw), pc + 2, False
            if z == 3:          # LD rp,(nn) / LD (nn),rp
                data, fw = _fetch_bytes(memory, pc, 4, limit, pages)
                nn = data[2] | (data[3] << 8)
                hi_addr = (nn + 1) & 0xFFFF
                np = pc + 4
                pair = y >> 1
                if y & 1:       # LD rp, (nn)
                    if pair == 3:
                        def body(cpu, memory):
                            cpu.sp = (memory.read8(nn)
                                      | (memory.read8(hi_addr) << 8))
                    else:
                        hi, lo = _RP[pair]

                        # Both reads land before either register half
                        # moves, like _read16 -> _set_rp on the slow
                        # path (exception-exact).
                        def body(cpu, memory):
                            lo_v = memory.read8(nn)
                            hi_v = memory.read8(hi_addr)
                            setattr(cpu, lo, lo_v)
                            setattr(cpu, hi, hi_v)
                    return _op_mem(body, 4, 20, np, fw), np, False
                if pair == 3:   # LD (nn), SP
                    def body(cpu, memory):
                        memory.write8(nn, cpu.sp & 0xFF)
                        memory.write8(hi_addr, (cpu.sp >> 8) & 0xFF)
                else:
                    hi, lo = _RP[pair]

                    def body(cpu, memory):
                        memory.write8(nn, getattr(cpu, lo))
                        memory.write8(hi_addr, getattr(cpu, hi))
                return _op_mem(body, 4, 20, np, fw), np, False
            return _step_op, pc + 2, False
        return _step_op, pc + 2, False  # ED NOP space
    if b0 in (0xDD, 0xFD):
        # IX/IY forms are rare in this repo's firmware; treat as opaque
        # single-step enders (re-fetched at run time, always correct).
        return _step_op, pc + 1, True

    x = b0 >> 6
    y = (b0 >> 3) & 7
    z = b0 & 7

    if x == 1:
        if b0 == 0x76:          # HALT
            return _step_op, pc + 1, True
        _, fw = _fetch_bytes(memory, pc, 1, limit, pages)
        np = pc + 1
        if y == 6:
            return _op_ld_mhl_r_fused(_R8[z], np, fw), np, False
        if z == 6:
            return _op_ld_r_mhl_fused(_R8[y], np, fw), np, False
        return _op_ld_rr_fused(_R8[y], _R8[z], np, fw), np, False

    if x == 2:
        _, fw = _fetch_bytes(memory, pc, 1, limit, pages)
        np = pc + 1
        if z == 6:
            if y in _LOGIC_OPS:
                return _op_logic_mhl_fused(y, np, fw), np, False
            return _op_mem(_body_alu_hl(y), 1, 7, np, fw), np, False
        if y in _LOGIC_OPS:
            return _op_logic_r_fused(y, _R8[z], np, fw), np, False
        return _op_arith_r_fused(y, _R8[z], np, fw), np, False

    if x == 0:
        return _decode_x0(memory, pc, y, z, limit, pages)
    return _decode_x3(memory, pc, b0, y, z, limit, pages)


def _decode_x0(memory, pc, y, z, limit, pages):
    if z == 0:
        if y <= 1:              # NOP / EX AF, AF'
            _, fw = _fetch_bytes(memory, pc, 1, limit, pages)
            body = _body_ex_af if y else (lambda cpu: None)
            return _op_simple(body, 1, 4, pc + 1, fw), pc + 1, False
        data, fw = _fetch_bytes(memory, pc, 2, limit, pages)
        offset = data[1] - 256 if data[1] & 0x80 else data[1]
        np = pc + 2
        target = (np + offset) & 0xFFFF
        if y == 2:
            return _op_djnz(target, np, fw), np, True
        if y == 3:
            return _op_jr(target, fw), np, True
        cc = y - 4
        return (_op_jr(target, fw, np=np, mask=_CC_MASK[cc],
                       want=bool(cc & 1)), np, True)
    if z == 1:
        pair = y >> 1
        if y & 1:               # ADD HL, rp
            _, fw = _fetch_bytes(memory, pc, 1, limit, pages)
            return (_op_simple(_body_add_hl(pair), 1, 11, pc + 1, fw),
                    pc + 1, False)
        data, fw = _fetch_bytes(memory, pc, 3, limit, pages)
        nn = data[1] | (data[2] << 8)
        return (_op_simple(_body_ld_rp_nn(pair, nn), 3, 10, pc + 3, fw),
                pc + 3, False)
    if z == 2:
        if y < 4:
            _, fw = _fetch_bytes(memory, pc, 1, limit, pages)
            hi, lo = ("b", "c") if y < 2 else ("d", "e")
            body = (_body_ld_a_pair(hi, lo) if y & 1
                    else _body_ld_pair_a(hi, lo))
            return _op_mem(body, 1, 7, pc + 1, fw), pc + 1, False
        data, fw = _fetch_bytes(memory, pc, 3, limit, pages)
        addr = data[1] | (data[2] << 8)
        np = pc + 3
        if y == 4:
            return _op_mem(_body_ld_nn_hl(addr), 3, 16, np, fw), np, False
        if y == 5:
            return _op_mem(_body_ld_hl_nn(addr), 3, 16, np, fw), np, False
        if y == 6:
            return _op_mem(_body_ld_nn_a(addr), 3, 13, np, fw), np, False
        return _op_mem(_body_ld_a_nn(addr), 3, 13, np, fw), np, False
    if z == 3:
        _, fw = _fetch_bytes(memory, pc, 1, limit, pages)
        delta = -1 if y & 1 else 1
        return (_op_simple(_body_incdec_rp(y >> 1, delta), 1, 6, pc + 1, fw),
                pc + 1, False)
    if z == 4 or z == 5:
        _, fw = _fetch_bytes(memory, pc, 1, limit, pages)
        np = pc + 1
        if y == 6:
            return (_op_mem(_body_incdec_mhl(z == 4), 1, 11, np, fw),
                    np, False)
        return _op_incdec_r_fused(_R8[y], z == 4, np, fw), np, False
    if z == 6:
        data, fw = _fetch_bytes(memory, pc, 2, limit, pages)
        value = data[1]
        np = pc + 2
        if y == 6:
            return _op_mem(_body_ld_mhl_n(value), 2, 10, np, fw), np, False
        return _op_ld_rn_fused(_R8[y], value, np, fw), np, False
    # z == 7: rotates on A, DAA, CPL, SCF, CCF
    _, fw = _fetch_bytes(memory, pc, 1, limit, pages)
    return (_op_simple(_X0_Z7_BODIES[y], 1, 4, pc + 1, fw), pc + 1, False)


def _decode_x3(memory, pc, b0, y, z, limit, pages):
    if z == 0:                  # RET cc
        _, fw = _fetch_bytes(memory, pc, 1, limit, pages)
        np = pc + 1
        return (_op_ret(fw, np=np, mask=_CC_MASK[y], want=bool(y & 1)),
                np, True)
    if z == 1:
        _, fw = _fetch_bytes(memory, pc, 1, limit, pages)
        np = pc + 1
        if y & 1:
            if y == 1:          # RET
                return _op_ret(fw), np, True
            if y == 3:          # EXX
                return _op_simple(_body_exx, 1, 4, np, fw), np, False
            if y == 5:          # JP (HL)
                return _op_jp_hl(fw), np, True
            return (_op_simple(_body_ld_sp_hl, 1, 6, np, fw), np, False)
        return _op_mem(_body_pop(y >> 1), 1, 10, np, fw), np, False
    if z == 2:                  # JP cc, nn
        data, fw = _fetch_bytes(memory, pc, 3, limit, pages)
        addr = data[1] | (data[2] << 8)
        np = pc + 3
        return (_op_jp_cc(addr, np, _CC_MASK[y], bool(y & 1), fw), np, True)
    if z == 3:
        if y == 0:              # JP nn
            data, fw = _fetch_bytes(memory, pc, 3, limit, pages)
            return _op_jp(data[1] | (data[2] << 8), 3, fw), pc + 3, True
        if y in (2, 3):         # OUT (n),A / IN A,(n): I/O, ender
            _fetch_bytes(memory, pc, 2, limit, pages)
            return _step_op, pc + 2, True
        if y == 4:              # EX (SP), HL
            _, fw = _fetch_bytes(memory, pc, 1, limit, pages)
            return (_op_mem(_body_ex_sp_hl, 1, 19, pc + 1, fw),
                    pc + 1, False)
        if y == 5:              # EX DE, HL
            _, fw = _fetch_bytes(memory, pc, 1, limit, pages)
            return (_op_simple(_body_ex_de_hl, 1, 4, pc + 1, fw),
                    pc + 1, False)
        # DI / EI: interrupt state, ender
        return _step_op, pc + 1, True
    if z == 4:                  # CALL cc, nn
        data, fw = _fetch_bytes(memory, pc, 3, limit, pages)
        addr = data[1] | (data[2] << 8)
        np = pc + 3
        return (_op_call(addr, np, fw, mask=_CC_MASK[y], want=bool(y & 1)),
                np, True)
    if z == 5:
        if y == 1:              # CALL nn
            data, fw = _fetch_bytes(memory, pc, 3, limit, pages)
            addr = data[1] | (data[2] << 8)
            return _op_call(addr, pc + 3, fw), pc + 3, True
        _, fw = _fetch_bytes(memory, pc, 1, limit, pages)
        return (_op_mem(_body_push(y >> 1), 1, 11, pc + 1, fw),
                pc + 1, False)
    if z == 6:                  # ALU A, n
        data, fw = _fetch_bytes(memory, pc, 2, limit, pages)
        if y in _LOGIC_OPS:
            return (_op_logic_n_fused(y, data[1], pc + 2, fw),
                    pc + 2, False)
        return (_op_arith_n_fused(y, data[1], pc + 2, fw), pc + 2, False)
    # z == 7: RST y*8
    _, fw = _fetch_bytes(memory, pc, 1, limit, pages)
    return _op_rst(y * 8, pc + 1, fw), pc + 1, True


# ---------------------------------------------------------------------------
# The cache.
# ---------------------------------------------------------------------------

#: ALU logic operation index -> Python operator spelling (codegen).
_LOGIC_CHARS = {4: "&", 5: "^", 6: "|"}


class BlockCache:
    """Decoded basic blocks plus the invalidation machinery.

    Blocks are mutable ``[ops, last, exec_count, translated]`` records:
    the closures; the logical address of the last instruction (the
    dispatch loop single-steps instead of running a block with the stop
    address on one of its instructions after the first; a block
    listener reads the instruction there); how many times the block has
    dispatched through the closure-list tier; and -- once ``exec_count``
    crosses :attr:`translate_threshold` -- one ``compile()``d function
    that runs the whole block with the per-opcode dispatch loop
    eliminated and the bookkeeping of template-able instruction runs
    batched (the *translated tier*).  A block ends before any address
    in the CPU's :attr:`~repro.rabbit.cpu.Cpu.block_ends`.
    """

    #: Closure-list executions before a block is template-translated.
    #: 64 beat 16 on both emulator-bound benchmark workloads (fewer
    #: one-off translations in short-lived E1-E3 firmware); see
    #: EXPERIMENTS.md, "Harness speed".
    translate_threshold = 64

    def __init__(self, cpu):
        self.cpu = cpu
        self.memory = cpu.memory
        self.blocks: dict[int, list] = {}
        self._page_blocks: dict[int, set] = {}
        #: Raised by invalidation; executors re-dispatch when set.
        self.bail = False
        self.decoded_blocks = 0
        self.executed_blocks = 0
        #: Translated-tier telemetry (surfaced through ``repro.obs``).
        self.translated_blocks = 0
        self.translated_execs = 0
        self.invalidated_smc = 0
        self.invalidated_flush = 0
        self._wait_states = (self.memory.flash_wait_states,
                             self.memory.sram_wait_states)
        self.memory.block_cache = self

    def check_wait_states(self) -> None:
        """Drop everything if the wait-state model changed (fetch wait
        states are baked into the closures at decode time)."""
        wait_states = (self.memory.flash_wait_states,
                       self.memory.sram_wait_states)
        if wait_states != self._wait_states:
            self._wait_states = wait_states
            self.invalidate_all()

    def invalidate_all(self) -> None:
        self.invalidated_flush += 1
        self.blocks.clear()
        pages = self.memory._code_pages
        for page in self._page_blocks:
            pages[page] = 0
        self._page_blocks.clear()
        self.bail = True

    def code_written(self, physical: int) -> None:
        """A write landed on a page holding decoded code."""
        page = physical >> 8
        keys = self._page_blocks.pop(page, None)
        if keys:
            blocks = self.blocks
            for key in keys:
                blocks.pop(key, None)
        self.memory._code_pages[page] = 0
        self.invalidated_smc += 1
        self.bail = True

    def build_block(self, pc: int, key: int) -> list:
        memory = self.memory
        ops: list = []
        pages: set = set()
        limit = 0xE000 if pc < 0xE000 else 0x10000
        ends = self.cpu.block_ends
        cursor = pc
        try:
            while len(ops) < MAX_BLOCK_INSTRUCTIONS:
                op, next_pc, ender = _decode_one(memory, cursor, limit,
                                                 pages)
                ops.append(op)
                last, cursor = cursor, next_pc
                if ender or cursor in ends:
                    break
        except _StopBlock:
            pass
        if not ops:
            # Undecodable in place (crosses a mapping boundary, or an
            # unpopulated fetch): one generic step, re-fetched at run
            # time -- content-independent, so no pages to watch.
            block = [(_step_op,), pc, 0, None]
            self.blocks[key] = block
            self.decoded_blocks += 1
            return block
        block = [tuple(ops), last, 0, None]
        page_map = memory._code_pages
        page_blocks = self._page_blocks
        for page in pages:
            page_map[page] = 1
            keys = page_blocks.get(page)
            if keys is None:
                keys = page_blocks[page] = set()
            keys.add(key)
        self.blocks[key] = block
        self.decoded_blocks += 1
        return block

    def translate(self, key: int, block: list):
        """Compile ``block`` into one specialized function.

        Template-able closures (the register/flag instruction classes --
        LD r,r' / LD r,n / INC/DEC r / AND/XOR/OR / ADD..CP /
        ``_op_simple`` bodies) are fused into straight-line runs whose
        counter bookkeeping (``memory.reads``/``wait_cycles``,
        ``cpu.pc``/``cycles``/``r``/``instructions``) commits as one
        batched epilogue per run; integer sums make the batch exact.
        Everything else stays an opaque closure call.  Ordering rules
        that keep the tallies byte-identical to the closure-list tier:

        * a run's epilogue flushes *before* any opaque op, because
          memory-class closures measure data wait states via a
          before/after ``memory.wait_cycles`` delta;
        * fused instructions never touch data memory, so
          :attr:`bail` cannot newly rise inside a run -- the mid-block
          ``bail`` check only needs to follow opaque ops (the only ones
          that can write, hence invalidate);
        * the ``(HL)`` accessor classes (``mhl_read`` / ``mhl_write`` /
          ``mhl_logic``) are inlined too, but commit their own
          bookkeeping in the closures' exact statement order (they sit
          on a potential raise/bail point, so nothing of theirs may be
          deferred into a batch, and the run before them must flush).
        """
        ops = block[0]
        ns = {"_c": self, "_PARITY": _PARITY}
        lines = []
        seg_reads = seg_fw = seg_cycles = seg_count = 0
        seg_np = 0

        def flush():
            nonlocal seg_reads, seg_fw, seg_cycles, seg_count
            if not seg_count:
                return
            lines.append(f"    memory.reads += {seg_reads}")
            if seg_fw:
                lines.append(f"    memory.wait_cycles += {seg_fw}")
            lines.append(f"    cpu.pc = {seg_np}")
            lines.append(f"    cpu.cycles += {seg_cycles}")
            lines.append(f"    cpu.r = (cpu.r + {seg_count}) & 0x7F")
            lines.append(f"    cpu.instructions += {seg_count}")
            seg_reads = seg_fw = seg_cycles = seg_count = 0

        last = len(ops) - 1
        for i, op in enumerate(ops):
            t = getattr(op, "_tmpl", None)
            if t is None:
                flush()
                name = f"_o{i}"
                ns[name] = op
                lines.append(f"    {name}(cpu, memory)")
                if i != last:
                    lines.append("    if _c.bail:")
                    lines.append("        return")
                continue
            kind = t[0]
            if kind == "mem":
                # Inline the wrapper, keep the body call: one Python
                # call per memory op instead of two.  Self-committing
                # (raise/bail point), in the wrapper's statement order.
                flush()
                _, body, length, base, np, fw = t
                name = f"_b{i}"
                ns[name] = body
                lines.append(f"    memory.reads += {length}")
                if fw:
                    lines.append(f"    memory.wait_cycles += {fw}")
                lines.append("    _w = memory.wait_cycles")
                lines.append(f"    {name}(cpu, memory)")
                lines.append(f"    cpu.pc = {np}")
                lines.append(
                    f"    cpu.cycles += {base + fw} + "
                    f"memory.wait_cycles - _w")
                lines.append("    cpu.r = (cpu.r + 1) & 0x7F")
                lines.append("    cpu.instructions += 1")
                if i != last:
                    lines.append("    if _c.bail:")
                    lines.append("        return")
                continue
            if kind in ("mhl_read", "mhl_write", "mhl_logic"):
                # Inline, but self-committing: the data access can add
                # wait states (measured via delta), raise, or -- for the
                # write -- land on a code page and set bail.
                flush()
                _, p1, _unused, length, base, np, fw = t
                lines.append(f"    memory.reads += {length}")
                if fw:
                    lines.append(f"    memory.wait_cycles += {fw}")
                lines.append("    _w = memory.wait_cycles")
                if kind == "mhl_read":
                    lines.append(
                        f"    cpu.{p1} = memory.read8((cpu.h << 8) | cpu.l)")
                elif kind == "mhl_write":
                    lines.append(
                        f"    memory.write8((cpu.h << 8) | cpu.l, cpu.{p1})")
                else:
                    half = FLAG_H if p1 == 4 else 0
                    lines.append(
                        f"    _a = cpu.a {_LOGIC_CHARS[p1]} "
                        f"memory.read8((cpu.h << 8) | cpu.l)")
                    lines.append("    cpu.a = _a")
                    lines.append(f"    _f = (_a & 0x80) | {half}")
                    lines.append("    if _a == 0:")
                    lines.append(f"        _f |= {FLAG_Z}")
                    lines.append("    if _PARITY[_a]:")
                    lines.append(f"        _f |= {FLAG_PV}")
                    lines.append("    cpu.f = _f")
                lines.append(f"    cpu.pc = {np}")
                lines.append(
                    f"    cpu.cycles += {base + fw} + "
                    f"memory.wait_cycles - _w")
                lines.append("    cpu.r = (cpu.r + 1) & 0x7F")
                lines.append("    cpu.instructions += 1")
                if kind == "mhl_write" and i != last:
                    lines.append("    if _c.bail:")
                    lines.append("        return")
                continue
            if kind == "simple":
                _, body, length, base, np, fw = t
                name = f"_b{i}"
                ns[name] = body
                lines.append(f"    {name}(cpu)")
            else:
                _, p1, p2, length, base, np, fw = t
                if kind == "rr":
                    lines.append(f"    cpu.{p1} = cpu.{p2}")
                elif kind == "rn":
                    lines.append(f"    cpu.{p1} = {p2}")
                elif kind == "incdec":
                    helper = "_inc8" if p2 else "_dec8"
                    lines.append(f"    cpu.{p1} = cpu.{helper}(cpu.{p1})")
                elif kind == "arith_r":
                    lines.append(f"    cpu._alu({p1}, cpu.{p2})")
                elif kind == "arith_n":
                    lines.append(f"    cpu._alu({p1}, {p2})")
                else:   # logic_r / logic_n: inline flag math
                    operand = f"cpu.{p2}" if kind == "logic_r" else f"{p2}"
                    half = FLAG_H if p1 == 4 else 0
                    lines.append(
                        f"    _a = cpu.a {_LOGIC_CHARS[p1]} {operand}")
                    lines.append("    cpu.a = _a")
                    lines.append(f"    _f = (_a & 0x80) | {half}")
                    lines.append("    if _a == 0:")
                    lines.append(f"        _f |= {FLAG_Z}")
                    lines.append("    if _PARITY[_a]:")
                    lines.append(f"        _f |= {FLAG_PV}")
                    lines.append("    cpu.f = _f")
            seg_reads += length
            seg_fw += fw
            seg_cycles += base + fw
            seg_count += 1
            seg_np = np
        flush()
        source = "def _tr(cpu, memory):\n" + "\n".join(lines) + "\n"
        code = compile(source, f"<translated:{key:#x}>", "exec")
        exec(code, ns)
        fn = ns["_tr"]
        block[3] = fn
        self.translated_blocks += 1
        return fn
