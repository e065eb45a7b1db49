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

* every closure self-accounts, in one statement order.  Each
  straight-line instruction is a body inside one of two wrappers,
  :func:`_op_simple` (registers and flags only) or :func:`_op_mem`
  (data memory); the branches are :func:`_op_jump`, :func:`_op_djnz`,
  :func:`_op_jp_hl`, :func:`_op_call` (which also runs ``RST``) and
  :func:`_op_ret`.  Before any data access a closure counts the fetch
  bytes it no longer reads (``memory.reads``/``memory.wait_cycles``,
  the fetch wait states precomputed at decode), sets ``cpu.pc`` to the
  next instruction and bumps ``cpu.r``; after it, it adds
  ``cpu.cycles`` (base T-states + fetch wait states + data wait states
  measured around the access) and ``cpu.instructions``.  An
  instruction whose data access raises therefore leaves PC past its
  bytes, R bumped and ``cycles``/``instructions`` unchanged, exactly as
  the step core does;
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
  would observe the new bytes.  Whoever tests ``bail`` clears it first:
  the dispatch loop before a closure list, and a translated block in
  its first line when its text tests it (a block that never tests it
  leaves it alone);
* ``load_flash``/``load_sram`` (reprogramming) and wait-state changes
  drop the whole cache.

The repeating block ops (LDIR/LDDR/CPIR/CPDR) execute one iteration per
dispatch, rewinding PC like the slow path does, so instruction budgets
and cycle targets count their iterations exactly as the slow path does.

On top of the closure-list tier sits the *translated tier*
(:meth:`BlockCache.translate`): once a block has dispatched
``translate_threshold`` times, it is compiled into one specialized
function with the per-opcode dispatch loop eliminated.  A closure's tag
(:func:`_retag`) names the template it becomes.  Template instructions
run inline and add their counter updates to one pending run, which the
function commits once, at its tail.  The templates cover what the
Dynamic C compiler's stack machine emits: register/ALU ops, CB
rotates/shifts, 16-bit ``LD``/``INC``/``DEC``/``ADD HL``/``ADC HL``/
``SBC HL``/``EX DE,HL``, ``PUSH``/``POP``, ``LD rp,(nn)``/``LD (nn),HL``,
and the block-ending ``JP``/``JR``/``DJNZ``/``CALL``/``RST``/``RET``.
Their memory accesses index ``flash``/``sram`` directly when both bytes
sit in one fixed segment (a constant address, or SP checked at run time
to lie in the data segment); anything else calls the instruction's
closure, which stays the exact slow path, with the pending run committed
around the call.  SMC write-watching, flush invalidation and the
``bail`` protocol extend unchanged to translated blocks -- every inline
write checks its page for decoded code as ``write8`` does, the write
that invalidates a page drops the block (translated function included),
and the in-flight execution commits its run and returns at the ``bail``
check after that instruction, exactly where the closure-list tier would
have broken out of its loop.

Translations are cheap to make as well as to run.  Hot arms spell their
commits out inline; the cold arms (a ``bail`` exit, a stack op's
off-segment arm, a stack tail's fall-back) commit through one call to
:func:`_commit` or :func:`_around` with the run bound as a namespace
constant, so most of a block's text is the code that runs.  And
``compile()`` runs once per distinct block key and source text in the
process: a block translated again -- another board loading the same
firmware, or the same block after a flush -- reuses the code and binds
only a namespace of its own.

A *register-only self-loop* -- a block of register and flag templates
alone (no closure, memory, stack, I/O or EI/DI) whose ``DJNZ`` or
``JP``/``JR`` (cc) tail branches back to its own first instruction --
translates to a function that iterates in place
(:meth:`_Translation.self_loop`).  Its contract with the dispatch loop:
``fn(cpu, memory, budget, bound)`` runs the block at least once, and
again while the branch is taken, the next iteration's instructions fit
``budget`` (what was left of the instruction budget at entry) and the
cycle count before it stays below ``bound`` (``cycle_target - size *
ceiling``); it keeps the registers it names in locals, commits once in
closed form, and returns how many iterations ran.  Those are exactly
the iterations the dispatch loop would have run as whole blocks, one
by one: nothing the loop does can raise an interrupt, halt, write
memory or remap the bank window, and the loop visits only addresses at
which the dispatch loop has already found no stop (the stop is neither
the block's first instruction nor inside it, or the block would not
have been entered), so there is no stop for the function to test.
Called as ``fn(cpu, memory)`` -- as under a block listener -- it runs
once.
"""

from __future__ import annotations

import hashlib
import operator
import re

from repro.rabbit.cpu import (
    FLAG_C, FLAG_H, FLAG_N, FLAG_PV, FLAG_S, FLAG_Z, Cpu,
)
from repro.rabbit.memory import (
    DATA_BASE, DATA_TOP, FLASH_SIZE, ROOT_TOP, SRAM_BASE, SRAM_SIZE,
)

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
#: AND / XOR / OR as C-level callables, by ALU operation index.
_LOGIC_OPS = {4: operator.and_, 5: operator.xor, 6: operator.or_}
#: S, Z and P/V of an 8-bit result, by value: the whole flag byte of
#: XOR/OR, of AND less its H, and of a CB rotate/shift less its carry.
_SZP = bytes((v & FLAG_S) | (0 if v else FLAG_Z)
             | (0 if bin(v).count("1") & 1 else FLAG_PV) for v in range(256))


#: The flags INC r and DEC r set from the operand's old value, by value
#: (DEC's include N), and the F bits each leaves alone.
_INC8 = bytes(((v + 1) & FLAG_S) | (0 if (v + 1) & 0xFF else FLAG_Z)
              | (FLAG_H if v & 0xF == 0xF else 0)
              | (FLAG_PV if v == 0x7F else 0) for v in range(256))
_DEC8 = bytes(FLAG_N | ((v - 1) & FLAG_S) | (0 if v != 1 else FLAG_Z)
              | (FLAG_H if v & 0xF == 0 else 0)
              | (FLAG_PV if v == 0x80 else 0) for v in range(256))
_INC8_KEEP = ~(FLAG_N | FLAG_S | FLAG_Z | FLAG_H | FLAG_PV) & 0xFF
_DEC8_KEEP = ~(FLAG_S | FLAG_Z | FLAG_H | FLAG_PV) & 0xFF


def _cc(index):
    """Condition code ``index`` as (flag mask, wanted state)."""
    return _CC_MASK[index], bool(index & 1)


def _step_op(cpu, memory):
    """Generic fallback: re-fetch and execute through the slow decoder."""
    cpu._step_instruction()


# ---------------------------------------------------------------------------
# Closure factories.  Each returned closure performs ONE instruction and
# fully self-accounts (see the module docstring's contract).  Every one
# that the translator can inline carries a tag, ``op._tmpl = (kind, p1,
# p2, length, base, np, fw)``: ``kind`` names the template, ``p1``/``p2``
# are its operands, the rest its fetch bytes, T-states (a (taken,
# skipped) pair for a branch), next PC and fetch wait states.
# ---------------------------------------------------------------------------

def _op_simple(body, length, base, np, fw):
    """Instruction with no data-memory traffic; ``body(cpu)`` mutates
    registers/flags only."""
    total = base + fw

    def op(cpu, memory):
        memory.reads += length
        memory.wait_cycles += fw
        cpu.pc = np
        cpu.r = (cpu.r + 1) & 0x7F
        body(cpu)
        cpu.cycles += total
        cpu.instructions += 1
    op._tmpl = ("simple", body, None, length, base, np, fw)
    return op


def _op_mem(body, length, base, np, fw):
    """Instruction whose ``body(cpu, memory)`` reads/writes data memory;
    data wait states are measured around the body, like the slow path."""
    def op(cpu, memory):
        memory.reads += length
        memory.wait_cycles += fw
        cpu.pc = np
        cpu.r = (cpu.r + 1) & 0x7F
        before = memory.wait_cycles
        body(cpu, memory)
        cpu.cycles += base + fw + (memory.wait_cycles - before)
        cpu.instructions += 1
    op._tmpl = ("mem", body, None, length, base, np, fw)
    return op


def _retag(op, kind, p1=None, p2=None):
    """Name the inline template :meth:`BlockCache.translate` emits for
    the ``_op_simple``/``_op_mem`` closure ``op``, with its operands.
    Only the tag changes: the closure still runs the instruction in the
    closure-list tier, and is the translated tier's exact slow path.
    An untagged wrapper becomes one body call (``simple``) or its
    wrapper inline around one body call (``mem``)."""
    op._tmpl = (kind, p1, p2) + op._tmpl[3:]
    return op


def _op_jump(target, length, costs, np, fw, cc=None):
    """JP nn / JR d, and JP cc,nn / JR cc,d when ``cc`` is a (flag mask,
    wanted state) pair; ``costs`` are the taken and skipped T-states."""
    taken, skipped = costs
    mask, want = cc or (0, False)

    def op(cpu, memory):
        memory.reads += length
        memory.wait_cycles += fw
        if cc is None or ((cpu.f & mask) != 0) == want:
            cpu.pc = target
            cpu.cycles += taken + fw
        else:
            cpu.pc = np
            cpu.cycles += skipped + fw
        cpu.r = (cpu.r + 1) & 0x7F
        cpu.instructions += 1
    op._tmpl = ("jump", target, cc, length, costs, np, fw)
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
    op._tmpl = ("djnz", target, None, 2, (13, 8), np, fw)
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


def _op_call(target, length, costs, np, fw, cc=None):
    """CALL nn, CALL cc,nn (``cc`` as for :func:`_op_jump`) and RST n
    (length 1, 11 T-states): push ``np`` and jump to ``target``."""
    taken, skipped = costs
    mask, want = cc or (0, False)

    def op(cpu, memory):
        memory.reads += length
        memory.wait_cycles += fw
        cpu.pc = np
        cpu.r = (cpu.r + 1) & 0x7F
        if cc is None or ((cpu.f & mask) != 0) == want:
            before = memory.wait_cycles
            sp = (cpu.sp - 2) & 0xFFFF
            cpu.sp = sp
            memory.write8(sp, np & 0xFF)
            memory.write8((sp + 1) & 0xFFFF, np >> 8)
            cpu.pc = target
            cpu.cycles += taken + fw + (memory.wait_cycles - before)
        else:
            cpu.cycles += skipped + fw
        cpu.instructions += 1
    op._tmpl = ("call", target, cc, length, costs, np, fw)
    return op


def _op_ret(costs, np, fw, cc=None):
    """RET, and RET cc (``cc`` as for :func:`_op_jump`)."""
    taken, skipped = costs
    mask, want = cc or (0, False)

    def op(cpu, memory):
        memory.reads += 1
        memory.wait_cycles += fw
        cpu.pc = np
        cpu.r = (cpu.r + 1) & 0x7F
        if cc is None or ((cpu.f & mask) != 0) == want:
            before = memory.wait_cycles
            sp = cpu.sp
            lo = memory.read8(sp)
            hi = memory.read8((sp + 1) & 0xFFFF)
            cpu.sp = (sp + 2) & 0xFFFF
            cpu.pc = lo | (hi << 8)
            cpu.cycles += taken + fw + (memory.wait_cycles - before)
        else:
            cpu.cycles += skipped + fw
        cpu.instructions += 1
    op._tmpl = ("ret", None, cc, 1, costs, np, fw)
    return op


def _op_ed_block(y, z, np, fw, start):
    """LDI/LDD/LDIR/LDDR (z=0) and CPI/CPD/CPIR/CPDR (z=1).

    Repeating forms rewind PC to the instruction start and run one
    iteration per dispatch, exactly like the slow path.
    """
    repeat = y >= 6
    inc = 1 if y in (4, 6) else -1

    def op(cpu, memory):
        memory.reads += 2
        memory.wait_cycles += fw
        cpu.pc = np
        cpu.r = (cpu.r + 1) & 0x7F
        before = memory.wait_cycles
        hl = (cpu.h << 8) | cpu.l
        value = memory.read8(hl)
        if z == 0:
            de = (cpu.d << 8) | cpu.e
            memory.write8(de, value)
            de = (de + inc) & 0xFFFF
            cpu.d = de >> 8
            cpu.e = de & 0xFF
            f = cpu.f & ~(FLAG_N | FLAG_H | FLAG_PV) & 0xFF
        else:
            carry = cpu.f & FLAG_C
            cpu._sub8(cpu.a, value, 0, store_carry=False)
            f = (cpu.f & ~(FLAG_C | FLAG_PV) & 0xFF) | carry
        hl = (hl + inc) & 0xFFFF
        cpu.h = hl >> 8
        cpu.l = hl & 0xFF
        bc = (((cpu.b << 8) | cpu.c) - 1) & 0xFFFF
        cpu.b = bc >> 8
        cpu.c = bc & 0xFF
        if bc:
            f |= FLAG_PV
        cpu.f = f
        if repeat and bc and not (z and f & FLAG_Z):
            cpu.pc = start
            cpu.cycles += 21 + fw + (memory.wait_cycles - before)
        else:
            cpu.cycles += 16 + fw + (memory.wait_cycles - before)
        cpu.instructions += 1
    return op


# ---------------------------------------------------------------------------
# Register-op bodies (pure register/flag mutations for _op_simple).
# ---------------------------------------------------------------------------

def _body_ld_r(dst, src):
    def body(cpu):
        setattr(cpu, dst, getattr(cpu, src))
    return body


def _body_ld_r_n(dst, value):
    def body(cpu):
        setattr(cpu, dst, value)
    return body


def _body_incdec_r(name, is_inc):
    step = Cpu._inc8 if is_inc else Cpu._dec8

    def body(cpu):
        setattr(cpu, name, step(cpu, getattr(cpu, name)))
    return body


def _body_alu(operation, src=None, value=None):
    """ALU A, r (register ``src``) or ALU A, n (``value``): AND/XOR/OR
    take F from :data:`_SZP`, the others go through ``Cpu._alu``."""
    logic = _LOGIC_OPS.get(operation)
    half = FLAG_H if operation == 4 else 0
    if src is None:
        if logic is None:
            def body(cpu):
                cpu._alu(operation, value)
        else:
            def body(cpu):
                cpu.a = a = logic(cpu.a, value)
                cpu.f = _SZP[a] | half
    elif logic is None:
        def body(cpu):
            cpu._alu(operation, getattr(cpu, src))
    else:
        def body(cpu):
            cpu.a = a = logic(cpu.a, getattr(cpu, src))
            cpu.f = _SZP[a] | half
    return body


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
    """ALU A, (HL), as :func:`_body_alu`."""
    logic = _LOGIC_OPS.get(operation)
    half = FLAG_H if operation == 4 else 0
    if logic is None:
        def body(cpu, memory):
            cpu._alu(operation, memory.read8((cpu.h << 8) | cpu.l))
    else:
        def body(cpu, memory):
            cpu.a = a = logic(cpu.a, memory.read8((cpu.h << 8) | cpu.l))
            cpu.f = _SZP[a] | half
    return body


def _body_ld_r_mhl(dst):
    def body(cpu, memory):
        setattr(cpu, dst, memory.read8((cpu.h << 8) | cpu.l))
    return body


def _body_ld_mhl_r(src):
    def body(cpu, memory):
        memory.write8((cpu.h << 8) | cpu.l, getattr(cpu, src))
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
    # Both reads land before either register half moves, like _read16
    # on the slow path (exception-exact); so do POP's below.
    def body(cpu, memory):
        lo = memory.read8(addr)
        cpu.h = memory.read8((addr + 1) & 0xFFFF)
        cpu.l = lo
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
    step = Cpu._inc8 if is_inc else Cpu._dec8

    def body(cpu, memory):
        addr = (cpu.h << 8) | cpu.l
        memory.write8(addr, step(cpu, memory.read8(addr)))
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
            f = memory.read8(sp)
            cpu.a = memory.read8((sp + 1) & 0xFFFF)
            cpu.f = f
            cpu.sp = (sp + 2) & 0xFFFF
        return body
    hi, lo = _RP[pair]

    def body(cpu, memory):
        sp = cpu.sp
        lo_v = memory.read8(sp)
        setattr(cpu, hi, memory.read8((sp + 1) & 0xFFFF))
        setattr(cpu, lo, lo_v)
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
        return _retag(_op_simple(body, 2, 8, np, fw), "cb_rot", y, name)
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
                op = _op_simple(body, 2, 15, pc + 2, fw)
                return (_retag(op, "adc_hl" if y & 1 else "sbc_hl", pair),
                        pc + 2, False)
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
                    op = _op_mem(body, 4, 20, np, fw)
                    return _retag(op, "ld_rp_mem", pair, nn), np, False
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
        if y == 6:              # LD (HL), r
            op = _op_mem(_body_ld_mhl_r(_R8[z]), 1, 7, np, fw)
            return _retag(op, "mhl_write", _R8[z]), np, False
        if z == 6:              # LD r, (HL)
            op = _op_mem(_body_ld_r_mhl(_R8[y]), 1, 7, np, fw)
            return _retag(op, "mhl_read", _R8[y]), np, False
        op = _op_simple(_body_ld_r(_R8[y], _R8[z]), 1, 4, np, fw)
        return _retag(op, "rr", _R8[y], _R8[z]), np, False

    if x == 2:                  # ALU A, r / ALU A, (HL)
        _, fw = _fetch_bytes(memory, pc, 1, limit, pages)
        np = pc + 1
        if z == 6:
            op = _op_mem(_body_alu_hl(y), 1, 7, np, fw)
            if y in _LOGIC_OPS:
                op = _retag(op, "mhl_logic", y)
            return op, np, False
        op = _op_simple(_body_alu(y, src=_R8[z]), 1, 4, np, fw)
        kind = "logic_r" if y in _LOGIC_OPS else "arith_r"
        return _retag(op, kind, y, _R8[z]), np, False

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
        cc = None if y == 3 else _cc(y - 4)     # JR d / JR cc, d
        return _op_jump(target, 2, (12, 7), np, fw, cc), np, True
    if z == 1:
        pair = y >> 1
        if y & 1:               # ADD HL, rp
            _, fw = _fetch_bytes(memory, pc, 1, limit, pages)
            op = _op_simple(_body_add_hl(pair), 1, 11, pc + 1, fw)
            return _retag(op, "add_hl", pair), pc + 1, False
        data, fw = _fetch_bytes(memory, pc, 3, limit, pages)
        nn = data[1] | (data[2] << 8)
        op = _op_simple(_body_ld_rp_nn(pair, nn), 3, 10, pc + 3, fw)
        return _retag(op, "ld_rp_nn", pair, nn), pc + 3, False
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
            op = _op_mem(_body_ld_nn_hl(addr), 3, 16, np, fw)
            return _retag(op, "ld_nn_hl", addr), np, False
        if y == 5:
            op = _op_mem(_body_ld_hl_nn(addr), 3, 16, np, fw)
            return _retag(op, "ld_rp_mem", 2, addr), np, False
        if y == 6:
            return _op_mem(_body_ld_nn_a(addr), 3, 13, np, fw), np, False
        return _op_mem(_body_ld_a_nn(addr), 3, 13, np, fw), np, False
    if z == 3:
        _, fw = _fetch_bytes(memory, pc, 1, limit, pages)
        delta = -1 if y & 1 else 1
        op = _op_simple(_body_incdec_rp(y >> 1, delta), 1, 6, pc + 1, fw)
        return _retag(op, "incdec_rp", y >> 1, delta), pc + 1, False
    if z == 4 or z == 5:
        _, fw = _fetch_bytes(memory, pc, 1, limit, pages)
        np = pc + 1
        if y == 6:
            return (_op_mem(_body_incdec_mhl(z == 4), 1, 11, np, fw),
                    np, False)
        op = _op_simple(_body_incdec_r(_R8[y], z == 4), 1, 4, np, fw)
        return _retag(op, "incdec", _R8[y], z == 4), np, False
    if z == 6:
        data, fw = _fetch_bytes(memory, pc, 2, limit, pages)
        value = data[1]
        np = pc + 2
        if y == 6:
            return _op_mem(_body_ld_mhl_n(value), 2, 10, np, fw), np, False
        op = _op_simple(_body_ld_r_n(_R8[y], value), 2, 7, np, fw)
        return _retag(op, "rn", _R8[y], value), np, False
    # z == 7: rotates on A, DAA, CPL, SCF, CCF
    _, fw = _fetch_bytes(memory, pc, 1, limit, pages)
    return (_op_simple(_X0_Z7_BODIES[y], 1, 4, pc + 1, fw), pc + 1, False)


def _decode_x3(memory, pc, b0, y, z, limit, pages):
    if z == 0:                  # RET cc
        _, fw = _fetch_bytes(memory, pc, 1, limit, pages)
        np = pc + 1
        return _op_ret((11, 5), np, fw, _cc(y)), np, True
    if z == 1:
        _, fw = _fetch_bytes(memory, pc, 1, limit, pages)
        np = pc + 1
        if y & 1:
            if y == 1:          # RET
                return _op_ret((10, 5), np, fw), np, True
            if y == 3:          # EXX
                return _op_simple(_body_exx, 1, 4, np, fw), np, False
            if y == 5:          # JP (HL)
                return _op_jp_hl(fw), np, True
            return (_op_simple(_body_ld_sp_hl, 1, 6, np, fw), np, False)
        op = _op_mem(_body_pop(y >> 1), 1, 10, np, fw)
        return _retag(op, "pop", y >> 1), np, False
    if z == 2:                  # JP cc, nn
        data, fw = _fetch_bytes(memory, pc, 3, limit, pages)
        addr = data[1] | (data[2] << 8)
        np = pc + 3
        return _op_jump(addr, 3, (10, 10), np, fw, _cc(y)), np, True
    if z == 3:
        if y == 0:              # JP nn
            data, fw = _fetch_bytes(memory, pc, 3, limit, pages)
            addr = data[1] | (data[2] << 8)
            return _op_jump(addr, 3, (10, 10), pc + 3, fw), pc + 3, True
        if y in (2, 3):         # OUT (n),A / IN A,(n): I/O, ender
            _fetch_bytes(memory, pc, 2, limit, pages)
            return _step_op, pc + 2, True
        if y == 4:              # EX (SP), HL
            _, fw = _fetch_bytes(memory, pc, 1, limit, pages)
            return (_op_mem(_body_ex_sp_hl, 1, 19, pc + 1, fw),
                    pc + 1, False)
        if y == 5:              # EX DE, HL
            _, fw = _fetch_bytes(memory, pc, 1, limit, pages)
            op = _op_simple(_body_ex_de_hl, 1, 4, pc + 1, fw)
            return _retag(op, "ex_de_hl"), pc + 1, False
        # DI / EI: interrupt state, ender
        return _step_op, pc + 1, True
    if z == 4:                  # CALL cc, nn
        data, fw = _fetch_bytes(memory, pc, 3, limit, pages)
        addr = data[1] | (data[2] << 8)
        np = pc + 3
        return _op_call(addr, 3, (17, 10), np, fw, _cc(y)), np, True
    if z == 5:
        if y == 1:              # CALL nn
            data, fw = _fetch_bytes(memory, pc, 3, limit, pages)
            addr = data[1] | (data[2] << 8)
            return _op_call(addr, 3, (17, 10), pc + 3, fw), pc + 3, True
        _, fw = _fetch_bytes(memory, pc, 1, limit, pages)
        op = _op_mem(_body_push(y >> 1), 1, 11, pc + 1, fw)
        return _retag(op, "push", y >> 1), pc + 1, False
    if z == 6:                  # ALU A, n
        data, fw = _fetch_bytes(memory, pc, 2, limit, pages)
        op = _op_simple(_body_alu(y, value=data[1]), 2, 7, pc + 2, fw)
        kind = "logic_n" if y in _LOGIC_OPS else "arith_n"
        return _retag(op, kind, y, data[1]), pc + 2, False
    # z == 7: RST y*8, a one-byte CALL
    _, fw = _fetch_bytes(memory, pc, 1, limit, pages)
    return _op_call(y * 8, 1, (11, 11), pc + 1, fw), pc + 1, True


# ---------------------------------------------------------------------------
# The translated tier's code generator.
# ---------------------------------------------------------------------------

#: ALU logic operation index -> Python operator spelling (codegen).
_LOGIC_CHARS = {4: "&", 5: "^", 6: "|"}

#: CB rotates/shifts by operation index (RLC RRC RL RR SLA SRA SLL SRL)
#: as source over the operand ``_v``: the result, and the carry out as
#: bit 0 (where FLAG_C sits).
_ROT_SOURCE = (
    ("((_v << 1) | (_v >> 7)) & 0xFF", "_v >> 7"),
    ("(_v >> 1) | ((_v & 1) << 7)", "_v & 1"),
    (f"((_v << 1) | (cpu.f & {FLAG_C})) & 0xFF", "_v >> 7"),
    (f"(_v >> 1) | ((cpu.f & {FLAG_C}) << 7)", "_v & 1"),
    ("(_v << 1) & 0xFF", "_v >> 7"),
    ("(_v >> 1) | (_v & 0x80)", "_v & 1"),
    ("((_v << 1) | 1) & 0xFF", "_v >> 7"),
    ("_v >> 1", "_v & 1"),
)

#: Logical data-segment address -> physical SRAM address offset.
_DATA_PHYSICAL = SRAM_BASE - DATA_BASE
#: Source test that the two-byte access at ``_s`` stays inside the data
#: segment, where it indexes SRAM directly.
_IN_DATA = f"{DATA_BASE:#x} <= _s < {DATA_TOP - 1:#x}"
#: Source for the address in HL.
_HL = "(cpu.h << 8) | cpu.l"
#: 16-bit pairs by index as (high, low) attributes, with AF for PUSH/POP.
_STACK_RP = (("b", "c"), ("d", "e"), ("h", "l"), ("a", "f"))
#: A register in template source; a self-loop keeps it in ``_r<name>``.
_REGISTER = re.compile(r"\bcpu\.(a|f|b|c|d|e|h|l|sp)\b")


class _Run:
    """The bookkeeping a translated block owes for its pending run of
    template instructions, committed as one batched epilogue (integer
    sums, so the batch is exact)."""

    __slots__ = ("reads", "writes", "waits", "cycles", "count", "pc")

    def __init__(self, reads=0, writes=0, waits=0, cycles=0, count=0,
                 pc=None):
        self.reads = reads
        self.writes = writes
        self.waits = waits
        self.cycles = cycles
        self.count = count
        self.pc = pc

    def plus(self, length, base, fw, pc, data_reads=0, data_writes=0,
             data_waits=0):
        """This run and one more instruction: ``length`` fetch bytes
        paying ``fw``, ``base`` T-states, the given data traffic, and PC
        left at ``pc`` (source; None when the caller sets it)."""
        return _Run(self.reads + length + data_reads,
                    self.writes + data_writes,
                    self.waits + fw + data_waits,
                    self.cycles + base + fw + data_waits,
                    self.count + 1, pc)

    def undo(self):
        """The run taken back: every count negated, PC left alone."""
        return _Run(-self.reads, -self.writes, -self.waits, -self.cycles,
                    -self.count)

    def source(self, depth=1, cycles=True):
        """Lines committing the run; ``cycles`` False leaves the cycle
        update to the caller (a branch whose arms cost differently)."""
        pad = "    " * depth
        lines = [f"{pad}memory.reads += {self.reads}"]
        if self.writes:
            lines.append(f"{pad}memory.writes += {self.writes}")
        if self.waits:
            lines.append(f"{pad}memory.wait_cycles += {self.waits}")
        if self.pc is not None:
            lines.append(f"{pad}cpu.pc = {self.pc}")
        if cycles:
            lines.append(f"{pad}cpu.cycles += {self.cycles}")
        lines.append(f"{pad}cpu.r = (cpu.r + {self.count}) & 0x7F")
        lines.append(f"{pad}cpu.instructions += {self.count}")
        return lines


def _commit(cpu, memory, run):
    """Commit ``run`` (its PC an int or None) from a translated block's
    cold arm: one call where a hot arm spells out :meth:`_Run.source`."""
    memory.reads += run.reads
    memory.writes += run.writes
    memory.wait_cycles += run.waits
    if run.pc is not None:
        cpu.pc = run.pc
    cpu.cycles += run.cycles
    cpu.r = (cpu.r + run.count) & 0x7F
    cpu.instructions += run.count


def _around(cpu, memory, op, before, undo):
    """A cold stack arm: commit ``before`` (the run so far), call the
    closure ``op`` (the exact slow path, accounting for its instruction
    itself), then commit ``undo``, the pending run taken back (see
    :meth:`_Translation.around`).  A raise in ``op`` skips ``undo``."""
    _commit(cpu, memory, before)
    op(cpu, memory)
    _commit(cpu, memory, undo)


def _logic_flags(operation):
    """Source setting F after AND/XOR/OR left its result in ``_a``."""
    return f"cpu.f = _SZP[_a] | {FLAG_H}" if operation == 4 \
        else "cpu.f = _SZP[_a]"


def _rhs_source(pair):
    """Source for 16-bit pair ``pair`` as the right operand of an HL
    op whose left operand is already in ``_x``."""
    if pair == 3:
        return "cpu.sp"
    return "_x" if pair == 2 else "(cpu.{0} << 8) | cpu.{1}".format(
        *_RP[pair])


def _register_source(kind, p1, p2):
    """Source for a template that touches registers and flags only, or
    None when ``kind`` is not one."""
    if kind == "rr":
        return [f"cpu.{p1} = cpu.{p2}"]
    if kind == "rn":
        return [f"cpu.{p1} = {p2}"]
    if kind == "incdec":        # cpu._inc8/_dec8, inline
        sign, table, keep = (("+", "_INC8", _INC8_KEEP) if p2
                             else ("-", "_DEC8", _DEC8_KEEP))
        return [f"_v = cpu.{p1}",
                f"cpu.{p1} = (_v {sign} 1) & 0xFF",
                f"cpu.f = (cpu.f & {keep:#x}) | {table}[_v]"]
    if kind == "arith_r":
        return [f"cpu._alu({p1}, cpu.{p2})"]
    if kind == "arith_n":
        return [f"cpu._alu({p1}, {p2})"]
    if kind in ("logic_r", "logic_n"):
        operand = f"cpu.{p2}" if kind == "logic_r" else f"{p2}"
        return [f"cpu.a = _a = cpu.a {_LOGIC_CHARS[p1]} {operand}",
                _logic_flags(p1)]
    if kind == "cb_rot":
        result, carry = _ROT_SOURCE[p1]
        return [f"_v = cpu.{p2}",
                f"cpu.{p2} = _r = {result}",
                f"cpu.f = _SZP[_r] | ({carry})"]
    if kind == "ld_rp_nn":
        if p1 == 3:
            return [f"cpu.sp = {p2}"]
        hi, lo = _RP[p1]
        return [f"cpu.{hi} = {p2 >> 8}", f"cpu.{lo} = {p2 & 0xFF}"]
    if kind == "incdec_rp":
        if p1 == 3:
            return [f"cpu.sp = (cpu.sp + {p2}) & 0xFFFF"]
        hi, lo = _RP[p1]
        return [f"_v = (((cpu.{hi} << 8) | cpu.{lo}) + {p2}) & 0xFFFF",
                f"cpu.{hi} = _v >> 8",
                f"cpu.{lo} = _v & 0xFF"]
    if kind == "add_hl":        # cpu._add16, inline
        keep = ~(FLAG_N | FLAG_C | FLAG_H) & 0xFF
        return ["_x = (cpu.h << 8) | cpu.l",
                f"_y = {_rhs_source(p1)}",
                "_v = _x + _y",
                f"cpu.f = (cpu.f & {keep:#x}) | (_v >> 16) "
                f"| ((((_x & 0xFFF) + (_y & 0xFFF)) >> 8) & {FLAG_H})",
                "cpu.h = (_v >> 8) & 0xFF",
                "cpu.l = _v & 0xFF"]
    if kind in ("adc_hl", "sbc_hl"):    # cpu._adc16/_sbc16, inline
        # Bit 15 lands on S (>> 8), bit 12 on H (>> 8), bit 16 on C
        # (>> 16; a borrow leaves _v negative) and bit 15 on P/V (>> 13).
        if kind == "adc_hl":
            op, n, same_sign = "+", "", " ^ 0x8000"
        else:
            op, n, same_sign = "-", f"{FLAG_N} | ", ""
        return ["_x = (cpu.h << 8) | cpu.l",
                f"_y = {_rhs_source(p1)}",
                f"_k = cpu.f & {FLAG_C}",
                f"_v = _x {op} _y {op} _k",
                "_r = _v & 0xFFFF",
                f"cpu.f = {n}((_r >> 8) & {FLAG_S}) "
                f"| (0 if _r else {FLAG_Z}) | ((_v >> 16) & {FLAG_C}) "
                f"| ((((_x & 0xFFF) {op} (_y & 0xFFF) {op} _k) >> 8) "
                f"& {FLAG_H}) "
                f"| ((((_x ^ _y{same_sign}) & (_x ^ _r)) >> 13) & {FLAG_PV})",
                "cpu.h = _r >> 8",
                "cpu.l = _r & 0xFF"]
    if kind == "ex_de_hl":
        return ["cpu.d, cpu.e, cpu.h, cpu.l = cpu.h, cpu.l, cpu.d, cpu.e"]
    return None


class _Translation:
    """The source of one translated block, built op by op (see
    :meth:`BlockCache.translate` for the rules it keeps)."""

    def __init__(self, cache, ops):
        memory = cache.memory
        self.ops = ops
        self.last = len(ops) - 1
        self.flash_ws = memory.flash_wait_states
        self.sram_ws = memory.sram_wait_states
        self.ns = {"_c": cache, "_S": memory.sram, "_F": memory.flash,
                   "_P": memory._code_pages, "_SZP": _SZP,
                   "_INC8": _INC8, "_DEC8": _DEC8,
                   "_commit": _commit, "_around": _around}
        self.lines = []
        self.run = _Run()
        #: Whether the text tests ``_c.bail`` (and so clears it first).
        self.tests_bail = False

    def emit(self, line, depth=1):
        self.lines.append("    " * depth + line)

    def flush(self):
        """Commit the pending run (before an out-of-line call)."""
        if self.run.count:
            self.lines += self.run.source()
            self.run = _Run()

    def bind(self, name, value):
        self.ns[name] = value
        return name

    def constant(self, run):
        """Bind ``run`` for a cold arm's helper call; returns its name."""
        return self.bind(f"_run{len(self.ns)}", run)

    def closure(self, i, depth=1):
        """One call to op ``i``'s closure: the exact slow path."""
        self.emit(f"{self.bind(f'_o{i}', self.ops[i])}(cpu, memory)", depth)

    def opaque(self, i):
        """A closure call, which can raise or set bail: the run commits
        first."""
        self.flush()
        self.closure(i)
        self.bail_check(i)

    def bail_check(self, i):
        """Return at once, the pending run committed, if op ``i`` (which
        can write) set bail."""
        if i != self.last:
            self.tests_bail = True
            self.emit("if _c.bail:")
            if self.run.count:
                self.emit(f"return _commit(cpu, memory, "
                          f"{self.constant(self.run)})", 2)
            else:
                self.emit("return", 2)

    def around(self, i, run):
        """The cold arm of a hot op ``i`` whose hot arm leaves ``run``
        pending, as one :func:`_around` call: commit the run so far,
        call the closure (it accounts for op ``i`` itself), then take
        back ``run``, which the block's later commit adds again."""
        op = self.bind(f"_o{i}", self.ops[i])
        self.emit(f"_around(cpu, memory, {op}, {self.constant(self.run)}, "
                  f"{self.constant(run.undo())})", 2)

    def store(self, value, offset, address=None, depth=1):
        """Write ``value`` to data-segment byte ``address + offset``
        (``_s + offset`` when ``address`` is None), then check its page
        for decoded code, as ``write8`` does."""
        if address is None:
            self.emit(f"_S[_s - {DATA_BASE - offset:#x}] = {value}", depth)
            physical = f"_s + {_DATA_PHYSICAL + offset:#x}"
            self.emit(f"if _P[({physical}) >> 8]:", depth)
        else:
            physical = address + offset + _DATA_PHYSICAL
            self.emit(f"_S[{physical - SRAM_BASE:#x}] = {value}", depth)
            self.emit(f"if _P[{physical >> 8:#x}]:", depth)
        self.emit(f"_c.code_written({physical})", depth + 1)

    def static_source(self, address):
        """(array, index, wait states) for a two-byte access at the
        constant ``address`` inside one fixed segment, else None."""
        if DATA_BASE <= address < DATA_TOP - 1:
            return "_S", address - DATA_BASE, self.sram_ws
        if address < ROOT_TOP - 1:
            return "_F", address, self.flash_ws
        return None

    # -- op classes ----------------------------------------------------

    def add(self, i, op):
        t = getattr(op, "_tmpl", None)
        if t is None:
            self.opaque(i)
            return
        kind, p1, p2, length, base, np, fw = t
        source = _register_source(kind, p1, p2)
        if source is not None:
            self.lines += ["    " + line for line in source]
            self.run = self.run.plus(length, base, fw, np)
        else:
            getattr(self, kind)(i, p1, p2, length, base, np, fw)

    def simple(self, i, body, _unused, length, base, np, fw):
        """An ``_op_simple`` body: one call, batched in the run."""
        self.emit(f"{self.bind(f'_b{i}', body)}(cpu)")
        self.run = self.run.plus(length, base, fw, np)

    def committed(self, i, access, writes, length, base, np, fw):
        """A data access through ``read8``/``write8`` (the ``access``
        source lines), committing its own bookkeeping in the closures'
        statement order: it can add wait states (measured as a delta),
        raise, or -- when it ``writes`` -- set bail."""
        self.flush()
        self.emit(f"memory.reads += {length}")
        if fw:
            self.emit(f"memory.wait_cycles += {fw}")
        self.emit(f"cpu.pc = {np}")
        self.emit("cpu.r = (cpu.r + 1) & 0x7F")
        self.emit("_w = memory.wait_cycles")
        for line in access:
            self.emit(line)
        self.emit(f"cpu.cycles += {base + fw} + memory.wait_cycles - _w")
        self.emit("cpu.instructions += 1")
        if writes:
            self.bail_check(i)

    def mem(self, i, body, _unused, *costs):
        """Any other ``_op_mem`` op: its wrapper inline around one body
        call, one call per memory op instead of two."""
        self.committed(i, [f"{self.bind(f'_b{i}', body)}(cpu, memory)"],
                       True, *costs)

    # The (HL) accessors, their access inline.
    def mhl_read(self, i, dst, _unused, *costs):
        self.committed(i, [f"cpu.{dst} = memory.read8({_HL})"], False,
                       *costs)

    def mhl_write(self, i, src, _unused, *costs):
        self.committed(i, [f"memory.write8({_HL}, cpu.{src})"], True,
                       *costs)

    def mhl_logic(self, i, operation, _unused, *costs):
        self.committed(i, [f"cpu.a = _a = cpu.a {_LOGIC_CHARS[operation]} "
                           f"memory.read8({_HL})", _logic_flags(operation)],
                       False, *costs)

    def ld_rp_mem(self, i, pair, address, length, base, np, fw):
        """LD rp,(nn) from root flash or the data segment: part of the
        run, since it can neither raise nor write."""
        static = self.static_source(address)
        if static is None:
            self.opaque(i)
            return
        array, index, ws = static
        if pair == 3:
            self.emit(f"cpu.sp = {array}[{index:#x}] "
                      f"| ({array}[{index + 1:#x}] << 8)")
        else:
            hi, lo = _RP[pair]
            self.emit(f"cpu.{lo} = {array}[{index:#x}]")
            self.emit(f"cpu.{hi} = {array}[{index + 1:#x}]")
        self.run = self.run.plus(length, base, fw, np, data_reads=2,
                                 data_waits=2 * ws)

    def ld_nn_hl(self, i, address, _unused, length, base, np, fw):
        """LD (nn),HL into the data segment: part of the run, then the
        bail check (the store may land on decoded code)."""
        if not DATA_BASE <= address < DATA_TOP - 1:
            self.opaque(i)
            return
        self.store("cpu.l", 0, address)
        self.store("cpu.h", 1, address)
        self.run = self.run.plus(length, base, fw, np, data_writes=2,
                                 data_waits=2 * self.sram_ws)
        self.bail_check(i)

    def push(self, i, pair, _unused, length, base, np, fw):
        """PUSH rp: SRAM stores, part of the run, while SP stays in the
        data segment, else the closure committed around; then the bail
        check."""
        hi, lo = _STACK_RP[pair]
        run = self.run.plus(length, base, fw, np, data_writes=2,
                            data_waits=2 * self.sram_ws)
        self.emit("_s = cpu.sp - 2")
        self.emit(f"if {_IN_DATA}:")
        self.emit("cpu.sp = _s", 2)
        self.store(f"cpu.{lo}", 0, depth=2)
        self.store(f"cpu.{hi}", 1, depth=2)
        self.emit("else:")
        self.around(i, run)
        self.run = run
        self.bail_check(i)

    def pop(self, i, pair, _unused, length, base, np, fw):
        """POP rp: SRAM loads, part of the run, while SP stays in the
        data segment, else the closure committed around (it can
        raise)."""
        hi, lo = _STACK_RP[pair]
        run = self.run.plus(length, base, fw, np, data_reads=2,
                            data_waits=2 * self.sram_ws)
        self.emit("_s = cpu.sp")
        self.emit(f"if {_IN_DATA}:")
        self.emit(f"cpu.{lo} = _S[_s - {DATA_BASE:#x}]", 2)
        self.emit(f"cpu.{hi} = _S[_s - {DATA_BASE - 1:#x}]", 2)
        self.emit("cpu.sp = _s + 2", 2)
        self.emit("else:")
        self.around(i, run)
        self.run = run

    # -- block-ending branches: the function's tail ----------------------
    # An ender is always a block's last op, so the pending run folds into
    # its epilogue on every arm; an arm that falls back to the closure
    # commits the run first.

    @staticmethod
    def condition(cc):
        mask, want = cc
        return f"cpu.f & {mask}" if want else f"not cpu.f & {mask}"

    def jump(self, i, target, cc, length, costs, np, fw):
        """JP/JR (cc): one commit, with PC chosen inline when both arms
        cost the same (JP cc), else a branch (JR cc)."""
        if cc is not None and costs[0] != costs[1]:
            self.branch(self.condition(cc), target, length, costs, np, fw)
            return
        pc = (target if cc is None else
              f"{target} if {self.condition(cc)} else {np}")
        self.lines += self.run.plus(length, costs[0], fw, pc).source()
        self.run = _Run()

    def djnz(self, i, target, _unused, length, costs, np, fw):
        self.emit("cpu.b = _v = (cpu.b - 1) & 0xFF")
        self.branch("_v", target, length, costs, np, fw)

    def branch(self, condition, target, length, costs, np, fw):
        run = self.run.plus(length, 0, fw, None)
        self.lines += run.source(cycles=False)
        self.emit(f"if {condition}:")
        self.emit(f"cpu.pc = {target}", 2)
        self.emit(f"cpu.cycles += {run.cycles + costs[0]}", 2)
        self.emit("else:")
        self.emit(f"cpu.pc = {np}", 2)
        self.emit(f"cpu.cycles += {run.cycles + costs[1]}", 2)
        self.run = _Run()

    def call(self, i, target, cc, length, costs, np, fw):
        self.emit("_s = cpu.sp - 2")
        taken = "" if cc is None else f"{self.condition(cc)} and "
        self.emit(f"if {taken}{_IN_DATA}:")
        self.emit("cpu.sp = _s", 2)
        self.store(np & 0xFF, 0, depth=2)
        self.store(np >> 8, 1, depth=2)
        self.lines += self.run.plus(
            length, costs[0], fw, target, data_writes=2,
            data_waits=2 * self.sram_ws).source(2)
        self.fall_back(i, cc, length, costs, np, fw)

    def ret(self, i, _unused, cc, length, costs, np, fw):
        self.emit("_s = cpu.sp")
        taken = "" if cc is None else f"{self.condition(cc)} and "
        self.emit(f"if {taken}{_IN_DATA}:")
        self.emit(f"cpu.pc = _S[_s - {DATA_BASE:#x}] "
                  f"| (_S[_s - {DATA_BASE - 1:#x}] << 8)", 2)
        self.emit("cpu.sp = _s + 2", 2)
        self.lines += self.run.plus(
            length, costs[0], fw, None, data_reads=2,
            data_waits=2 * self.sram_ws).source(2)
        self.fall_back(i, cc, length, costs, np, fw)

    def fall_back(self, i, cc, length, costs, np, fw):
        """The arms after a stack tail's fast path: not taken, and SP
        off the data segment (the run, then the closure)."""
        if cc is not None:
            mask, want = cc
            self.emit(f"elif {self.condition((mask, not want))}:")
            self.lines += self.run.plus(length, costs[1], fw,
                                        np).source(2)
        self.emit("else:")
        if self.run.count:
            self.emit(f"_commit(cpu, memory, {self.constant(self.run)})", 2)
        self.closure(i, 2)
        self.run = _Run()

    def source(self):
        self.flush()
        if self.tests_bail:
            self.lines.insert(0, "    _c.bail = False")
        return "def _tr(cpu, memory):\n" + "\n".join(self.lines) + "\n"

    def self_loop(self, start):
        """The source of this block as a register-only self-loop, or
        None when it is not one: every op but the last a template of
        registers and flags alone (no method call left once its
        registers are locals), the last a DJNZ or JP/JR (cc) back to
        ``start``.

        ``_tr(cpu, memory, _n=0, _t=0)`` loads the registers it names
        into locals (``_r<name>``), runs the body and the branch, and
        iterates while the branch is taken and the next iteration fits:
        its ``size`` instructions within ``_n`` (the budget left at
        entry) and the cycles before it below ``_t``, the dispatch's
        test for running a block whole.  ``_m``, the iterations both
        allow, is worked out on entry.  Then one commit: the registers
        stored back, and the counters of ``_i`` iterations in closed
        form.  It returns ``_i``.  The defaults allow one iteration.
        """
        kind, target, cc, length, costs, np, fw = getattr(
            self.ops[-1], "_tmpl", (None,) * 7)
        if kind not in ("djnz", "jump") or target != start:
            return None
        body = []
        run = _Run()
        for op in self.ops[:-1]:
            t = getattr(op, "_tmpl", None)
            source = t and _register_source(*t[:3])
            if source is None:
                return None
            body += source
            run = run.plus(t[3], t[4], t[6], None)
        run = run.plus(length, 0, fw, None)
        condition = None
        if kind == "djnz":
            body.append("cpu.b = _v = (cpu.b - 1) & 0xFF")
            condition = "_v"
        elif cc is not None:
            condition = self.condition(cc)
        text = "\n".join(body + [condition or ""])
        if "cpu." in _REGISTER.sub("", text):
            return None
        registers = sorted(set(_REGISTER.findall(text)))
        body = [_REGISTER.sub(r"_r\1", line) for line in body]
        condition = condition and _REGISTER.sub(r"_r\1", condition)
        taken = run.cycles + costs[0]
        lines = [f"_r{name} = cpu.{name}" for name in registers]
        lines += [f"_m = _n // {len(self.ops)}",
                  f"_h = (_t - cpu.cycles - 1) // {taken} + 1",
                  "if _h < _m:",
                  "    _m = _h",
                  "_i = 0",
                  "while True:",
                  "    _i += 1"]
        lines += ["    " + line for line in body]
        if condition:
            skipped = "" if costs[0] == costs[1] else \
                f" - {costs[0] - costs[1]}"
            lines += [f"    if not ({condition}):",
                      f"        cpu.pc = {np}",
                      f"        cpu.cycles += _i * {taken}{skipped}",
                      "        break"]
        lines += ["    if _i >= _m:",
                  f"        cpu.pc = {start}",
                  f"        cpu.cycles += _i * {taken}",
                  "        break"]
        lines += [f"cpu.{name} = _r{name}" for name in registers]
        lines.append(f"memory.reads += _i * {run.reads}")
        if run.waits:
            lines.append(f"memory.wait_cycles += _i * {run.waits}")
        lines += [f"cpu.r = (cpu.r + _i * {run.count}) & 0x7F",
                  f"cpu.instructions += _i * {run.count}",
                  "return _i"]
        return ("def _tr(cpu, memory, _n=0, _t=0):\n"
                + "".join(f"    {line}\n" for line in lines))


# ---------------------------------------------------------------------------
# The cache.
# ---------------------------------------------------------------------------

#: Translated text compiled in this process: ``(block key, len(source),
#: sha256(source))`` -> code.  The same text compiles to the same code,
#: so a block translated again (by another board loading the same
#: firmware, or after a flush) reuses it; each translation still binds
#: its own namespace.  The key carries the block key so the code keeps
#: that block's filename, and the text's length and digest rather than
#: the text, so the memo holds no source once its blocks are gone.
_COMPILED: dict[tuple[int, int, bytes], object] = {}
#: Entries kept before the memo starts over, bounding what a long run
#: through many distinct programs holds.
_COMPILED_LIMIT = 4096


class BlockCache:
    """Decoded basic blocks plus the invalidation machinery.

    Blocks are mutable ``[ops, last, exec_count, translated, loop]``
    records: the closures; the logical address of the last instruction
    (the dispatch loop single-steps instead of running a block with the
    stop address on one of its instructions after the first; a block
    listener reads the instruction there); how many times the block has
    dispatched through the closure-list tier; once ``exec_count``
    crosses :attr:`translate_threshold`, one ``compile()``d function
    that runs the whole block with the per-opcode dispatch loop
    eliminated and the bookkeeping of template-able instruction runs
    batched (the *translated tier*); and whether that function is a
    register-only self-loop, which takes a budget and a cycle bound and
    returns its iteration count (see the module docstring), set with
    the function.  A block ends before any address in the CPU's
    :attr:`~repro.rabbit.cpu.Cpu.block_ends`.
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
            block = [(_step_op,), pc, 0, None, False]
            self.blocks[key] = block
            self.decoded_blocks += 1
            return block
        block = [tuple(ops), last, 0, None, False]
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

        Each closure's tag (``op._tmpl``, see :func:`_retag`) picks the
        :class:`_Translation` method that emits it.  Template
        instructions are emitted inline, and their counter bookkeeping
        (``memory.reads``/``writes``/``wait_cycles``,
        ``cpu.pc``/``cycles``/``r``/``instructions``) adds up at translate
        time into one pending run; integer sums make the batch exact.
        Templated classes:

        * registers and flags only: LD r,r' / LD r,n / INC/DEC r /
          AND/XOR/OR (flags from one S/Z/PV table) / ADD..CP / CB
          rotates and shifts on registers / LD rp,nn / INC/DEC rp /
          ADD HL,rp / ADC HL,rp and SBC HL,rp (flags computed inline as
          ``Cpu._adc16``/``_sbc16`` set them) / EX DE,HL / ``_op_simple``
          bodies (one call each);
        * ``LD HL,(nn)`` and ED ``LD rp,(nn)`` from a constant address
          inside root flash or the data segment: direct indexing, wait
          states known at translate time;
        * ``LD (nn),HL`` into the data segment, ``PUSH``/``POP``: direct
          SRAM indexing, counted exactly as ``read8``/``write8`` would.
          ``PUSH``/``POP`` test at run time that the two bytes at SP lie
          in ``0xC000 <= a < 0xDFFF``; the other (cold) arm calls the
          closure;
        * the block-ending ``JP``/``JR`` (cc) (one :func:`_op_jump` tag)
          and ``DJNZ`` as the function's tail, folded into the run's
          commit; ``CALL``/``RST``/``RET`` (cc) on the same stack test,
          with the off-segment arm committing the run and calling the
          closure;
        * the ``(HL)`` accessors and other ``_op_mem`` ops: inline
          wrapper around one body call (``read8``/``write8``), in the
          closure's statement order -- PC and R move before the access,
          ``cycles`` and ``instructions`` after it, so a fault leaves
          them where the step core does -- committing their own
          bookkeeping.

        Everything else stays an opaque closure call.  Ordering rules
        that keep the tallies byte-identical to the closure-list tier:

        * hot arms defer; the run commits at the tail, in every bail
          arm, and around every call that can raise or set bail (an
          opaque op, a memory op's access, a cold stack arm's closure):
          memory-class closures measure data wait states via a
          before/after ``memory.wait_cycles`` delta, a generic step
          re-fetches at ``cpu.pc``, and a raise must leave every counter
          committed;
        * hot arms and the tail commit inline; cold arms -- a bail arm,
          a stack tail's off-segment ``else``, a cold stack arm --
          commit through :func:`_commit` (or :func:`_around`) with the
          run as a bound constant: the same sums, committed in one call;
        * commit-around: a cold stack arm (one :func:`_around` call)
          commits the run so far, calls the closure (which accounts for
          its instruction itself), then takes back the run including
          that instruction's hot charge (:meth:`_Run.undo`), which the
          block's later commit adds again.  Committed plus pending
          equals the truth at every op boundary, and pending is zero at
          every such call, raise point and exit;
        * inline code and ``_op_simple`` bodies read no counter and
          cannot raise; :meth:`code_written`, which a hot store calls
          while a run is pending, only drops blocks and raises
          :attr:`bail`;
        * every inline write checks ``_code_pages`` right after its
          store, in write order, and a ``bail`` check follows every
          instruction that can write (inline or through its closure),
          except the block's last;
        * no name bound into the namespace (the closures ``_o*``/``_b*``,
          the runs ``_run*``, the helpers, the memory views) is a local
          any template assigns.

        A register-only self-loop is translated whole instead, by
        :meth:`_Translation.self_loop`, and flagged in ``block[4]``.

        The source is compiled once per block key and text in the
        process (:data:`_COMPILED`, which holds a digest of the text,
        not the text): the same text compiles to the same code, which
        this block's namespace then binds, so the function reads this
        block's closures, cache and memory, and its code keeps the
        ``<translated:key>`` filename of this block's key.
        """
        translation = _Translation(self, block[0])
        source = translation.self_loop(key & 0xFFFF)
        block[4] = source is not None
        if source is None:
            for i, op in enumerate(block[0]):
                translation.add(i, op)
            source = translation.source()
        memo = (key, len(source),
                hashlib.sha256(source.encode()).digest())
        code = _COMPILED.get(memo)
        if code is None:
            if len(_COMPILED) >= _COMPILED_LIMIT:
                _COMPILED.clear()
            code = _COMPILED[memo] = compile(
                source, f"<translated:{key:#x}>", "exec")
        ns = translation.ns
        exec(code, ns)
        fn = ns["_tr"]
        block[3] = fn
        self.translated_blocks += 1
        return fn
