"""Rabbit 2000 CPU core: a cycle-counting Z80-family emulator.

The Rabbit 2000 is "a 30 MHz, 8-bit Z80-based microcontroller" (paper,
Section 4).  This core implements the Z80 instruction set -- main table,
CB (bit ops), ED (extended), DD/FD (IX/IY) -- with per-instruction cycle
counts, plus the two Rabbit extensions the memory system needs
(``LD XPC, A`` = ED 67 and ``LD A, XPC`` = ED 77, the bank-window
register transfer).

Decoding follows the classic octal field scheme (x = bits 7-6,
y = bits 5-3, z = bits 2-0), which keeps the implementation small and
auditable; cycle counts use classic Z80 T-states (the Rabbit retimed
some instructions, but every experiment in the paper compares programs
run on the *same* clock and timing model, so ratios are preserved --
see DESIGN.md's deviations table).

Interrupt model: level-triggered external interrupt lines that, when
enabled via EI, push PC and jump to a vector (the board layer's
``SetVectExtern2000`` installs handlers at those vectors).
"""

from __future__ import annotations

# Flag bit positions in F.
FLAG_C = 0x01
FLAG_N = 0x02
FLAG_PV = 0x04
FLAG_H = 0x10
FLAG_Z = 0x40
FLAG_S = 0x80

#: Parity lookup: bit set when the byte has even parity.
_PARITY = bytes(
    1 if bin(v).count("1") % 2 == 0 else 0 for v in range(256)
)


#: An instruction budget or cycle target no run reaches.
_UNBOUNDED = 1 << 64


class CpuError(RuntimeError):
    """Raised on unimplemented opcodes (a bug in generated code)."""


class Cpu:
    """One Z80/Rabbit core attached to a memory and an I/O bus."""

    #: Class-level switch for the predecoded basic-block fast path
    #: (:mod:`repro.rabbit.fastcore`).  Set to False (per instance or
    #: subclass) to force the single-step core everywhere -- the oracle
    #: the fast-core and profiler differential tests compare against.
    use_fast_core = True

    #: The one exact instrument hook, installed with
    #: :meth:`set_block_listener`.  ``listener(pc, block, start, ran)``
    #: runs after every unit the dispatch loop runs: a predecoded block
    #: (``block`` is its cache record; ``ran`` falls short of
    #: ``len(block[0])`` when an SMC bail or a fault cut it, and the
    #: fault is raised after the call) or one :meth:`step` (``block``
    #: is None; ``ran`` is 0 for an interrupt acknowledge; a step that
    #: faults is no unit).
    #: ``pc`` is the unit's entry point and ``start`` the cycle count
    #: before it.  The loop hoists the attribute once on entry, so
    #: install it between runs, not during.
    block_listener = None

    #: Addresses no predecoded block runs past (blocks end before them),
    #: so a listener sees every entry into one of them as a unit's ``pc``.
    block_ends = frozenset()

    def __init__(self, memory, io=None):
        self.memory = memory
        self.io = io
        self._cache = None
        self.reset()

    # -- state ---------------------------------------------------------
    def reset(self) -> None:
        self.a = 0
        self.f = 0
        self.b = self.c = self.d = self.e = self.h = self.l = 0
        self.a2 = self.f2 = 0
        self.b2 = self.c2 = self.d2 = self.e2 = self.h2 = self.l2 = 0
        self.ix = 0
        self.iy = 0
        self.sp = 0xDFFF
        self.pc = 0
        self.i = 0
        self.r = 0
        self.iff1 = False
        self.iff2 = False
        self.im = 1
        self.halted = False
        self.cycles = 0
        self.instructions = 0
        self._int_pending: list[int] = []

    def sample_telemetry(self, series, clock_hz: float) -> None:
        """Record the cumulative cycle counter into an obs time series.

        The sample time is the core's own clock (``cycles / clock_hz``
        seconds since reset), so cycle-rate series line up run to run
        regardless of where the board sits in a larger simulation.
        """
        series.record_at(self.cycles / clock_hz, float(self.cycles))

    # -- register pair helpers ------------------------------------------
    @property
    def bc(self) -> int:
        return (self.b << 8) | self.c

    @bc.setter
    def bc(self, value: int) -> None:
        self.b = (value >> 8) & 0xFF
        self.c = value & 0xFF

    @property
    def de(self) -> int:
        return (self.d << 8) | self.e

    @de.setter
    def de(self, value: int) -> None:
        self.d = (value >> 8) & 0xFF
        self.e = value & 0xFF

    @property
    def hl(self) -> int:
        return (self.h << 8) | self.l

    @hl.setter
    def hl(self, value: int) -> None:
        self.h = (value >> 8) & 0xFF
        self.l = value & 0xFF

    @property
    def af(self) -> int:
        return (self.a << 8) | self.f

    @af.setter
    def af(self, value: int) -> None:
        self.a = (value >> 8) & 0xFF
        self.f = value & 0xFF

    def flag(self, mask: int) -> bool:
        return bool(self.f & mask)

    def _set_flag(self, mask: int, on: bool) -> None:
        if on:
            self.f |= mask
        else:
            self.f &= ~mask & 0xFF

    # -- memory helpers ----------------------------------------------------
    def _read(self, addr: int) -> int:
        return self.memory.read8(addr & 0xFFFF)

    def _write(self, addr: int, value: int) -> None:
        self.memory.write8(addr & 0xFFFF, value & 0xFF)

    def _read16(self, addr: int) -> int:
        return self._read(addr) | (self._read(addr + 1) << 8)

    def _write16(self, addr: int, value: int) -> None:
        self._write(addr, value & 0xFF)
        self._write(addr + 1, (value >> 8) & 0xFF)

    def _fetch(self) -> int:
        value = self._read(self.pc)
        self.pc = (self.pc + 1) & 0xFFFF
        return value

    def _fetch16(self) -> int:
        lo = self._fetch()
        return lo | (self._fetch() << 8)

    def _push(self, value: int) -> None:
        self.sp = (self.sp - 2) & 0xFFFF
        self._write16(self.sp, value)

    def _pop(self) -> int:
        value = self._read16(self.sp)
        self.sp = (self.sp + 2) & 0xFFFF
        return value

    # -- 8-bit register file by index (B C D E H L (HL) A) ------------------
    def _get_r(self, index: int, prefix: int = 0, displacement: int = 0) -> int:
        if index == 6:
            return self._read(self._indexed_addr(prefix, displacement))
        if prefix and index in (4, 5):
            pair = self.ix if prefix == 0xDD else self.iy
            return (pair >> 8) & 0xFF if index == 4 else pair & 0xFF
        return (self.b, self.c, self.d, self.e, self.h, self.l, None, self.a)[index]

    def _set_r(self, index: int, value: int, prefix: int = 0,
               displacement: int = 0) -> None:
        value &= 0xFF
        if index == 6:
            self._write(self._indexed_addr(prefix, displacement), value)
            return
        if prefix and index in (4, 5):
            pair = self.ix if prefix == 0xDD else self.iy
            if index == 4:
                pair = (pair & 0x00FF) | (value << 8)
            else:
                pair = (pair & 0xFF00) | value
            if prefix == 0xDD:
                self.ix = pair
            else:
                self.iy = pair
            return
        setattr(self, ("b", "c", "d", "e", "h", "l", None, "a")[index], value)

    def _indexed_addr(self, prefix: int, displacement: int) -> int:
        if prefix == 0xDD:
            return (self.ix + displacement) & 0xFFFF
        if prefix == 0xFD:
            return (self.iy + displacement) & 0xFFFF
        return self.hl

    # -- 16-bit pair by index (BC DE HL SP), with prefix remap -------------
    def _get_rp(self, index: int, prefix: int = 0, use_af: bool = False) -> int:
        if index == 2 and prefix:
            return self.ix if prefix == 0xDD else self.iy
        if index == 3 and use_af:
            return self.af
        return (self.bc, self.de, self.hl, self.sp)[index]

    def _set_rp(self, index: int, value: int, prefix: int = 0,
                use_af: bool = False) -> None:
        value &= 0xFFFF
        if index == 2 and prefix:
            if prefix == 0xDD:
                self.ix = value
            else:
                self.iy = value
            return
        if index == 3 and use_af:
            self.af = value
            return
        if index == 0:
            self.bc = value
        elif index == 1:
            self.de = value
        elif index == 2:
            self.hl = value
        else:
            self.sp = value

    # -- flag computation ---------------------------------------------------
    # These run once per emulated ALU instruction, so they compute F in a
    # local and store once instead of chaining _set_flag calls.  Bits 3
    # and 5 (the undocumented F copies) are preserved or cleared exactly
    # as the original read-modify-write chains did.
    def _sz_flags(self, value: int) -> None:
        f = self.f & ~(FLAG_S | FLAG_Z) & 0xFF
        f |= value & 0x80
        if value == 0:
            f |= FLAG_Z
        self.f = f

    def _logic_flags(self, value: int, half: bool) -> None:
        f = value & 0x80
        if value == 0:
            f |= FLAG_Z
        if half:
            f |= FLAG_H
        if _PARITY[value]:
            f |= FLAG_PV
        self.f = f

    def _add8(self, lhs: int, rhs: int, carry_in: int) -> int:
        result = lhs + rhs + carry_in
        value = result & 0xFF
        f = value & 0x80
        if value == 0:
            f |= FLAG_Z
        if ((lhs & 0xF) + (rhs & 0xF) + carry_in) > 0xF:
            f |= FLAG_H
        if result > 0xFF:
            f |= FLAG_C
        if (~(lhs ^ rhs) & (lhs ^ value)) & 0x80:
            f |= FLAG_PV
        self.f = f
        return value

    def _sub8(self, lhs: int, rhs: int, carry_in: int, store_carry: bool = True) -> int:
        result = lhs - rhs - carry_in
        value = result & 0xFF
        f = FLAG_N | (value & 0x80)
        if value == 0:
            f |= FLAG_Z
        if ((lhs & 0xF) - (rhs & 0xF) - carry_in) < 0:
            f |= FLAG_H
        if store_carry and result < 0:
            f |= FLAG_C
        if ((lhs ^ rhs) & (lhs ^ value)) & 0x80:
            f |= FLAG_PV
        self.f = f
        return value

    def _alu(self, operation: int, operand: int) -> None:
        if operation == 0:      # ADD
            self.a = self._add8(self.a, operand, 0)
        elif operation == 1:    # ADC
            self.a = self._add8(self.a, operand, self.f & FLAG_C)
        elif operation == 2:    # SUB
            self.a = self._sub8(self.a, operand, 0)
        elif operation == 3:    # SBC
            self.a = self._sub8(self.a, operand, self.f & FLAG_C)
        elif operation == 4:    # AND
            self.a &= operand
            self._logic_flags(self.a, half=True)
        elif operation == 5:    # XOR
            self.a ^= operand
            self._logic_flags(self.a, half=False)
        elif operation == 6:    # OR
            self.a |= operand
            self._logic_flags(self.a, half=False)
        else:                   # CP
            self._sub8(self.a, operand, 0)

    def _inc8(self, value: int) -> int:
        result = (value + 1) & 0xFF
        f = self.f & ~(FLAG_N | FLAG_S | FLAG_Z | FLAG_H | FLAG_PV) & 0xFF
        f |= result & 0x80
        if result == 0:
            f |= FLAG_Z
        if (value & 0xF) == 0xF:
            f |= FLAG_H
        if value == 0x7F:
            f |= FLAG_PV
        self.f = f
        return result

    def _dec8(self, value: int) -> int:
        result = (value - 1) & 0xFF
        f = (self.f & ~(FLAG_S | FLAG_Z | FLAG_H | FLAG_PV) & 0xFF) | FLAG_N
        f |= result & 0x80
        if result == 0:
            f |= FLAG_Z
        if (value & 0xF) == 0:
            f |= FLAG_H
        if value == 0x80:
            f |= FLAG_PV
        self.f = f
        return result

    def _add16(self, lhs: int, rhs: int) -> int:
        result = lhs + rhs
        f = self.f & ~(FLAG_N | FLAG_C | FLAG_H) & 0xFF
        if result > 0xFFFF:
            f |= FLAG_C
        if ((lhs & 0xFFF) + (rhs & 0xFFF)) > 0xFFF:
            f |= FLAG_H
        self.f = f
        return result & 0xFFFF

    def _adc16(self, lhs: int, rhs: int) -> int:
        carry = 1 if self.flag(FLAG_C) else 0
        result = lhs + rhs + carry
        value = result & 0xFFFF
        self.f = 0
        self._set_flag(FLAG_S, bool(value & 0x8000))
        self._set_flag(FLAG_Z, value == 0)
        self._set_flag(FLAG_C, result > 0xFFFF)
        self._set_flag(FLAG_H, ((lhs & 0xFFF) + (rhs & 0xFFF) + carry) > 0xFFF)
        overflow = (~(lhs ^ rhs) & (lhs ^ value)) & 0x8000
        self._set_flag(FLAG_PV, bool(overflow))
        return value

    def _sbc16(self, lhs: int, rhs: int) -> int:
        carry = 1 if self.flag(FLAG_C) else 0
        result = lhs - rhs - carry
        value = result & 0xFFFF
        self.f = FLAG_N
        self._set_flag(FLAG_S, bool(value & 0x8000))
        self._set_flag(FLAG_Z, value == 0)
        self._set_flag(FLAG_C, result < 0)
        self._set_flag(FLAG_H, ((lhs & 0xFFF) - (rhs & 0xFFF) - carry) < 0)
        overflow = ((lhs ^ rhs) & (lhs ^ value)) & 0x8000
        self._set_flag(FLAG_PV, bool(overflow))
        return value

    def _condition(self, index: int) -> bool:
        flag = (FLAG_Z, FLAG_Z, FLAG_C, FLAG_C, FLAG_PV, FLAG_PV, FLAG_S, FLAG_S)[index]
        want = bool(index & 1)
        return self.flag(flag) == want

    # -- rotates/shifts (CB and the A-only forms) -----------------------------
    def _rot(self, operation: int, value: int) -> int:
        carry_in = 1 if self.flag(FLAG_C) else 0
        if operation == 0:      # RLC
            carry = (value >> 7) & 1
            result = ((value << 1) | carry) & 0xFF
        elif operation == 1:    # RRC
            carry = value & 1
            result = ((value >> 1) | (carry << 7)) & 0xFF
        elif operation == 2:    # RL
            carry = (value >> 7) & 1
            result = ((value << 1) | carry_in) & 0xFF
        elif operation == 3:    # RR
            carry = value & 1
            result = ((value >> 1) | (carry_in << 7)) & 0xFF
        elif operation == 4:    # SLA
            carry = (value >> 7) & 1
            result = (value << 1) & 0xFF
        elif operation == 5:    # SRA
            carry = value & 1
            result = ((value >> 1) | (value & 0x80)) & 0xFF
        elif operation == 6:    # SLL (undocumented; assemble as SLA|1)
            carry = (value >> 7) & 1
            result = ((value << 1) | 1) & 0xFF
        else:                   # SRL
            carry = value & 1
            result = (value >> 1) & 0xFF
        self._logic_flags(result, half=False)
        self._set_flag(FLAG_C, bool(carry))
        return result

    # -- interrupts --------------------------------------------------------------
    def request_interrupt(self, vector: int) -> None:
        """Assert an interrupt that will jump to ``vector`` when enabled."""
        self._int_pending.append(vector & 0xFFFF)

    def _service_interrupts(self) -> int:
        if not self._int_pending or not self.iff1:
            return 0
        vector = self._int_pending.pop(0)
        self.iff1 = self.iff2 = False
        self.halted = False
        self._push(self.pc)
        self.pc = vector
        return 13

    # -- main loop ------------------------------------------------------------
    def step(self) -> int:
        """Execute one instruction; returns cycles consumed (and adds
        them to :attr:`cycles`).

        Servicing an interrupt consumes a whole step: the acknowledge
        cycle pushes PC and jumps, and the next step executes the ISR's
        first instruction.
        """
        if self._int_pending and self.iff1:
            cycles = self._service_interrupts()
            self.cycles += cycles
            return cycles
        if self.halted:
            self.cycles += 4
            return 4
        return self._step_instruction()

    def _step_instruction(self) -> int:
        """Fetch/decode/execute one instruction, no interrupt or halt
        handling.  Shared by :meth:`step` and the block executor's
        generic fallback closures."""
        cycles = 0
        waits_before = self.memory.wait_cycles
        opcode = self._fetch()
        self.r = (self.r + 1) & 0x7F
        if opcode == 0xCB:
            cycles += self._exec_cb(0, 0)
        elif opcode == 0xED:
            cycles += self._exec_ed()
        elif opcode in (0xDD, 0xFD):
            cycles += self._exec_prefixed(opcode)
        else:
            cycles += self._exec_main(opcode, 0, 0)
        cycles += self.memory.wait_cycles - waits_before
        self.cycles += cycles
        self.instructions += 1
        return cycles

    # -- block-cache fast path --------------------------------------------
    def set_block_listener(self, listener, ends=()) -> None:
        """Install ``listener`` as :attr:`block_listener` (None removes
        it) with blocks ending before every address in ``ends``.  Drops
        the decoded blocks so the new ends take effect."""
        self.block_listener = listener
        self.block_ends = frozenset(ends)
        if self._cache is not None:
            self._cache.invalidate_all()

    def _dispatch(self, remaining: int, stop_pc: int,
                  cycle_target: int) -> int:
        """The one execution loop: run until ``remaining`` instructions
        have run, ``cycles`` reaches ``cycle_target``, PC lands on
        ``stop_pc`` (-1: never), or the CPU halts -- on any HALT when
        there is a stop address (a subroutine that halts has not
        returned), else on one no pending interrupt can wake.
        Returns the unspent budget; running out wins over a stop the
        last budgeted instruction reached.

        The fast core runs each predecoded block whole, and takes a
        single :meth:`step` instead when the block could cross a stop.
        An installed :attr:`block_listener` sees every block and step,
        and a block that raises part-way as the unit it ran.

        The budget is kept as the instruction count ``end`` at which it
        runs out (a step that runs no instruction -- an interrupt
        acknowledge, a halted cycle -- still spends one, so it moves
        ``end`` down).  Two guards, set once per call and moved with
        ``end``, spare the loop both limits while they are far:
        ``instructions < end - MAX_BLOCK_INSTRUCTIONS`` and
        ``cycles < cycle_target - MAX_BLOCK_INSTRUCTIONS * ceiling``.
        Below both, any block fits the budget and ends below the cycle
        target (each instruction but a block's last charges at most
        ``ceiling``), so no limit is tested for it.  Past either guard,
        the tail is exact: the loop stops when the budget is spent or
        the target reached, and runs a block whole only when its size
        fits what is left of the budget and ``cycles + size * ceiling``
        stays below the target, else single-steps.

        A translated register-only self-loop (``block[4]``) iterates
        inside its function while the next iteration would pass the
        same tests, given what is left of the budget and
        ``cycle_target - size * ceiling``; it returns its iteration
        count, each iteration one executed block.  With a listener it
        gets no budget, so the listener sees every iteration.  Block
        counts run in locals, added to the cache's counters on the way
        out, also when a block raises.
        """
        from repro.rabbit.fastcore import (
            MAX_BLOCK_INSTRUCTIONS, BlockCache, cycle_ceiling,
        )
        fast = self.use_fast_core
        memory = self.memory
        ceiling = cycle_ceiling(memory)
        if fast:
            cache = self._cache
            if cache is None:
                cache = self._cache = BlockCache(self)
            cache.check_wait_states()
            blocks = cache.blocks
            threshold = cache.translate_threshold
        listener = self.block_listener
        end = self.instructions + remaining
        fits = end - MAX_BLOCK_INSTRUCTIONS
        cool = cycle_target - MAX_BLOCK_INSTRUCTIONS * ceiling
        executed = translated = 0
        try:
            while True:
                done = self.instructions
                start = self.cycles
                roomy = done < fits and start < cool
                if not roomy and (done >= end or start >= cycle_target):
                    break
                pc = self.pc
                if pc == stop_pc:
                    break
                if self.halted:
                    if stop_pc >= 0 or not (self._int_pending and self.iff1):
                        break
                elif fast and not (self._int_pending and self.iff1):
                    key = pc if pc < 0xE000 else pc | (memory.xpc << 16)
                    block = blocks.get(key)
                    if block is None:
                        block = cache.build_block(pc, key)
                    if not pc < stop_pc <= block[1] and (roomy or (
                            len(block[0]) <= end - done
                            and start + len(block[0]) * ceiling
                            < cycle_target)):
                        executed += 1
                        fn = block[3]
                        if fn is None:
                            block[2] += 1
                            if block[2] >= threshold:
                                fn = cache.translate(key, block)
                        if fn is None:
                            cache.bail = False
                            for op in block[0]:
                                op(self, memory)
                                if cache.bail:
                                    break
                        elif block[4] and listener is None:
                            laps = fn(self, memory, end - done,
                                      cycle_target
                                      - len(block[0]) * ceiling)
                            executed += laps - 1
                            translated += laps
                        else:
                            translated += 1
                            fn(self, memory)
                        if listener is not None:
                            # Moving ``done`` marks the unit reported: a
                            # raise from the listener reports nothing more.
                            ran = self.instructions - done
                            done += ran
                            listener(pc, block, start, ran)
                        continue
                self.step()
                ran = self.instructions - done
                if listener is not None:
                    done += ran
                    listener(pc, None, start, ran)
                if not ran:
                    end -= 1
                    fits -= 1
        except BaseException:
            # A block that raised part-way reports what it ran as a
            # cut-short unit, as the step core reported each of those
            # instructions.  A step that raised ran nothing, and a unit
            # whose listener raised was reported.
            if listener is not None and self.instructions > done:
                listener(pc, block, start, self.instructions - done)
            raise
        finally:
            if fast:
                cache.executed_blocks += executed
                cache.translated_execs += translated
        return end - self.instructions

    def run(self, max_instructions: int = 100_000_000) -> int:
        """Run until a HALT no pending interrupt can wake (or the
        instruction budget); returns cycles run."""
        start = self.cycles
        if self._dispatch(max_instructions, -1, _UNBOUNDED) <= 0:
            raise CpuError(f"exceeded {max_instructions} instructions")
        return self.cycles - start

    def call_subroutine(self, address: int, stop_address: int = 0xFFFF,
                        max_instructions: int = 100_000_000) -> int:
        """Call ``address`` like CALL would, running until it returns.

        Pushes ``stop_address`` as the return address and executes until
        PC lands there.  Returns cycles consumed.
        """
        self._push(stop_address)
        self.pc = address
        start = self.cycles
        if self._dispatch(max_instructions, stop_address, _UNBOUNDED) <= 0:
            raise CpuError(f"subroutine at {address:#06x} did not return")
        if self.pc != stop_address:
            raise CpuError("HALT inside subroutine call")
        return self.cycles - start

    def run_cycles(self, budget: int) -> int:
        """Run approximately ``budget`` cycles; returns cycles executed.

        Stops early only at a HALT no pending interrupt can wake.  The
        budget is checked at instruction boundaries, so the last
        instruction may overshoot it.
        """
        start = self.cycles
        self._dispatch(_UNBOUNDED, -1, start + budget)
        return self.cycles - start

    # -- main table -----------------------------------------------------------
    def _exec_main(self, opcode: int, prefix: int, displacement: int) -> int:
        x = opcode >> 6
        y = (opcode >> 3) & 7
        z = opcode & 7
        index_cost = 8 if prefix else 0  # DD/FD prefix + displacement overhead

        if x == 1:
            if opcode == 0x76:  # HALT
                self.halted = True
                return 4
            # LD r[y], r[z]
            if prefix and (y == 6 or z == 6):
                displacement = self._displacement()
            value = self._get_r(z, prefix if z in (4, 5, 6) else 0, displacement)
            self._set_r(y, value, prefix if y in (4, 5, 6) else 0, displacement)
            cost = 4
            if y == 6 or z == 6:
                cost = 7
            return cost + (11 if prefix and (y == 6 or z == 6) else index_cost)

        if x == 2:
            # ALU A, r[z]
            if prefix and z == 6:
                displacement = self._displacement()
            value = self._get_r(z, prefix if z in (4, 5, 6) else 0, displacement)
            self._alu(y, value)
            cost = 7 if z == 6 else 4
            return cost + (11 if prefix and z == 6 else index_cost)

        if x == 0:
            return self._exec_x0(opcode, y, z, prefix)
        return self._exec_x3(opcode, y, z, prefix)

    def _displacement(self) -> int:
        value = self._fetch()
        return value - 256 if value & 0x80 else value

    def _exec_x0(self, opcode: int, y: int, z: int, prefix: int) -> int:
        if z == 0:
            if y == 0:  # NOP
                return 4
            if y == 1:  # EX AF, AF'
                self.a, self.a2 = self.a2, self.a
                self.f, self.f2 = self.f2, self.f
                return 4
            if y == 2:  # DJNZ d
                offset = self._displacement()
                self.b = (self.b - 1) & 0xFF
                if self.b:
                    self.pc = (self.pc + offset) & 0xFFFF
                    return 13
                return 8
            if y == 3:  # JR d
                offset = self._displacement()
                self.pc = (self.pc + offset) & 0xFFFF
                return 12
            # JR cc, d
            offset = self._displacement()
            if self._condition(y - 4):
                self.pc = (self.pc + offset) & 0xFFFF
                return 12
            return 7
        if z == 1:
            pair = y >> 1
            if y & 1:  # ADD HL, rp
                lhs = self._get_rp(2, prefix)
                result = self._add16(lhs, self._get_rp(pair, prefix))
                self._set_rp(2, result, prefix)
                return 11 + (4 if prefix else 0)
            value = self._fetch16()  # LD rp, nn
            self._set_rp(pair, value, prefix)
            return 10 + (4 if prefix else 0)
        if z == 2:
            if y == 0:
                self._write(self.bc, self.a)
                return 7
            if y == 1:
                self.a = self._read(self.bc)
                return 7
            if y == 2:
                self._write(self.de, self.a)
                return 7
            if y == 3:
                self.a = self._read(self.de)
                return 7
            addr = self._fetch16()
            if y == 4:  # LD (nn), HL/IX/IY
                self._write16(addr, self._get_rp(2, prefix))
                return 16 + (4 if prefix else 0)
            if y == 5:  # LD HL, (nn)
                self._set_rp(2, self._read16(addr), prefix)
                return 16 + (4 if prefix else 0)
            if y == 6:  # LD (nn), A
                self._write(addr, self.a)
                return 13
            self.a = self._read(addr)  # LD A, (nn)
            return 13
        if z == 3:
            pair = y >> 1
            value = self._get_rp(pair, prefix)
            if y & 1:
                self._set_rp(pair, (value - 1) & 0xFFFF, prefix)
            else:
                self._set_rp(pair, (value + 1) & 0xFFFF, prefix)
            return 6 + (4 if prefix else 0)
        if z == 4 or z == 5:  # INC/DEC r[y]
            displacement = self._displacement() if (prefix and y == 6) else 0
            value = self._get_r(y, prefix if y in (4, 5, 6) else 0, displacement)
            value = self._inc8(value) if z == 4 else self._dec8(value)
            self._set_r(y, value, prefix if y in (4, 5, 6) else 0, displacement)
            if y == 6:
                return 23 if prefix else 11
            return 4
        if z == 6:  # LD r[y], n
            displacement = self._displacement() if (prefix and y == 6) else 0
            value = self._fetch()
            self._set_r(y, value, prefix if y in (4, 5, 6) else 0, displacement)
            if y == 6:
                return 19 if prefix else 10
            return 7
        # z == 7: rotates on A and flag ops
        if y < 4:  # RLCA / RRCA / RLA / RRA: C takes the bit shifted out
            a = self.a
            carry = a & 1 if y & 1 else a >> 7
            fill = carry if y < 2 else self.f & FLAG_C
            if y & 1:
                self.a = (a >> 1) | (fill << 7)
            else:
                self.a = ((a << 1) | fill) & 0xFF
            self.f = (self.f & ~(FLAG_C | FLAG_N | FLAG_H) & 0xFF) | carry
            return 4
        if y == 4:  # DAA
            self._daa()
            return 4
        if y == 5:  # CPL
            self.a ^= 0xFF
            self._set_flag(FLAG_N, True)
            self._set_flag(FLAG_H, True)
            return 4
        if y == 6:  # SCF
            self._set_flag(FLAG_C, True)
            self._set_flag(FLAG_N, False)
            self._set_flag(FLAG_H, False)
            return 4
        # CCF
        self._set_flag(FLAG_H, self.flag(FLAG_C))
        self._set_flag(FLAG_C, not self.flag(FLAG_C))
        self._set_flag(FLAG_N, False)
        return 4

    def _daa(self) -> None:
        a = self.a
        adjust = 0
        carry = self.flag(FLAG_C)
        if self.flag(FLAG_H) or (a & 0xF) > 9:
            adjust |= 0x06
        if carry or a > 0x99:
            adjust |= 0x60
            carry = True
        if self.flag(FLAG_N):
            a = (a - adjust) & 0xFF
        else:
            a = (a + adjust) & 0xFF
        self.a = a
        self._sz_flags(a)
        self._set_flag(FLAG_PV, bool(_PARITY[a]))
        self._set_flag(FLAG_C, carry)

    def _exec_x3(self, opcode: int, y: int, z: int, prefix: int) -> int:
        if z == 0:  # RET cc
            if self._condition(y):
                self.pc = self._pop()
                return 11
            return 5
        if z == 1:
            if y & 1:
                if y == 1:  # RET
                    self.pc = self._pop()
                    return 10
                if y == 3:  # EXX
                    self.b, self.b2 = self.b2, self.b
                    self.c, self.c2 = self.c2, self.c
                    self.d, self.d2 = self.d2, self.d
                    self.e, self.e2 = self.e2, self.e
                    self.h, self.h2 = self.h2, self.h
                    self.l, self.l2 = self.l2, self.l
                    return 4
                if y == 5:  # JP (HL)
                    self.pc = self._get_rp(2, prefix)
                    return 4 + (4 if prefix else 0)
                self.sp = self._get_rp(2, prefix)  # LD SP, HL
                return 6 + (4 if prefix else 0)
            # POP rp2[p]
            pair = y >> 1
            value = self._pop()
            if pair == 3:
                self.af = value
            else:
                self._set_rp(pair, value, prefix)
            return 10 + (4 if prefix else 0)
        if z == 2:  # JP cc, nn
            addr = self._fetch16()
            if self._condition(y):
                self.pc = addr
            return 10
        if z == 3:
            if y == 0:  # JP nn
                self.pc = self._fetch16()
                return 10
            if y == 1:
                raise CpuError("CB prefix should be pre-dispatched")
            if y == 2:  # OUT (n), A
                port = self._fetch()
                if self.io is not None:
                    self.io.write_port(port, self.a)
                return 11
            if y == 3:  # IN A, (n)
                port = self._fetch()
                self.a = self.io.read_port(port) & 0xFF if self.io else 0xFF
                return 11
            if y == 4:  # EX (SP), HL
                value = self._read16(self.sp)
                self._write16(self.sp, self._get_rp(2, prefix))
                self._set_rp(2, value, prefix)
                return 19 + (4 if prefix else 0)
            if y == 5:  # EX DE, HL
                self.de, self.hl = self.hl, self.de
                return 4
            if y == 6:  # DI
                self.iff1 = self.iff2 = False
                return 4
            self.iff1 = self.iff2 = True  # EI
            return 4
        if z == 4:  # CALL cc, nn
            addr = self._fetch16()
            if self._condition(y):
                self._push(self.pc)
                self.pc = addr
                return 17
            return 10
        if z == 5:
            if y & 1:
                if y == 1:  # CALL nn
                    addr = self._fetch16()
                    self._push(self.pc)
                    self.pc = addr
                    return 17
                raise CpuError(f"prefix byte {opcode:#04x} fell through")
            pair = y >> 1  # PUSH rp2[p]
            if pair == 3:
                self._push(self.af)
            else:
                self._push(self._get_rp(pair, prefix))
            return 11 + (4 if prefix else 0)
        if z == 6:  # ALU A, n
            self._alu(y, self._fetch())
            return 7
        # z == 7: RST y*8
        self._push(self.pc)
        self.pc = y * 8
        return 11

    # -- CB prefix -----------------------------------------------------------
    def _exec_cb(self, prefix: int, displacement: int) -> int:
        if prefix:
            displacement = self._displacement()
        opcode = self._fetch()
        x = opcode >> 6
        y = (opcode >> 3) & 7
        z = opcode & 7
        target = 6 if prefix else z
        value = self._get_r(target, prefix, displacement)
        if x == 0:  # rotate/shift
            result = self._rot(y, value)
            self._set_r(target, result, prefix, displacement)
            return 23 if prefix else (15 if z == 6 else 8)
        if x == 1:  # BIT y, r
            bit_set = bool(value & (1 << y))
            self._set_flag(FLAG_Z, not bit_set)
            self._set_flag(FLAG_PV, not bit_set)
            self._set_flag(FLAG_S, y == 7 and bit_set)
            self._set_flag(FLAG_N, False)
            self._set_flag(FLAG_H, True)
            return 20 if prefix else (12 if z == 6 else 8)
        if x == 2:  # RES y, r
            result = value & ~(1 << y) & 0xFF
        else:       # SET y, r
            result = value | (1 << y)
        self._set_r(target, result, prefix, displacement)
        return 23 if prefix else (15 if z == 6 else 8)

    # -- DD/FD prefix ----------------------------------------------------------
    def _exec_prefixed(self, prefix: int) -> int:
        opcode = self._fetch()
        if opcode == 0xCB:
            return self._exec_cb(prefix, 0)
        if opcode in (0xDD, 0xFD):
            # Repeated prefix: latest wins; charge 4 cycles like a NOP.
            return 4 + self._exec_prefixed(opcode)
        if opcode == 0xED:
            return self._exec_ed()
        return self._exec_main(opcode, prefix, 0)

    # -- ED prefix ---------------------------------------------------------------
    def _exec_ed(self) -> int:
        opcode = self._fetch()
        x = opcode >> 6
        y = (opcode >> 3) & 7
        z = opcode & 7
        # Rabbit extensions for the bank window register.
        if opcode == 0x67:  # LD XPC, A
            self.memory.xpc = self.a
            return 4
        if opcode == 0x77:  # LD A, XPC
            self.a = self.memory.xpc & 0xFF
            return 4
        if x == 1:
            if z == 0:  # IN r, (C)
                value = self.io.read_port(self.c) & 0xFF if self.io else 0xFF
                if y != 6:
                    self._set_r(y, value)
                self._logic_flags(value, half=False)
                return 12
            if z == 1:  # OUT (C), r
                value = 0 if y == 6 else self._get_r(y)
                if self.io is not None:
                    self.io.write_port(self.c, value)
                return 12
            if z == 2:
                pair = y >> 1
                if y & 1:  # ADC HL, rp
                    self.hl = self._adc16(self.hl, self._get_rp(pair))
                else:      # SBC HL, rp
                    self.hl = self._sbc16(self.hl, self._get_rp(pair))
                return 15
            if z == 3:
                addr = self._fetch16()
                pair = y >> 1
                if y & 1:  # LD rp, (nn)
                    self._set_rp(pair, self._read16(addr))
                else:      # LD (nn), rp
                    self._write16(addr, self._get_rp(pair))
                return 20
            if z == 4:  # NEG
                self.a = self._sub8(0, self.a, 0)
                return 8
            if z == 5:  # RETN / RETI
                self.pc = self._pop()
                self.iff1 = self.iff2
                return 14
            if z == 6:  # IM 0/1/2
                self.im = (0, 0, 1, 2, 0, 0, 1, 2)[y]
                return 8
            # z == 7: LD I,A / LD R,A / LD A,I / LD A,R / RRD / RLD
            if y == 0:
                self.i = self.a
                return 9
            if y == 1:
                self.r = self.a & 0x7F
                return 9
            if y == 2:
                self.a = self.i
                self._sz_flags(self.a)
                self._set_flag(FLAG_PV, self.iff2)
                self._set_flag(FLAG_N, False)
                self._set_flag(FLAG_H, False)
                return 9
            if y == 3:
                self.a = self.r
                self._sz_flags(self.a)
                self._set_flag(FLAG_PV, self.iff2)
                self._set_flag(FLAG_N, False)
                self._set_flag(FLAG_H, False)
                return 9
            if y == 4:  # RRD
                mem = self._read(self.hl)
                new_mem = ((self.a & 0x0F) << 4) | (mem >> 4)
                self.a = (self.a & 0xF0) | (mem & 0x0F)
                self._write(self.hl, new_mem)
                self._logic_flags(self.a, half=False)
                return 18
            if y == 5:  # RLD
                mem = self._read(self.hl)
                new_mem = ((mem << 4) | (self.a & 0x0F)) & 0xFF
                self.a = (self.a & 0xF0) | (mem >> 4)
                self._write(self.hl, new_mem)
                self._logic_flags(self.a, half=False)
                return 18
            return 8  # remaining slots behave as NOP
        if x == 2 and z in (0, 1) and y >= 4:
            return self._exec_block(y, z)
        # Everything else in ED space is a 2-byte NOP on this core.
        return 8

    def _exec_block(self, y: int, z: int) -> int:
        repeat = y >= 6
        increment = 1 if y in (4, 6) else -1
        if z == 0:  # LDI/LDD/LDIR/LDDR
            value = self._read(self.hl)
            self._write(self.de, value)
            self.hl = (self.hl + increment) & 0xFFFF
            self.de = (self.de + increment) & 0xFFFF
            self.bc = (self.bc - 1) & 0xFFFF
            self._set_flag(FLAG_N, False)
            self._set_flag(FLAG_H, False)
            self._set_flag(FLAG_PV, self.bc != 0)
            if repeat and self.bc != 0:
                self.pc = (self.pc - 2) & 0xFFFF
                return 21
            return 16
        # z == 1: CPI/CPD/CPIR/CPDR
        value = self._read(self.hl)
        carry = self.flag(FLAG_C)
        self._sub8(self.a, value, 0, store_carry=False)
        self._set_flag(FLAG_C, carry)
        self.hl = (self.hl + increment) & 0xFFFF
        self.bc = (self.bc - 1) & 0xFFFF
        self._set_flag(FLAG_PV, self.bc != 0)
        if repeat and self.bc != 0 and not self.flag(FLAG_Z):
            self.pc = (self.pc - 2) & 0xFFFF
            return 21
        return 16
