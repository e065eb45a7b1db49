"""Cycle-accurate profiling of programs on the Rabbit core.

The E1 question -- "where does the order of magnitude go?" -- needs more
than total cycle counts.  :class:`CycleProfiler` is the CPU's
:attr:`repro.rabbit.cpu.Cpu.block_listener`: after every unit the
dispatch loop runs (a predecoded block or one step), it attributes the
unit's cycles and instructions to the routine containing its entry PC,
using the assembler's symbol table.  The fast core stays engaged.

Attribution is exact, not statistical.  While the profiler is installed
no block runs past a routine entry (:attr:`Cpu.block_ends`), so every
unit lies inside one routine.  *Call/return tracking* rides on the same
units: CALL, RST, RET and RETI/RETN always end a block, so only a unit's
last instruction can transfer.  When a call transfers, the profiler
pushes the caller on a shadow stack; a taken return pops it.  The
shadow stack yields collapsed flame stacks (``main;aes_encrypt 1234``)
on top of the flat self-cycle table.

What a unit costs is per-block work, not per-execution work.  The facts
a whole block needs -- the routine holding its entry PC and whether
(and on which flag) its last instruction transfers -- are read once,
the first time the block runs whole, and looked up after that by one
int, ``pc | last << 16`` (plus ``xpc << 32`` for a block in the bank
window).  Cycles add into one dict per shadow-stack prefix, swapped on
call and return, so no stack string is built per unit;
:attr:`~CycleProfiler.self_cycles`, :attr:`~CycleProfiler.collapsed`
and :attr:`~CycleProfiler.total_cycles` are summed when read, in the
order routines and stacks were first charged.

Notes and limits:

* Instructions are read with the counter-free
  :meth:`RabbitMemory.peek8`, after the unit ran, so inspection does
  not perturb cycle accounting.  A single step still reads its
  instruction every time, and a block an SMC bail cut short reads
  nothing (its last instruction did not run); whole blocks read theirs
  once.  Code that rewrites a block's final instruction after that
  block first ran whole, keeping its entry and last address (and XPC),
  is outside the model, as is code whose bank-window bytes change under
  an unchanged XPC.
* Interrupt acknowledge pushes PC without a CALL opcode.  It opens a
  frame for the ISR like a CALL does: its cycles go to the interrupted
  routine, it counts one call to the ISR and no instruction, and the
  ISR's RETI closes the frame.
"""

from __future__ import annotations

from bisect import bisect_right

from repro.obs.trace import CAT_CPU, Tracer
from repro.rabbit.board import CLOCK_HZ
from repro.rabbit.cpu import FLAG_C, FLAG_PV, FLAG_S, FLAG_Z

#: Opcode -> ``(is_call, flag mask, wanted)`` for CALL, CALL cc, RST,
#: RET and RET cc; mask 0 is unconditional.  None of them changes F,
#: so a conditional form transferred exactly when its condition holds
#: on F after it ran.  RETI/RETN (ED-prefixed) are matched separately.
_TRANSFERS = {0xCD: (True, 0, False), 0xC9: (False, 0, False)}
for _cc, _mask in enumerate((FLAG_Z, FLAG_Z, FLAG_C, FLAG_C,
                             FLAG_PV, FLAG_PV, FLAG_S, FLAG_S)):
    _TRANSFERS[0xC4 + 8 * _cc] = (True, _mask, bool(_cc & 1))
    _TRANSFERS[0xC0 + 8 * _cc] = (False, _mask, bool(_cc & 1))
    _TRANSFERS[0xC7 + 8 * _cc] = (True, 0, False)


def collapse_sublabels(symbols: dict[str, int]) -> dict[str, int]:
    """Drop local labels: ``__mul16_loop`` folds into ``__mul16``.

    A symbol is local when another symbol's name plus ``_`` prefixes it;
    dropping it makes nearest-preceding-symbol attribution charge inner
    loops to their containing routine.
    """
    names = sorted(symbols)
    kept = {}
    for name in names:
        if any(name.startswith(other + "_") for other in names
               if other != name):
            continue
        kept[name] = symbols[name]
    return kept


def assembly_function_symbols(assembly, prefix: str = "") -> dict[str, int]:
    """Routine entry points from an :class:`Assembly` symbol table."""
    chosen = {
        name: addr for name, addr in assembly.symbols.items()
        if name.startswith(prefix)
    }
    return collapse_sublabels(chosen)


_STRUCTURAL = frozenset(["__code_end", "__image_end"])


def _is_control_flow_label(name: str) -> bool:
    """Codegen emits ``__<stem>_<counter>`` for branches inside a
    function (``__for_17``, ``__endif_2``...) and ``__ret_<fn>`` for
    epilogues; none of those is a routine entry point."""
    if name.startswith("__ret_") or name in _STRUCTURAL:
        return True
    stem, _, counter = name.rpartition("_")
    return bool(stem) and counter.isdigit()


def compiled_function_symbols(compilation) -> dict[str, int]:
    """Routine entry points from a Dynamic C :class:`Compilation`.

    Functions compile to ``_fn_<name>`` labels (displayed without the
    prefix); the arithmetic runtime helpers keep their ``__`` names.
    Compiler-generated control-flow labels are dropped so loop bodies
    attribute to their containing function.
    """
    symbols: dict[str, int] = {}
    for name, addr in compilation.assembly.symbols.items():
        if name.startswith("_fn_"):
            symbols[name[4:]] = addr
        elif name.startswith("__") and not _is_control_flow_label(name):
            symbols[name] = addr
    return collapse_sublabels(symbols)


class CycleProfiler:
    """Attach to a CPU, attribute every unit's cycles to a routine.

    Installing sets the CPU's block listener and block ends to this
    profiler's routine entries; both install and uninstall drop the
    decoded blocks once, so blocks split for profiling do not outlive
    it.  One listener per CPU: a second install is rejected.
    """

    def __init__(self, cpu, symbols: dict[str, int],
                 tracer: Tracer | None = None, root: str = "<root>"):
        self.cpu = cpu
        self.root = root
        self._addresses = sorted(symbols.values())
        by_address: dict[int, str] = {}
        for name, addr in sorted(symbols.items()):
            by_address.setdefault(addr, name)
        self._names = [by_address[a] for a in self._addresses]
        self.tracer = tracer
        self.instruction_counts: dict[str, int] = {}
        self.call_counts: dict[str, int] = {}
        #: ``";".join(callers) + ";"`` for the current shadow stack; the
        #: executing routine is always derived from PC, not the stack.
        self._prefix = ""
        #: Cycles by routine, one dict per shadow-stack prefix; the
        #: current prefix's dict is :attr:`_cycles`.
        self._by_prefix: dict[str, dict[str, int]] = {"": {}}
        self._cycles = self._by_prefix[""]
        #: Every ``(prefix, routine)`` in the order first charged: the
        #: order of :attr:`collapsed` and :attr:`self_cycles`.
        self._seen: list[tuple[str, str]] = []
        #: Shadow frames: the caller's prefix, its cycle dict and the
        #: cycle count at the call, restored and closed by the matching
        #: return.
        self._frames: list[tuple[str, dict, int]] = []
        #: PC -> routine memo (symbols are fixed for the profiler's
        #: lifetime, and PCs repeat heavily in loops).
        self._routine_memo: dict[int, str] = {}
        #: Per-block facts, ``(routine, transfer)``, keyed by
        #: ``pc | last << 16``, plus ``xpc << 32`` when the block runs
        #: in the bank window.
        self._facts: dict[int, tuple] = {}

    # -- attachment -----------------------------------------------------
    def install(self) -> "CycleProfiler":
        """Attach as the CPU's block listener."""
        if self.cpu.block_listener is not None:
            raise RuntimeError("cpu already has a block listener")
        self.cpu.set_block_listener(self._on_unit, self._addresses)
        return self

    def uninstall(self) -> None:
        if self.cpu.block_listener == self._on_unit:
            self.cpu.set_block_listener(None)

    def __enter__(self) -> "CycleProfiler":
        return self.install()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.uninstall()

    # -- the hook -------------------------------------------------------
    def routine_at(self, pc: int) -> str:
        """Nearest symbol at or below ``pc`` (the containing routine)."""
        index = bisect_right(self._addresses, pc) - 1
        return self._names[index] if index >= 0 else self.root

    def _routine(self, pc: int) -> str:
        routine = self._routine_memo.get(pc)
        if routine is None:
            routine = self._routine_memo[pc] = self.routine_at(pc)
        return routine

    def _transfer_at(self, last: int):
        """``(is_call, flag mask, wanted)`` for the instruction at
        ``last`` when it can transfer, else None."""
        memory = self.cpu.memory
        opcode = memory.peek8(last)
        if opcode == 0xED:
            if (memory.peek8((last + 1) & 0xFFFF) or 0) & 0xC7 == 0x45:
                return _TRANSFERS[0xC9]         # RETI / RETN: a return
            return None
        return _TRANSFERS.get(opcode)

    def _on_unit(self, pc: int, block, start: int, ran: int) -> None:
        cpu = self.cpu
        if block is not None and ran == len(block[0]):
            last = block[1]
            key = pc | last << 16
            if last >= 0xE000:
                key |= cpu.memory.xpc << 32
            facts = self._facts.get(key)
            if facts is None:
                facts = self._facts[key] = (self._routine(pc),
                                            self._transfer_at(last))
            routine, transfer = facts
        else:       # one step, or a block cut short (SMC bail, fault)
            routine = self._routine(pc)
            transfer = None
        cycles = cpu.cycles - start
        charged = self._cycles
        if routine in charged:
            charged[routine] += cycles
        else:
            charged[routine] = cycles
            self._seen.append((self._prefix, routine))
        if not ran:             # interrupt acknowledge: a CALL to the ISR
            self._call(routine)
            return
        counts = self.instruction_counts
        counts[routine] = counts.get(routine, 0) + ran
        if block is None:
            transfer = self._transfer_at(pc)
        if transfer is None:
            return
        is_call, mask, wanted = transfer
        if mask and ((cpu.f & mask) != 0) != wanted:
            return
        if is_call:
            self._call(routine)
        else:
            self._return(routine)

    def _call(self, caller: str) -> None:
        cpu = self.cpu
        callee = self._routine(cpu.pc)
        self.call_counts[callee] = self.call_counts.get(callee, 0) + 1
        self._frames.append((self._prefix, self._cycles, cpu.cycles))
        self._prefix += caller + ";"
        self._cycles = self._by_prefix.setdefault(self._prefix, {})

    def _return(self, routine: str) -> None:
        if not self._frames:
            return
        self._prefix, self._cycles, started = self._frames.pop()
        if self.tracer is not None and self.tracer.enabled:
            cycles = self.cpu.cycles
            self.tracer.add_complete(
                f"cpu.{routine}", started / CLOCK_HZ, cycles / CLOCK_HZ,
                cat=CAT_CPU, tid="rabbit-cpu", cycles=cycles - started,
            )

    # -- derived tallies ------------------------------------------------
    @property
    def collapsed(self) -> dict[str, int]:
        """Cycles by collapsed stack (``main;aes_encrypt``)."""
        by_prefix = self._by_prefix
        return {prefix + routine: by_prefix[prefix][routine]
                for prefix, routine in self._seen}

    @property
    def self_cycles(self) -> dict[str, int]:
        """Cycles by routine, whatever its callers."""
        totals: dict[str, int] = {}
        by_prefix = self._by_prefix
        for prefix, routine in self._seen:
            totals[routine] = (totals.get(routine, 0)
                               + by_prefix[prefix][routine])
        return totals

    @property
    def total_cycles(self) -> int:
        """Cycles of every unit the profiler saw."""
        return sum(sum(charged.values())
                   for charged in self._by_prefix.values())

    # -- reports --------------------------------------------------------
    def report_rows(self, top: int = 0) -> list[dict]:
        """Flat per-routine table, heaviest first."""
        self_cycles = self.self_cycles
        total = sum(self_cycles.values())
        rows = []
        for routine, cycles in sorted(self_cycles.items(),
                                      key=lambda kv: -kv[1]):
            rows.append({
                "routine": routine,
                "self cycles": cycles,
                "% of total": round(100.0 * cycles / total, 1)
                if total else 0.0,
                "instructions": self.instruction_counts.get(routine, 0),
                "calls": self.call_counts.get(routine, 0),
            })
        return rows[:top] if top else rows

    def flame_lines(self) -> list[str]:
        """Collapsed-stack lines for flamegraph.pl / speedscope."""
        return [
            f"{stack} {cycles}"
            for stack, cycles in sorted(self.collapsed.items())
        ]
