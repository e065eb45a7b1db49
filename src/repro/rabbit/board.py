"""The RMC2000 TCP/IP Development Kit board model.

"the RMC2000 TCP/IP Development Kit includes 512k of flash RAM, 128k
SRAM, and runs a 30 MHz, 8-bit Z80-based microcontroller (a Rabbit
2000) ... a 10-pin programming port to interface with the development
environment" (paper, Section 4).

The board wires a :class:`~repro.rabbit.cpu.Cpu` to
:class:`~repro.rabbit.memory.RabbitMemory`, serial ports A/B, the
watchdog, and an external-interrupt vector table
(:meth:`set_vect_extern2000`, the paper's ``SetVectExtern2000``).

Scope note (DESIGN.md): the board executes the cycle-level experiments
(E1-E3 crypto kernels, E8 interrupts); the network *service* experiments
drive the Dynamic C TCP facade on the discrete-event simulator, because
running a full TCP/IP stack as emulated Z80 firmware is outside even the
paper's scope (their stack shipped precompiled from Rabbit
Semiconductor).
"""

from __future__ import annotations

from repro.rabbit.cpu import Cpu
from repro.rabbit.memory import RabbitMemory
from repro.rabbit.ports import CycleCounterPort, IoBus, SerialPort, Watchdog

#: The Rabbit 2000 on this kit runs at about 30 MHz.
CLOCK_HZ = 30_000_000

#: Where the firmware entry point is burned.
RESET_VECTOR = 0x0000

#: Number of external interrupt lines with installable vectors.
EXTERNAL_INTERRUPTS = 2


class Board:
    """CPU + memory + peripherals, programmable through one call."""

    def __init__(self, flash_wait_states: int = 1):
        self.memory = RabbitMemory(flash_wait_states=flash_wait_states)
        self.io = IoBus()
        self.cpu = Cpu(self.memory, self.io)
        self.serial_a = SerialPort(self.io, name="A")
        self.serial_b = SerialPort(self.io, base_port=0xD0, name="B")
        self.watchdog = Watchdog(self.io)
        self.cycle_port = CycleCounterPort(self.io, self.cpu)
        self._external_vectors: dict[int, int] = {}
        self.serial_a.interrupt_callback = lambda: self._external_interrupt(1)

    # -- programming port ----------------------------------------------------
    def program(self, image: bytes, entry: int = RESET_VECTOR) -> None:
        """Burn an image and point the CPU at ``entry`` (reset state)."""
        self.memory.load_flash(image, offset=0)
        self.cpu.reset()
        self.cpu.pc = entry

    # -- interrupts ------------------------------------------------------------
    def set_vect_extern2000(self, line: int, handler_address: int) -> None:
        """Install an ISR for external interrupt ``line`` (paper 5.1)."""
        if not 0 <= line < EXTERNAL_INTERRUPTS:
            raise ValueError(f"no external interrupt line {line}")
        self._external_vectors[line] = handler_address & 0xFFFF

    def _external_interrupt(self, line: int) -> None:
        handler = self._external_vectors.get(line)
        if handler is not None:
            self.cpu.request_interrupt(handler)

    # -- execution -------------------------------------------------------------
    def run(self, max_instructions: int = 100_000_000) -> int:
        """Run until HALT; returns cycles executed."""
        return self.cpu.run(max_instructions=max_instructions)

    def run_cycles(self, budget: int) -> int:
        """Run about ``budget`` cycles (see :meth:`Cpu.run_cycles`)."""
        return self.cpu.run_cycles(budget)

    def call(self, address: int) -> int:
        """Call a routine in the image; returns cycles consumed."""
        return self.cpu.call_subroutine(address)

    @property
    def elapsed_seconds(self) -> float:
        return self.cpu.cycles / CLOCK_HZ

    def __repr__(self) -> str:
        return (
            f"Board(pc={self.cpu.pc:#06x}, cycles={self.cpu.cycles}, "
            f"halted={self.cpu.halted})"
        )
