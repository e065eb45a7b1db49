"""Rabbit 2000 memory system: bank-switched 1 MB behind a 64 KB window.

Paper, Section 4.3: "The Rabbit 2000 microcontroller has a 64K address
space but uses bank-switching to access 1M of total memory.  The lower
50K is fixed, root memory, the middle 6K is I/O, and the top 8K is
bank-switched access to the remaining memory."

Logical map implemented here (addresses in the CPU's 16-bit space):

    0x0000 - 0xBFFF  root segment      -> physical 0x00000 + addr (flash)
    0xC000 - 0xDFFF  data/stack segment-> physical 0x80000 + (addr - 0xC000)
                                          (SRAM; stack lives at the top)
    0xE000 - 0xFFFF  XPC window (8 KB) -> physical (XPC << 12) + (addr - 0xE000)

Physical map of the RMC2000 TCP/IP Development Kit:

    0x00000 - 0x7FFFF  512 KB flash
    0x80000 - 0x9FFFF  128 KB SRAM

Flash reads can carry wait states (``flash_wait_states``), which is what
makes "move the data to root RAM" vs. "leave tables in flash/xmem" a
measurable optimization (experiment E2).  Flash writes require the
sector-unlock protocol (modelled coarsely as a writable flag) -- firmware
is loaded through :meth:`load_flash`, not stores.
"""

from __future__ import annotations

ROOT_TOP = 0xC000
DATA_BASE = 0xC000
DATA_TOP = 0xE000
WINDOW_BASE = 0xE000

FLASH_BASE = 0x00000
FLASH_SIZE = 512 * 1024
SRAM_BASE = 0x80000
SRAM_SIZE = 128 * 1024

PHYS_SIZE = 1 << 20


class MemoryError_(RuntimeError):
    """Raised on writes to flash or accesses outside populated memory."""


class RabbitMemory:
    """The MMU plus the flash and SRAM arrays."""

    def __init__(self, flash_wait_states: int = 1, sram_wait_states: int = 0,
                 strict: bool = True):
        self.flash = bytearray(FLASH_SIZE)
        self.sram = bytearray(SRAM_SIZE)
        self.xpc = 0x80  # window points at the start of SRAM's physical bank
        self.flash_wait_states = flash_wait_states
        self.sram_wait_states = sram_wait_states
        self.flash_writable = False
        self.strict = strict
        self.wait_cycles = 0
        self.reads = 0
        self.writes = 0
        #: Pages (256-byte physical granules) holding predecoded code.
        #: Marked by the CPU's block cache; a write to a marked page
        #: notifies the cache so stale blocks are dropped.
        self._code_pages = bytearray(PHYS_SIZE >> 8)
        self.block_cache = None

    # -- address translation --------------------------------------------
    def translate(self, logical: int) -> int:
        """16-bit logical address -> 20-bit physical address."""
        logical &= 0xFFFF
        if logical < ROOT_TOP:
            return logical
        if logical < DATA_TOP:
            return SRAM_BASE + (logical - DATA_BASE)
        return ((self.xpc << 12) + (logical - WINDOW_BASE)) % PHYS_SIZE

    # -- physical access ----------------------------------------------------
    def read_physical(self, physical: int) -> int:
        if FLASH_BASE <= physical < FLASH_BASE + FLASH_SIZE:
            self.wait_cycles += self.flash_wait_states
            return self.flash[physical - FLASH_BASE]
        if SRAM_BASE <= physical < SRAM_BASE + SRAM_SIZE:
            self.wait_cycles += self.sram_wait_states
            return self.sram[physical - SRAM_BASE]
        if self.strict:
            raise MemoryError_(f"read from unpopulated {physical:#07x}")
        return 0xFF

    def write_physical(self, physical: int, value: int) -> None:
        if FLASH_BASE <= physical < FLASH_BASE + FLASH_SIZE:
            if not self.flash_writable:
                raise MemoryError_(
                    f"write to flash at {physical:#07x} without unlock"
                )
            self.wait_cycles += self.flash_wait_states
            self.flash[physical - FLASH_BASE] = value & 0xFF
            if self._code_pages[physical >> 8]:
                self.block_cache.code_written(physical)
            return
        if SRAM_BASE <= physical < SRAM_BASE + SRAM_SIZE:
            self.wait_cycles += self.sram_wait_states
            self.sram[physical - SRAM_BASE] = value & 0xFF
            if self._code_pages[physical >> 8]:
                self.block_cache.code_written(physical)
            return
        if self.strict:
            raise MemoryError_(f"write to unpopulated {physical:#07x}")

    # -- CPU-facing logical access --------------------------------------------
    # read8/write8 are the emulator's innermost loop, so the common
    # segments (root -> flash, data -> SRAM) are inlined rather than
    # funneled through translate()/read_physical(); counters and error
    # behavior are identical.
    def read8(self, logical: int) -> int:
        self.reads += 1
        logical &= 0xFFFF
        if logical < ROOT_TOP:
            self.wait_cycles += self.flash_wait_states
            return self.flash[logical]
        if logical < DATA_TOP:
            self.wait_cycles += self.sram_wait_states
            return self.sram[logical - DATA_BASE]
        physical = ((self.xpc << 12) + (logical - WINDOW_BASE)) % PHYS_SIZE
        if physical < FLASH_SIZE:
            self.wait_cycles += self.flash_wait_states
            return self.flash[physical]
        if SRAM_BASE <= physical < SRAM_BASE + SRAM_SIZE:
            self.wait_cycles += self.sram_wait_states
            return self.sram[physical - SRAM_BASE]
        if self.strict:
            raise MemoryError_(f"read from unpopulated {physical:#07x}")
        return 0xFF

    def write8(self, logical: int, value: int) -> None:
        self.writes += 1
        logical &= 0xFFFF
        if ROOT_TOP <= logical < DATA_TOP:
            self.wait_cycles += self.sram_wait_states
            offset = logical - DATA_BASE
            self.sram[offset] = value & 0xFF
            physical = SRAM_BASE + offset
            if self._code_pages[physical >> 8]:
                self.block_cache.code_written(physical)
            return
        self.write_physical(self.translate(logical), value)

    def peek8(self, logical: int) -> int | None:
        """Counter-free read for decoders and profilers.

        Does not touch ``reads``/``wait_cycles`` and never raises:
        unpopulated addresses return ``None`` (callers fall back to the
        counting path, which reproduces the strict-mode error).
        """
        physical = self.translate(logical)
        if physical < FLASH_SIZE:
            return self.flash[physical]
        if SRAM_BASE <= physical < SRAM_BASE + SRAM_SIZE:
            return self.sram[physical - SRAM_BASE]
        return None

    # -- loading / inspection ---------------------------------------------------
    def load_flash(self, data: bytes, offset: int = 0) -> None:
        """Burn an image into flash (the programming-port path)."""
        if offset + len(data) > FLASH_SIZE:
            raise MemoryError_(
                f"image of {len(data)} bytes at {offset:#x} exceeds flash"
            )
        self.flash[offset: offset + len(data)] = data
        if self.block_cache is not None:
            self.block_cache.invalidate_all()

    def load_sram(self, data: bytes, physical_offset: int = 0) -> None:
        if physical_offset + len(data) > SRAM_SIZE:
            raise MemoryError_("image exceeds SRAM")
        self.sram[physical_offset: physical_offset + len(data)] = data
        if self.block_cache is not None:
            self.block_cache.invalidate_all()

    def dump(self, logical: int, length: int) -> bytes:
        return bytes(
            self.read_physical(self.translate(logical + i)) for i in range(length)
        )

    def poke(self, logical: int, data: bytes) -> None:
        for i, byte in enumerate(data):
            self.write_physical(self.translate(logical + i), byte)

    def __repr__(self) -> str:
        return (
            f"RabbitMemory(xpc={self.xpc:#04x}, "
            f"flash_ws={self.flash_wait_states}, reads={self.reads})"
        )
