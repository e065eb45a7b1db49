"""Figure 1, executable: Dynamic C storage-class semantics.

    python examples/storage_classes.py

Demonstrates each specifier from the paper's Figure 1 with the runtime's
executable models: ``shared`` (atomic multibyte updates), ``protected``
(battery-backed restore after reset), static-by-default locals (and how
they break recursion), plus ``root``/``xmem`` placement measured on the
cycle-counting board.
"""

from repro.dync.compiler import CompiledProgram, CompilerOptions, compile_source
from repro.dync.runtime import (
    BatteryBackedRam,
    ProtectedVariable,
    SharedVariable,
    StaticLocals,
    UnsharedMultibyte,
)
from repro.rabbit.board import Board


def demo_shared() -> None:
    print("== shared: atomic multibyte updates ==")
    torn = UnsharedMultibyte(width=4)
    torn.begin_write(0x11223344)
    torn.write_step()  # interrupt fires mid-store...
    print(f"  unshared long mid-write reads 0x{torn.read():08X} "
          f"(wanted 0x11223344) -- a torn read")
    safe = SharedVariable(0, name="a")
    safe.set(0x11223344)
    print(f"  shared long reads   0x{safe.get():08X} "
          f"(update paid {safe.overhead_cycles} cycles of IPSET/IPRES)")


def demo_protected() -> None:
    print("\n== protected: survives a reset via battery-backed RAM ==")
    ram = BatteryBackedRam()
    state1 = ProtectedVariable(100, ram, name="state1")
    state1.set(1234)
    print(f"  state1 = {state1.get()}")
    state1.lose_to_reset()
    print(f"  ...reset... state1 = {state1.get()}")
    state1.restore()
    print(f"  _sysIsSoftReset() restore -> state1 = {state1.get()}")


def demo_static_locals() -> None:
    print("\n== locals are static by default ==")
    statics = StaticLocals()

    def counter() -> int:
        frame = statics.frame("counter")
        frame["n"] = frame.get("n", 0) + 1
        return frame["n"]

    print(f"  counter() three times: {counter()}, {counter()}, {counter()} "
          "(state persists without 'static')")

    def fact(n: int) -> int:
        frame = statics.frame("fact")
        frame["n"] = n
        if frame["n"] <= 1:
            return 1
        below = fact(frame["n"] - 1)
        return frame["n"] * below

    print(f"  recursive fact(5) = {fact(5)} (should be 120 -- "
          "recursion breaks, as on the real compiler)")


def demo_root_vs_xmem() -> None:
    print("\n== root vs xmem placement, measured on the board ==")
    source = """
        const char table[64] = {0};
        int r;
        void main() {
            int i;
            r = 0;
            for (i = 0; i < 64; i = i + 1) r = r + table[i];
        }
    """
    for placement in ("root_ram", "flash", "xmem"):
        build = compile_source(
            source, CompilerOptions(data_placement=placement)
        )
        program = CompiledProgram(Board(), build)
        cycles = program.call("main")
        print(f"  table in {placement:<8}: {cycles:6d} cycles "
              f"for 64 reads")


if __name__ == "__main__":
    demo_shared()
    demo_protected()
    demo_static_locals()
    demo_root_vs_xmem()
