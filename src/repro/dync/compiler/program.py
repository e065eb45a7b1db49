"""Run compiled Dynamic C subset images on a Board."""

from __future__ import annotations

from repro.dync.compiler.codegen import Compilation, Symbol
from repro.rabbit.board import Board


class CompiledProgram:
    """A compiled image burned onto a board, with symbolic access.

    The program loads a finished :class:`Compilation` and never
    compiles, so one build can run on any number of fresh boards.

    >>> from repro.dync.compiler import compile_source
    >>> build = compile_source("int x; void main() { x = 42; }")
    >>> prog = CompiledProgram(Board(), build)
    >>> _ = prog.call("main")
    >>> prog.peek_int("x")
    42
    """

    def __init__(self, board: Board, compilation: Compilation):
        self.board = board
        self.compilation = compilation
        board.program(self.compilation.assembly.code)
        # Run __init (table copies, initializers).
        board.call(self.compilation.assembly.symbol("__init"))

    # -- execution -----------------------------------------------------
    def call(self, function: str, *args: int) -> int:
        """Call a compiled function; returns cycles consumed.

        Arguments are poked into the function's static parameter slots
        (the compiled calling convention).
        """
        params = [
            symbol for name, symbol in self.compilation.globals_map.items()
            if name.startswith(f"{function}.") and symbol.is_param
        ]
        if len(args) != len(params):
            raise ValueError(
                f"{function} takes {len(params)} args, got {len(args)}"
            )
        for value, symbol in zip(args, params):
            self._poke_scalar(symbol, value)
        return self.board.call(
            self.compilation.assembly.symbol(f"_fn_{function}")
        )

    @property
    def return_value(self) -> int:
        """HL after the last call (the compiled return register)."""
        return self.board.cpu.hl

    # -- data access -----------------------------------------------------
    def _symbol(self, name: str) -> Symbol:
        try:
            return self.compilation.globals_map[name]
        except KeyError as exc:
            raise KeyError(f"no such global {name!r}") from exc

    def _poke_scalar(self, symbol: Symbol, value: int) -> None:
        memory = self.board.memory
        if symbol.ctype.size == 1 and not symbol.ctype.is_pointer:
            memory.write8(symbol.address, value & 0xFF)
        else:
            memory.write8(symbol.address, value & 0xFF)
            memory.write8(symbol.address + 1, (value >> 8) & 0xFF)

    def poke_bytes(self, name: str, data: bytes) -> None:
        symbol = self._symbol(name)
        if symbol.placement == "xmem":
            for i, byte in enumerate(data):
                self.board.memory.write_physical(symbol.xmem_phys + i, byte)
            return
        if symbol.placement == "flash":
            raise ValueError(f"{name!r} is const data in flash")
        self.board.memory.poke(symbol.address, data)

    def peek_bytes(self, name: str, length: int) -> bytes:
        symbol = self._symbol(name)
        if symbol.placement == "xmem":
            return bytes(
                self.board.memory.read_physical(symbol.xmem_phys + i)
                for i in range(length)
            )
        return self.board.memory.dump(symbol.address, length)

    def poke_int(self, name: str, value: int) -> None:
        self._poke_scalar(self._symbol(name), value)

    def peek_int(self, name: str) -> int:
        symbol = self._symbol(name)
        memory = self.board.memory
        if symbol.ctype.size == 1 and not symbol.ctype.is_pointer:
            return memory.read8(symbol.address)
        return memory.read8(symbol.address) | (
            memory.read8(symbol.address + 1) << 8
        )

    @property
    def code_size(self) -> int:
        """Bytes of code + runtime (const data excluded), for E3."""
        return self.compilation.code_size
