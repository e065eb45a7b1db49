"""Memory/MMU, assembler, serial ports, watchdog, and board tests."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.rabbit.asm import AsmError, assemble
from repro.rabbit.board import Board
from repro.rabbit.memory import (
    DATA_BASE,
    FLASH_SIZE,
    MemoryError_,
    RabbitMemory,
    ROOT_TOP,
    SRAM_BASE,
    WINDOW_BASE,
)
from repro.rabbit.ports import IoBus, SADR, SerialPort, Watchdog


class TestMmu:
    def test_root_maps_to_flash(self):
        memory = RabbitMemory()
        assert memory.translate(0x0000) == 0x00000
        assert memory.translate(0x1234) == 0x01234
        assert memory.translate(ROOT_TOP - 1) == ROOT_TOP - 1

    def test_data_segment_maps_to_sram(self):
        memory = RabbitMemory()
        assert memory.translate(DATA_BASE) == SRAM_BASE
        assert memory.translate(0xD123) == SRAM_BASE + 0xD123 - DATA_BASE

    def test_window_follows_xpc(self):
        memory = RabbitMemory()
        memory.xpc = 0x85
        assert memory.translate(WINDOW_BASE) == 0x85000
        assert memory.translate(0xF000) == 0x86000
        memory.xpc = 0x90
        assert memory.translate(WINDOW_BASE + 0x10) == 0x90010

    @given(st.integers(min_value=0, max_value=0xFFFF),
           st.integers(min_value=0x80, max_value=0x9F))
    def test_translation_total(self, logical, xpc):
        memory = RabbitMemory()
        memory.xpc = xpc
        physical = memory.translate(logical)
        assert 0 <= physical < (1 << 20)

    def test_flash_write_protected(self):
        memory = RabbitMemory()
        with pytest.raises(MemoryError_):
            memory.write8(0x1000, 0xAA)
        memory.flash_writable = True
        memory.write8(0x1000, 0xAA)
        assert memory.read8(0x1000) == 0xAA

    def test_sram_read_write(self):
        memory = RabbitMemory()
        memory.write8(0xC123, 0x5A)
        assert memory.read8(0xC123) == 0x5A
        assert memory.sram[0xC123 - DATA_BASE] == 0x5A

    def test_wait_state_accounting(self):
        memory = RabbitMemory(flash_wait_states=3, sram_wait_states=1)
        memory.read8(0x0000)    # flash
        assert memory.wait_cycles == 3
        memory.read8(0xC000)    # sram
        assert memory.wait_cycles == 4

    def test_unpopulated_strict(self):
        memory = RabbitMemory()
        memory.xpc = 0xF0  # points past SRAM
        with pytest.raises(MemoryError_):
            memory.read8(WINDOW_BASE)
        relaxed = RabbitMemory(strict=False)
        relaxed.xpc = 0xF0
        assert relaxed.read8(WINDOW_BASE) == 0xFF

    def test_load_flash_bounds(self):
        memory = RabbitMemory()
        with pytest.raises(MemoryError_):
            memory.load_flash(b"x", offset=FLASH_SIZE)

    def test_dump_and_poke(self):
        memory = RabbitMemory()
        memory.poke(0xC100, b"hello")
        assert memory.dump(0xC100, 5) == b"hello"


class TestAssembler:
    def test_labels_and_forward_references(self):
        assembly = assemble("""
            org 0
            jp end
            db 1, 2, 3
        end:
            halt
        """)
        assert assembly.code[0] == 0xC3  # JP nn
        target = assembly.symbol("end")
        assert assembly.code[1] | (assembly.code[2] << 8) == target

    def test_equ_and_expressions(self):
        assembly = assemble("""
            BASE equ 0x1000
            org 0
            ld hl, BASE + 4 * 2
            ld a, (BASE >> 8) & 0xFF
            halt
        """)
        assert assembly.code[1] | (assembly.code[2] << 8) == 0x1008
        assert assembly.code[4] == 0x10

    def test_db_strings_and_dw(self):
        assembly = assemble("""
            org 0
            db "AB", 0x43, 'D'
            dw 0x1234
            ds 3, 0xEE
        """)
        assert assembly.code[:4] == b"ABCD"
        assert assembly.code[4:6] == b"\x34\x12"
        assert assembly.code[6:9] == b"\xee\xee\xee"

    def test_org_pads(self):
        assembly = assemble("""
            org 0
            nop
            org 0x10
            halt
        """)
        assert len(assembly.code) == 0x11
        assert assembly.code[0x10] == 0x76

    def test_org_backwards_rejected(self):
        with pytest.raises(AsmError):
            assemble("org 0\nnop\nnop\norg 1\nnop\n")

    def test_duplicate_label_rejected(self):
        with pytest.raises(AsmError):
            assemble("a:\nnop\na:\nnop\n")

    def test_undefined_symbol_rejected(self):
        with pytest.raises(AsmError):
            assemble("ld hl, nowhere\n")

    def test_unknown_mnemonic(self):
        with pytest.raises(AsmError):
            assemble("frobnicate a, b\n")

    def test_equ_without_name_rejected(self):
        with pytest.raises(AsmError, match="line 2: equ needs a name"):
            assemble("nop\nequ 5\n")

    def test_jr_out_of_range(self):
        source = "org 0\njr far\n" + "nop\n" * 200 + "far:\nnop\n"
        with pytest.raises(AsmError, match=r"^line 2: relative jump out of "
                                           r"range \(\d+\)  \[jr far\]$"):
            assemble(source)

    @pytest.mark.parametrize("source, line_no, text", [
        ("  nop\n  ld a, nosuch\n", 2, "ld a, nosuch"),
        ("  jr far\n", 1, "jr far"),
        ("  nop\n\n  ld a, (ix+nosuch)\n", 3, "ld a, (ix+nosuch)"),
        ("  dw later, nosuch\nlater: nop\n", 1, "dw later, nosuch"),
        ("  ld a, 1 +\n", 1, "ld a, 1 +"),
        ("  ld a, @\n", 1, "ld a, @"),
        ("k equ nosuch\n", 1, "k equ nosuch"),
        ("  frob a\n", 1, "frob a"),
        ("  nop\n  ld a\n", 2, "ld a"),
    ])
    def test_errors_name_their_line(self, source, line_no, text):
        """Every error raised while encoding a line, or while fixing up
        an operand it left unresolved, names that line and its text."""
        with pytest.raises(AsmError) as raised:
            assemble(source)
        assert raised.value.line_no == line_no
        assert str(raised.value).startswith(f"line {line_no}: ")
        assert str(raised.value).endswith(f"  [{text}]")

    @pytest.mark.parametrize("source, line_no, text", [
        ("  ld a, 4/0\n", 1, "ld a, 4/0"),
        ("k equ 9/0\n  ld a, k\n", 1, "k equ 9/0"),
        ("  nop\n  ld a, 7 % 0\n", 2, "ld a, 7 % 0"),
        ("  ld a, 8/n\nn equ 0\n", 1, "ld a, 8/n"),
    ])
    def test_division_by_zero_rejected(self, source, line_no, text):
        with pytest.raises(AsmError, match="division by zero") as raised:
            assemble(source)
        assert raised.value.line_no == line_no
        assert str(raised.value).endswith(f"  [{text}]")

    def test_forward_divisor_assembles(self):
        """A divisor defined later reads as 0 in the first pass; the
        fixup divides by its real value."""
        assert bytes(assemble("  ld a, 8/n\n  ld a, 9%n\nn equ 2\n").code) \
            == bytes([0x3E, 4, 0x3E, 1])

    def test_location_counter_dollar(self):
        assembly = assemble("""
            org 0x10
            here: dw $
        """)
        assert assembly.code[0x10] | (assembly.code[0x11] << 8) == 0x10

    def test_comments_and_strings(self):
        assembly = assemble("""
            org 0
            db "a;b"     ; the semicolon in the string survives
            nop          ; this one is a comment
        """)
        assert assembly.code[:3] == b"a;b"
        assert assembly.code[3] == 0x00

    def test_known_encodings(self):
        # Spot-check opcodes against the Z80 reference.
        cases = {
            "nop": [0x00],
            "ld a, 0x12": [0x3E, 0x12],
            "ld bc, 0x1234": [0x01, 0x34, 0x12],
            "add hl, de": [0x19],
            "jp 0x5678": [0xC3, 0x78, 0x56],
            "call 0x1000": [0xCD, 0x00, 0x10],
            "ret": [0xC9],
            "push af": [0xF5],
            "pop iy": [0xFD, 0xE1],
            "ldir": [0xED, 0xB0],
            "rlc b": [0xCB, 0x00],
            "bit 7, a": [0xCB, 0x7F],
            "out (0x40), a": [0xD3, 0x40],
            "in a, (0x41)": [0xDB, 0x41],
            "ex de, hl": [0xEB],
            "ld xpc, a": [0xED, 0x67],
            "ld a, xpc": [0xED, 0x77],
            "sbc hl, bc": [0xED, 0x42],
            "ld (ix+2), 7": [0xDD, 0x36, 0x02, 0x07],
        }
        for source, expected in cases.items():
            assert list(assemble(source).code) == expected, source

    def test_rrd_refused(self):
        # ED 67 is the Rabbit XPC extension on this core.
        with pytest.raises(AsmError):
            assemble("rrd\n")


class TestSerialAndWatchdog:
    def test_serial_tx_rx(self):
        bus = IoBus()
        port = SerialPort(bus)
        port.inject(b"hi")
        assert bus.read_port(SADR + 1) & 0x80  # rx ready
        assert bus.read_port(SADR) == ord("h")
        assert bus.read_port(SADR) == ord("i")
        assert not bus.read_port(SADR + 1) & 0x80
        bus.write_port(SADR, ord("X"))
        assert port.transmitted() == b"X"

    def test_serial_overrun(self):
        bus = IoBus()
        port = SerialPort(bus)
        port.inject(b"x" * 100)
        assert port.rx_overruns == 100 - 64

    def test_serial_interrupt_callback(self):
        bus = IoBus()
        port = SerialPort(bus)
        fired = []
        port.interrupt_callback = lambda: fired.append(1)
        port.inject(b"a")          # interrupts not enabled yet
        bus.write_port(SADR + 2, 0x01)
        port.inject(b"b")
        assert fired == [1]

    def test_unclaimed_ports(self):
        bus = IoBus()
        assert bus.read_port(0x99) == 0xFF
        bus.write_port(0x99, 1)
        assert bus.unclaimed_reads == 1
        assert bus.unclaimed_writes == 1

    def test_watchdog_kick_and_expiry(self):
        bus = IoBus()
        watchdog = Watchdog(bus, budget_cycles=1000)
        assert not watchdog.check(500)
        bus.write_port(0x08, 0x5A)
        assert watchdog.kicks == 1
        assert not watchdog.check(1400)
        assert watchdog.check(5000)
        assert watchdog.expired


class TestBoard:
    def test_program_and_run(self):
        board = Board()
        board.program(assemble("org 0\nld a, 7\nld (0xC000), a\nhalt\n").code)
        board.run()
        assert board.memory.read8(0xC000) == 7
        assert board.cpu.halted

    def test_call_interface(self):
        assembly = assemble("""
            org 0
            halt
        fn:
            ld hl, 0xBEEF
            ret
        """)
        board = Board()
        board.program(assembly.code)
        cycles = board.call(assembly.symbol("fn"))
        assert board.cpu.hl == 0xBEEF
        assert cycles > 0

    def test_vector_validation(self):
        board = Board()
        with pytest.raises(ValueError):
            board.set_vect_extern2000(5, 0x100)

    def test_run_budget(self):
        from repro.rabbit.cpu import CpuError

        board = Board()
        board.program(assemble("org 0\nspin: jp spin\n").code)
        with pytest.raises(CpuError):
            board.run(max_instructions=100)
