"""Instruction-stream fuzzing: the fast core against the step core.

Hypothesis generates short machine-code streams, weighted toward what
the Dynamic C compiler emits (``push hl`` / ``ld hl,(nn)`` / ``pop de``
/ ``add hl,de`` / ``sbc hl,de`` runs, ``ld rp,(nn)``, CB shifts, short
backward ``djnz``/``jr`` loops) and toward what a block cache can get
wrong: DD/FD/ED/CB prefixes, the LDIR/CPIR families, ``LD XPC,A``
remaps, stack and ``(nn)`` accesses at segment edges (the root/data
boundary at 0xC000, the top of the data segment at 0xDFFF, the bank
window, flash, where a write raises), stores, pushes, calls and ``rst``
onto the executing block's own code page, ``jp (hl)`` to anywhere, a
pending interrupt, interrupts raised between the slices of a
``run_cycles`` run, and stops (``stop_pc``, cycle targets, instruction
budgets) that land inside blocks.

Streams also hold register-only self-loops, which the translated tier
iterates inside one function: ``djnz`` back to the loop's own head with
B drawn from {0, 1, 2, 255}, and ``dec c``/``dec e`` closing a
``jr nz``/``jp nz`` back to the head, around up to three register-only
instructions.  Instruction budgets up to 4,000, cycle targets on either
side of 128 instructions' worth of ``cycle_ceiling`` and stop addresses
at a loop's head or inside it cut them mid-loop, and run on either side
of the dispatch loop's two guards.  Half the streams start with a loop,
so the run reaches it, and a ``call_subroutine`` stream makes up to
three calls, each with its own stop: a later call's stop can sit inside
a loop an earlier call translated.

Every stream runs on the step core and on the fast core with the
translated tier entered after 1 and after 64 closure-list executions,
and the complete ``_machine_state`` is compared along with each run's
result or exception (type and message) -- after a fault too, where PC
must sit past the faulting instruction and R must be bumped, as the step
core leaves them.  Flash and SRAM around the stream hold a fixed random
pattern, so a read from the wrong address shows.  The same streams run
once more under a ``CycleProfiler`` on both cores: the profiles must
match, after a fault too (a block that raises part-way reports the
instructions it ran as a cut-short unit), and no block the listener
sees may have run more instructions than it holds (a self-loop must not
iterate in place under a listener).
"""

from __future__ import annotations

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.obs.profile import CycleProfiler
from repro.rabbit.asm import assemble
from repro.rabbit.board import Board
from repro.rabbit.cpu import CpuError
from repro.rabbit.fastcore import BlockCache
from repro.rabbit.memory import FLASH_SIZE, SRAM_SIZE, MemoryError_
from tests.rabbit.test_fastpath import _machine_state

#: Where a stream is loaded: the data segment (SRAM), the bank window at
#: XPC 0x80 (the same SRAM bytes, seen through the window), root flash.
CODE_BASES = (0xC200, 0xE200, 0x0100)

#: Stack and ``(nn)`` addresses at the segment edges.
EDGE_ADDRESSES = (0x0000, 0x0002, 0x0100, 0xBFFE, 0xBFFF, 0xC000, 0xC001,
                  0xC002, 0xDFFD, 0xDFFE, 0xDFFF, 0xE000, 0xE001, 0xFFFE,
                  0xFFFF)

#: Stack pointers whose two-byte push or pop straddles a segment edge.
STACK_EDGES = (0xDFFF, 0xE001, 0xE000, 0xC001, 0xC000, 0xBFFF, 0x0001)

#: XPC values: SRAM base, the last SRAM bank (its window runs off the
#: end of SRAM), flash, and unpopulated space.
XPC_VALUES = (0x80, 0x9E, 0x9F, 0x00, 0xA0, 0xFF)

#: What flash and SRAM hold around the stream.
FLASH_FILL = random.Random(1).randbytes(FLASH_SIZE)
SRAM_FILL = random.Random(2).randbytes(SRAM_SIZE)

_BYTE = st.integers(0, 0xFF)
_REG = st.sampled_from((0, 1, 2, 3, 4, 5, 7))   # B C D E H L A
_PAIR = st.integers(0, 3)

#: One register-only template: what a self-loop's body is made of.
_LOOP_BODY = st.one_of(
    st.tuples(st.integers(0, 7), _REG).map(
        lambda t: [0xCB, (t[0] << 3) | t[1]]),                # CB rot
    st.tuples(_REG, _REG).map(lambda t: [0x40 | t[0] << 3 | t[1]]),
    st.tuples(st.integers(4, 6), _REG).map(
        lambda t: [0x80 | t[0] << 3 | t[1]]),                 # AND/XOR/OR
    _REG.map(lambda r: [0x04 | r << 3]),                      # INC r
    _REG.map(lambda r: [0x05 | r << 3]),                      # DEC r
    _PAIR.map(lambda p: [0x03 | p << 4]),                     # INC rp
    _PAIR.map(lambda p: [0x09 | p << 4]),                     # ADD HL,rp
    _PAIR.map(lambda p: [0xED, 0x42 | p << 4]),               # SBC HL,rp
    st.just([0xEB]),                                          # EX DE,HL
)

#: A self-loop: its tail, the counter's first value, the counter (C or
#: E) a ``jr nz``/``jp nz`` tail decrements, and its body.
_LOOP = st.tuples(st.just("loop"), st.sampled_from(["djnz", "jr", "jp"]),
                  st.sampled_from([0, 1, 2, 255]), st.sampled_from([1, 3]),
                  st.lists(_LOOP_BODY, max_size=3))


def _loop_code(item, address: int) -> tuple[list[int], list[int]]:
    """The bytes of the self-loop ``item`` at ``address`` -- the counter
    set, then the loop from its head -- and the addresses of the
    instructions from its head to its tail."""
    _, tail, count, counter, body = item
    code = [0x06 | (0 if tail == "djnz" else counter) << 3, count]
    inner = []
    for instruction in body + ([] if tail == "djnz" else
                               [[0x05 | counter << 3]]):
        inner.append(address + len(code))
        code += instruction
    head = address + 2
    inner.append(address + len(code))
    if tail == "jp":
        code += [0xC2, head & 0xFF, head >> 8]
    else:
        code += [0x10 if tail == "djnz" else 0x20,
                 (head - (address + len(code) + 2)) & 0xFF]
    return code, [head] + inner


def _fixed(*parts):
    """A strategy for one instruction given as byte strategies/ints."""
    return st.tuples(*(p if isinstance(p, st.SearchStrategy) else st.just(p)
                       for p in parts)).map(lambda b: ("bytes", list(b)))


def _instructions(words):
    """One instruction: ``("bytes", [...])`` or a branch whose target is
    an instruction index, resolved once the stream is laid out."""
    lo_hi = words.map(lambda w: (w & 0xFF, w >> 8))

    def with_word(prefix):
        return st.tuples(st.just(prefix), lo_hi).map(
            lambda t: ("bytes", list(t[0]) + list(t[1])))

    templated = st.one_of(
        # CB rotates/shifts on registers.
        st.tuples(st.integers(0, 7), _REG).map(
            lambda t: ("bytes", [0xCB, (t[0] << 3) | t[1]])),
        _PAIR.flatmap(lambda p: with_word([0x01 | p << 4])),  # LD rp,nn
        _PAIR.map(lambda p: ("bytes", [0x03 | p << 4])),      # INC rp
        _PAIR.map(lambda p: ("bytes", [0x0B | p << 4])),      # DEC rp
        _PAIR.map(lambda p: ("bytes", [0x09 | p << 4])),      # ADD HL,rp
        st.just(("bytes", [0xEB])),                           # EX DE,HL
        _PAIR.map(lambda p: ("bytes", [0xC5 | p << 4])),      # PUSH
        _PAIR.map(lambda p: ("bytes", [0xC1 | p << 4])),      # POP
        with_word([0x2A]),                                    # LD HL,(nn)
        with_word([0x22]),                                    # LD (nn),HL
        _PAIR.map(lambda p: ("bytes", [0xED, 0x4A | p << 4])),  # ADC HL
        _PAIR.map(lambda p: ("bytes", [0xED, 0x42 | p << 4])),  # SBC HL
        _PAIR.flatmap(                                        # LD rp,(nn)
            lambda p: with_word([0xED, 0x4B | p << 4])),
    )
    register = st.one_of(
        st.tuples(_REG, _REG).map(
            lambda t: ("bytes", [0x40 | t[0] << 3 | t[1]])),  # LD r,r'
        _fixed(st.integers(0, 7).map(lambda r: 0x06 | r << 3), _BYTE),
        st.integers(0, 63).map(lambda v: ("bytes", [0x80 | v])),  # ALU r
        _fixed(st.integers(0, 7).map(lambda y: 0xC6 | y << 3), _BYTE),
        st.integers(0, 7).map(lambda r: ("bytes", [0x04 | r << 3])),
        st.integers(0, 7).map(lambda r: ("bytes", [0x05 | r << 3])),
        st.integers(0, 7).map(lambda y: ("bytes", [0x07 | y << 3])),
        st.sampled_from([0x00, 0x08, 0xD9, 0xF9, 0xE3, 0x02, 0x12, 0x0A,
                         0x1A]).map(lambda b: ("bytes", [b])),
        with_word([0x32]),                                    # LD (nn),A
        with_word([0x3A]),                                    # LD A,(nn)
    )
    prefixed = st.one_of(
        _fixed(0xCB, _BYTE),                                  # any CB op
        _PAIR.flatmap(lambda p: with_word([0xED, 0x43 | p << 4])),
        st.sampled_from([0xA0, 0xA8, 0xB0, 0xB8, 0xA1, 0xA9, 0xB1, 0xB9,
                         0x44, 0x47, 0x4F, 0x57, 0x5F, 0x67, 0x77, 0x56,
                         0x00]).map(lambda b: ("bytes", [0xED, b])),
        st.sampled_from(XPC_VALUES).map(                      # LD XPC
            lambda x: ("bytes", [0x3E, x, 0xED, 0x67])),
        st.tuples(st.sampled_from([0xDD, 0xFD]), st.one_of(
            with_word([0x21]).map(lambda t: t[1]),            # LD IX,nn
            _PAIR.map(lambda p: [0x09 | p << 4]),             # ADD IX,rp
            st.sampled_from([[0x23], [0x2B], [0xE5], [0xE1], [0xE9]]),
            st.tuples(st.integers(0, 7), _BYTE).map(
                lambda t: [0x46 | t[0] << 3, t[1]]),          # LD r,(IX+d)
            st.tuples(_REG, _BYTE).map(
                lambda t: [0x70 | t[0], t[1]]),               # LD (IX+d),r
            st.tuples(_BYTE, _BYTE).map(
                lambda t: [0xCB, t[0], t[1]]),                # DD CB d op
        )).map(lambda t: ("bytes", [t[0]] + t[1])),
    )
    control = st.one_of(
        st.tuples(st.just("djnz"), st.integers(0, 4)),       # backward
        st.tuples(st.sampled_from(["jr", "jr_nz", "jr_z", "jr_nc", "jr_c"]),
                  st.integers(-4, 3)),
        st.tuples(st.sampled_from(["jp", "jp_cc", "call", "call_cc"]),
                  st.integers(-4, 4), st.integers(0, 7)),
        st.sampled_from([0xC9, 0xC0, 0xC8, 0xD0, 0xD8, 0xF3, 0xFB,
                         0xE9]).map(
            lambda b: ("bytes", [b])),              # RET, DI, EI, JP (HL)
        st.integers(0, 7).map(lambda y: ("bytes", [0xC7 | y << 3])),  # RST
    )
    # LD (nn),HL onto a later instruction of the stream (self-modifying).
    patch = st.tuples(st.just("patch"), st.integers(1, 3), st.integers(-1, 2))
    return st.one_of(templated, templated, templated, register, prefixed,
                     control, patch, _LOOP)


def _layout(base: int, items: list) -> tuple[bytes, list[int]]:
    """Lay the stream out at ``base``, ending in HALT, and resolve the
    branches (targets are instruction indices relative to the branch)."""
    sizes = []
    for item in items:
        kind = item[0]
        if kind == "bytes":
            sizes.append(len(item[1]))
        elif kind == "loop":
            sizes.append(len(_loop_code(item, 0)[0]))
        elif kind in ("djnz", "jr", "jr_nz", "jr_z", "jr_nc", "jr_c"):
            sizes.append(2)
        else:
            sizes.append(3)
    addresses = [base]
    for size in sizes:
        addresses.append(addresses[-1] + size)   # last one is the HALT
    code = []
    for index, item in enumerate(items):
        kind = item[0]
        if kind == "bytes":
            code += item[1]
            continue
        if kind == "loop":
            code += _loop_code(item, addresses[index])[0]
            continue
        if kind == "patch":
            target = addresses[min(len(items), index + item[1])] + item[2]
            code += [0x22, target & 0xFF, target >> 8]
            continue
        if kind == "djnz":
            target = addresses[max(0, index - item[1])]
        else:
            target = addresses[min(len(items), max(0, index + item[1]))]
        if kind in ("djnz", "jr", "jr_nz", "jr_z", "jr_nc", "jr_c"):
            opcode = {"djnz": 0x10, "jr": 0x18, "jr_nz": 0x20,
                      "jr_z": 0x28, "jr_nc": 0x30, "jr_c": 0x38}[kind]
            offset = (target - (addresses[index] + 2)) & 0xFF
            code += [opcode, offset]
            continue
        cc = item[2]
        opcode = {"jp": 0xC3, "jp_cc": 0xC2 | cc << 3, "call": 0xCD,
                  "call_cc": 0xC4 | cc << 3}[kind]
        code += [opcode, target & 0xFF, target >> 8]
    return bytes(code + [0x76]), addresses


@st.composite
def programs(draw):
    base = draw(st.sampled_from(CODE_BASES))
    # Addresses on the stream's own code page make stores, pushes and
    # calls land on the executing block.
    near_code = st.integers(base, base + 0x3F)
    data = st.integers(0xC000, 0xDFFF)
    words = st.one_of(data, data, near_code, st.sampled_from(EDGE_ADDRESSES),
                      st.integers(0, 0xFFFF))
    items = draw(st.lists(_instructions(words), min_size=4, max_size=32))
    if draw(st.booleans()):     # a self-loop the run reaches
        items.insert(0, draw(_LOOP))
    code, addresses = _layout(base, items)
    # A F B C D E H L, the pair high bytes mostly in the data segment.
    high = st.one_of(st.integers(0xC0, 0xDF), _BYTE)
    regs = draw(st.tuples(_BYTE, _BYTE, high, _BYTE, high, _BYTE, high,
                          _BYTE))
    # base + 1: a push whose high byte lands on the stream's first byte.
    sp = draw(st.one_of(st.sampled_from(STACK_EDGES), data,
                        st.just(base + 1), near_code,
                        st.sampled_from(EDGE_ADDRESSES)))
    ix, iy = draw(st.tuples(words, words))
    mode = draw(st.sampled_from(["run", "call", "cycles"]))
    # Budgets on either side of the dispatch loop's guards: 128
    # instructions, and 128 instructions' worth of cycle_ceiling (3,712
    # cycles at the board's wait states).
    if mode == "cycles":
        budgets = draw(st.lists(st.one_of(st.integers(200, 8000),
                                          st.integers(1, 200),
                                          st.integers(3000, 20000)),
                                min_size=1, max_size=4))
    elif mode == "call":
        budgets = draw(st.lists(st.one_of(st.integers(100, 4000),
                                          st.integers(1, 40)),
                                min_size=1, max_size=3))
    else:
        budgets = [draw(st.one_of(st.integers(100, 4000),
                                  st.integers(1, 40)))]
    # Interrupts raised between run_cycles slices or calls, into the
    # stream.
    requests = [None] + draw(st.lists(
        st.one_of(st.none(), st.sampled_from(addresses)),
        min_size=len(budgets) - 1, max_size=len(budgets) - 1))
    # One per call, inside a self-loop too: at its head, on its body or
    # on its tail, where an earlier call may have translated it.
    loops = [_loop_code(item, start)[1]
             for item, start in zip(items, addresses) if item[0] == "loop"]
    inner = [address for loop in loops for address in loop]
    stop = st.sampled_from(addresses)
    if inner:
        stop = st.one_of(stop, st.sampled_from(inner))
    stops = draw(st.lists(stop, min_size=len(budgets),
                          max_size=len(budgets)))
    interrupt = draw(st.booleans())
    enabled = draw(st.booleans())
    return {"base": base, "code": code,
            "heads": [loop[0] for loop in loops], "regs": regs, "sp": sp,
            "ix": ix, "iy": iy, "mode": mode, "budgets": budgets,
            "requests": requests, "stops": stops, "interrupt": interrupt,
            "enabled": enabled}


def _run(program: dict, threshold: int | None, profile: bool = False):
    """Run ``program`` on the step core (``threshold`` None) or on the
    fast core entering the translated tier after ``threshold``
    closure-list executions; returns (outcomes, machine state), and
    with ``profile`` a ``CycleProfiler``'s tallies after them."""
    board = Board()
    cpu, memory = board.cpu, board.memory
    if threshold is None:
        cpu.use_fast_core = False
    else:
        cpu._cache = BlockCache(cpu)
        cpu._cache.translate_threshold = threshold
    # Patterned memory, so a read from the wrong address shows.
    memory.load_flash(FLASH_FILL)
    memory.load_sram(SRAM_FILL)
    base = program["base"]
    if base < 0xC000:
        memory.load_flash(program["code"], base)
    else:
        memory.load_sram(program["code"], (base - 0xC000) & 0x1FFF)
    (cpu.a, cpu.f, cpu.b, cpu.c,
     cpu.d, cpu.e, cpu.h, cpu.l) = program["regs"]
    cpu.sp = program["sp"]
    cpu.ix, cpu.iy = program["ix"], program["iy"]
    cpu.pc = base
    cpu.iff1 = cpu.iff2 = program["enabled"]
    if program["interrupt"]:
        cpu.request_interrupt(base)     # taken at once, or at an EI
    if profile:
        profiler = _profile(cpu, program)
    outcomes = []
    for budget, vector, stop in zip(program["budgets"], program["requests"],
                                    program["stops"]):
        if vector is not None:
            cpu.request_interrupt(vector)
        try:
            if program["mode"] == "run":
                outcomes.append(cpu.run(max_instructions=budget))
            elif program["mode"] == "call":
                outcomes.append(cpu.call_subroutine(
                    base, stop_address=stop, max_instructions=budget))
            else:
                outcomes.append(cpu.run_cycles(budget))
        except (CpuError, MemoryError_) as exc:    # type and message
            outcomes.append((type(exc).__name__, str(exc)))
            break
    if profile:
        outcomes.append((profiler.collapsed, profiler.instruction_counts,
                         profiler.call_counts))
    return outcomes, _machine_state(board)


def _profile(cpu, program: dict) -> CycleProfiler:
    """Install a profiler with a routine at the stream's start and at
    every loop head, behind a listener that checks each block ran at
    most its own instructions."""
    profiler = CycleProfiler(cpu, {
        f"r{address:x}": address
        for address in [program["base"]] + program["heads"]})
    profiler.install()
    profiled = cpu.block_listener

    def listener(pc, block, start, ran):
        assert block is None or ran <= len(block[0])
        profiled(pc, block, start, ran)

    cpu.set_block_listener(listener, cpu.block_ends)
    return profiler


@given(program=programs())
@settings(max_examples=400, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_fast_core_matches_step_core_on_generated_streams(program):
    step = _run(program, None)
    at_1 = _run(program, 1)
    at_64 = _run(program, 64)
    assert at_1 == at_64
    assert at_64 == step


@given(program=programs())
@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_profiled_fast_core_matches_step_core_on_generated_streams(program):
    assert _run(program, 1, profile=True) == _run(program, None,
                                                  profile=True)


def test_a_block_that_faults_part_way_charges_what_it_ran():
    """``inc bc; ret; rlc b; rlc b`` with SP on the ``ret`` returns into
    the SRAM pattern, where a block stores into flash after some of its
    instructions ran: the step core charged each of them, so the fast
    core must report them as a cut-short unit before the raise."""
    program = {"base": 0xC200, "code": bytes([0x03, 0xC9, 0xCB, 0x00,
                                              0xCB, 0x00]),
               "heads": [], "regs": (0,) * 8, "sp": 0xC201, "ix": 0,
               "iy": 0, "mode": "run", "budgets": [100],
               "requests": [None], "stops": [0xC200], "interrupt": False,
               "enabled": False}
    step = _run(program, None, profile=True)
    assert step[0][0][0] == "MemoryError_"
    assert step[0][1][0]["rc200;<root>;<root>;<root>;rc200"] == 23
    assert _run(program, 1, profile=True) == step
    assert _run(program, 64, profile=True) == step


@pytest.mark.parametrize("threshold", [None, 1, 64],
                         ids=["step", "translated", "closures"])
def test_a_listener_that_raises_sees_its_unit_once(threshold):
    """A raise from the listener itself is not a block cut short: the
    unit it was told of is not reported again on the way out."""
    board = Board()
    cpu = board.cpu
    if threshold is None:
        cpu.use_fast_core = False
    else:
        cpu._cache = BlockCache(cpu)
        cpu._cache.translate_threshold = threshold
    board.program(assemble("""
            ld   b, 20
    loop:   inc  a
            inc  a
            djnz loop
            halt
    """).code)
    seen = []

    def listener(pc, block, start, ran):
        seen.append((pc, ran))
        if len(seen) == 6:
            raise RuntimeError("listener")

    cpu.set_block_listener(listener)
    with pytest.raises(RuntimeError, match="listener"):
        cpu.run(max_instructions=1000)
    assert len(seen) == 6
