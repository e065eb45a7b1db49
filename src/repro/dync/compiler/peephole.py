"""Peephole optimizer: the paper's "enabling compiler optimization" knob.

Rewrites the generated program's parsed assembly lines (see
:func:`repro.rabbit.asm.parse_asm`), applying a small set of classic
window rewrites until a fixed point.  The set is intentionally the kind
a simple embedded compiler shipped: spill-slot elimination, redundant
reload removal, and jump threading -- enough to move the needle a
little, not enough to close a 10x gap (which is the paper's measured
conclusion).
"""

from __future__ import annotations

from repro.rabbit.asm import AsmLine


def _key(line: AsmLine) -> str:
    """The instruction as normalized text; '' for a line that carries a
    label or holds no instruction, which no pattern matches."""
    if line.label is not None or not line.mnemonic:
        return ""
    if not line.operands:
        return line.mnemonic
    return f"{line.mnemonic} {', '.join(line.operands)}".lower()


def _instr(at: AsmLine, mnemonic: str, *operands: str) -> AsmLine:
    """A rewritten instruction, reported at ``at``'s line."""
    return AsmLine(None, mnemonic, list(operands), at.line_no,
                   f"{mnemonic} {', '.join(operands)}")


def peephole_optimize(lines: list[AsmLine]) -> list[AsmLine]:
    changed = True
    passes = 0
    while changed and passes < 20:
        passes += 1
        lines, changed = _one_pass(lines)
    return lines


def _one_pass(lines: list[AsmLine]) -> tuple[list[AsmLine], bool]:
    # One key per line per pass; the padding lets every window be four
    # wide.  Labels and non-instructions key to '' and so are never
    # consumed.
    keys = [_key(line) for line in lines] + ["", "", ""]
    out: list[AsmLine] = []
    changed = False
    index = 0
    while index < len(lines):
        line = lines[index]
        op0, op1, op2, op3 = keys[index: index + 4]

        # push hl / pop de  ->  ld d, h / ld e, l  (copy, not move)
        if op0 == "push hl" and op1 == "pop de":
            out.append(_instr(line, "ld", "d", "h"))
            out.append(_instr(line, "ld", "e", "l"))
            index += 2
            changed = True
            continue
        # ld hl, X / push hl / ld hl, Y / pop de  ->  ld de, X / ld hl, Y
        # (any other middle instruction could read or change HL).
        # Operands naming a stack op, a jump or DE are left alone.
        if (
            op0.startswith("ld hl, ")
            and op1 == "push hl"
            and op3 == "pop de"
            and op2.startswith("ld hl, ")
            and not any(tok in op2 for tok in ("push", "pop", "call", "jp",
                                               "jr", "rst", "de"))
        ):
            out.append(_instr(line, "ld", "de", line.operands[1]))
            out.append(lines[index + 2])
            index += 4
            changed = True
            continue
        # ld (X), hl / ld hl, (X)  ->  drop the reload
        if (
            op0.startswith("ld (")
            and op0.endswith("), hl")
            and op1 == f"ld hl, ({op0[4:-5]})"
        ):
            out.append(line)
            index += 2
            changed = True
            continue
        # ld a, l / ld (X), a / ld a, (X)  -> drop the reload
        if (
            op0 == "ld a, l"
            and op1.startswith("ld (")
            and op1.endswith("), a")
            and op2 == f"ld a, ({op1[4:-4]})"
        ):
            out.append(line)
            out.append(lines[index + 1])
            index += 3
            changed = True
            continue
        # ex de, hl / ex de, hl -> nothing
        if op0 == "ex de, hl" and op1 == "ex de, hl":
            index += 2
            changed = True
            continue
        # jp LABEL just before LABEL: (blank and comment lines between)
        if op0.startswith("jp ") and "," not in op0:
            following = next((lines[later]
                              for later in range(index + 1, len(lines))
                              if lines[later].label is not None
                              or lines[later].mnemonic), None)
            if following is not None and following.label == op0[3:]:
                index += 1
                changed = True
                continue
        out.append(line)
        index += 1
    return out, changed

