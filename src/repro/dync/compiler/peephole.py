"""Peephole optimizer: the paper's "enabling compiler optimization" knob.

Operates on the generated assembly text, applying a small set of
classic window rewrites until a fixed point.  The set is intentionally
the kind a simple embedded compiler shipped: spill-slot elimination,
redundant reload removal, and jump threading -- enough to move the
needle a little, not enough to close a 10x gap (which is the paper's
measured conclusion).
"""

from __future__ import annotations

import re

_LABEL_RE = re.compile(r"^([A-Za-z_.][A-Za-z0-9_.]*):")


def _parse(line: str) -> str:
    """Normalized instruction text ('' for labels/blank/comments)."""
    stripped = line.strip()
    if not stripped or stripped.startswith(";") or _LABEL_RE.match(stripped):
        return ""
    return re.sub(r"\s+", " ", stripped.split(";")[0].strip()).lower()


def peephole_optimize(asm_source: str) -> str:
    lines = asm_source.splitlines()
    changed = True
    passes = 0
    while changed and passes < 20:
        changed = False
        passes += 1
        lines, step_changed = _one_pass(lines)
        changed = changed or step_changed
    return "\n".join(lines) + "\n"


def _one_pass(lines: list[str]) -> tuple[list[str], bool]:
    out: list[str] = []
    changed = False
    index = 0
    while index < len(lines):
        # A plain slice: labels/blanks inside the window parse to '' and
        # simply fail to match any pattern, so they are never consumed.
        window = lines[index: index + 4]
        ops = [_parse(line) for line in window]
        ops += [""] * (4 - len(ops))

        # push hl / pop de  ->  ld d, h / ld e, l  (copy, not move)
        if ops[0] == "push hl" and ops[1] == "pop de":
            out.append("        ld   d, h")
            out.append("        ld   e, l")
            index += 2
            changed = True
            continue
        # ld hl, X / push hl / <one instr not using stack> / pop de
        # -> ld de, X / <instr>
        if (
            ops[0].startswith("ld hl, ")
            and ops[1] == "push hl"
            and ops[3] == "pop de"
            and ops[2]
            and not any(tok in ops[2] for tok in ("push", "pop", "call", "jp",
                                                  "jr", "rst", "de"))
        ):
            operand = ops[0][len("ld hl, "):]
            out.append(f"        ld   de, {operand}")
            out.append(window[2])
            index += 4
            changed = True
            continue
        # ld (X), hl / ld hl, (X)  ->  drop the reload
        if (
            ops[0].startswith("ld (")
            and ops[0].endswith("), hl")
            and ops[1] == f"ld hl, ({ops[0][4:-5]})"
        ):
            out.append(window[0])
            index += 2
            changed = True
            continue
        # ld a, l / ld (X), a / ld a, (X)  -> drop the reload
        if (
            ops[0] == "ld a, l"
            and ops[1].startswith("ld (")
            and ops[1].endswith("), a")
            and ops[2] == f"ld a, ({ops[1][4:-4]})"
        ):
            out.append(window[0])
            out.append(window[1])
            index += 3
            changed = True
            continue
        # ex de, hl / ex de, hl -> nothing
        if ops[0] == "ex de, hl" and ops[1] == "ex de, hl":
            index += 2
            changed = True
            continue
        # jp LABEL just before LABEL:
        if ops[0].startswith("jp ") and "," not in ops[0]:
            target = ops[0][3:].strip()
            next_label = _next_label(lines, index + 1)
            if next_label == target:
                index += 1
                changed = True
                continue
        # ld hl, 0 / add hl, de -> ex de, hl  (when DE is dead after --
        # too aggressive to prove; restrict to the known spill pattern)
        out.append(lines[index])
        index += 1
    return out, changed



def _next_label(lines: list[str], start: int) -> str | None:
    for line in lines[start:]:
        stripped = line.strip()
        if not stripped or stripped.startswith(";"):
            continue
        match = _LABEL_RE.match(stripped)
        if match:
            return match.group(1).lower()
        return None
    return None
