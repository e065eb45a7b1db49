"""Exact closed forms for repeated IEEE-754 addition.

``for _ in range(n): x = x + c`` with a positive constant ``c`` is
piecewise linear.  Inside one binade of ``x`` every float is a multiple
of ``u = ulp(x)``, and round-to-nearest sends ``x + c`` to ``x + k*u``
with ``k`` the nearest integer to ``c/u``.  So each add advances ``x``
by the same step ``d = k*u``.  The one exception is a tie, when
``2c/u`` is an odd integer: round-half-even then picks whichever
neighbour has an even significand.  After one such add the significand
is even, and from then on the step is constant too.

:func:`runs` walks the sum one stretch of constant steps at a time,
with integer arithmetic in ulp units, and :func:`first_at` finds where
a stretch first reaches a bound; :func:`add_repeated` is built on
them.  Every result is bit-identical to the naive loop, in time
proportional to the number of binades crossed rather than to ``n``.
The costatement scheduler uses them to skip all-idle big-loop passes:
its clock ``T = T + overhead`` and its gap histogram's ``total +=
gap``.
"""

from __future__ import annotations

import math
import sys

#: Run length reported once ``x + c == x``: the sum never moves again.
FOREVER = sys.maxsize


def runs(x: float, c: float):
    """Yield ``(start, d, m)`` forever, one stretch of constant steps at
    a time: from ``start``, each of the next ``m >= 1`` adds of ``c``
    advances the sum by exactly ``d``, so after ``t <= m`` of them it
    equals ``start + t*d`` (a float, exactly).  The next stretch starts
    at ``start + m*d``.

    Requires ``0 < c <= x``, both finite: then every step is exact
    (Sterbenz), including the single add that crosses into the next
    binade.  Once ``c`` is below half an ulp of the sum, the stretch is
    ``(x, 0.0, FOREVER)``.
    """
    while True:
        _, exp = math.frexp(x)
        # x lies in [2**(exp-1), 2**exp); its ulp is 2**ulp_exp (the
        # subnormal grid 2**-1074 reaches up into the first binade).
        ulp_exp = max(exp - 53, -1074)
        units = int(math.ldexp(x, -ulp_exp))
        top = 1 << (exp - ulp_exp)
        num, den = c.as_integer_ratio()
        if ulp_exp >= 0:
            den <<= ulp_exp
        else:
            num <<= -ulp_exp
        # c/u == num/den; round it to the step k, ties to an even sum.
        k, rem = divmod(num, den)
        tie = 2 * rem == den
        if 2 * rem > den or (tie and (units + k) & 1):
            k += 1
        if k == 0:
            yield x, 0.0, FOREVER
            continue
        # Steps that stay strictly inside the binade; after a tie only
        # an even step keeps the significand even, so an odd one holds
        # for the first add alone.
        m = (top - 1 - units) // k
        if tie and k & 1:
            m = min(m, 1)
        if m:
            d = math.ldexp(float(k), ulp_exp)
            yield x, d, m
            x += m * d
        # One ordinary add, which may cross into the next binade.
        nxt = x + c
        yield x, nxt - x, 1
        x = nxt


def first_at(start: float, d: float, bound: float, inclusive: bool,
             cap: int) -> int:
    """The smallest ``t`` in ``[0, cap]`` with ``start + t*d >= bound``
    (``> bound`` when ``inclusive``: the first ``t`` that leaves
    ``x <= bound``), or ``cap + 1`` if there is none.

    ``start + t*d`` must be exact for ``t <= cap`` (a :func:`runs`
    stretch) and ``d >= 0``; the comparison is made in exact integer
    arithmetic.
    """
    if bound == math.inf:
        return cap + 1
    if d == 0.0:
        reached = start > bound if inclusive else start >= bound
        return 0 if reached else cap + 1
    sp, sq = start.as_integer_ratio()
    bp, bq = bound.as_integer_ratio()
    dp, dq = d.as_integer_ratio()
    # (bound - start) / d == num / den, with den > 0.
    num = (bp * sq - sp * bq) * dq
    den = bq * sq * dp
    if inclusive:
        t = num // den + 1 if num >= 0 else 0
    else:
        t = -(-num // den) if num > 0 else 0
    return min(t, cap + 1)


def add_repeated(x: float, c: float, n: int) -> float:
    """``for _ in range(n): x = x + c``, bit for bit, for ``x >= 0`` and
    ``c > 0`` in O(binades crossed); any other operands take the loop."""
    if not (0.0 <= x < math.inf and 0.0 < c < math.inf):
        for _ in range(n):
            x += c
        return x
    if n and x < c:
        # One add lifts x to at least c, where runs() applies.
        x += c
        n -= 1
    if n:
        for start, d, m in runs(x, c):
            if n <= m:
                return start + n * d
            n -= m
    return x

