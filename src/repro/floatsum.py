"""Exact closed forms for repeated IEEE-754 addition.

``for _ in range(n): x = x + c`` with a positive constant ``c`` is
piecewise linear.  Inside one binade of ``x`` every float is a multiple
of ``u = ulp(x)``, and round-to-nearest sends ``x + c`` to ``x + k*u``
with ``k`` the nearest integer to ``c/u``.  So each add advances ``x``
by the same step ``d = k*u``.  The one exception is a tie, when
``2c/u`` is an odd integer: round-half-even then picks whichever
neighbour has an even significand.  After one such add the significand
is even, and from then on the step is constant too.

:func:`stretch` finds one stretch of constant steps, where the next
one starts: the rounding of ``c/u`` is exact integer arithmetic, done
once per binade and addend and kept (:func:`_step`), and only the
tie's parity is read from ``x``.  :func:`first_at` finds where a
stretch first reaches a bound, in float arithmetic that is exact
inside a stretch; :func:`add_repeated` is built on them.  Every result
is bit-identical to the naive loop, in time proportional to the number
of binades crossed rather than to ``n``.  The costatement scheduler
uses them to skip all-idle big-loop passes: its clock
``T = T + overhead`` and its gap histogram's ``total += gap``.
"""

from __future__ import annotations

import functools
import math
import sys

#: Run length reported once ``x + c == x``: the sum never moves again.
FOREVER = sys.maxsize


@functools.lru_cache(maxsize=1024)
def _step(exp: int, c: float) -> tuple[int, int, int, bool]:
    """``(ulp_exp, top, k, tie)`` for adding ``c`` in the binade
    ``[2**(exp-1), 2**exp)``: its ulp is ``2**ulp_exp``, its floats are
    the multiples ``units < top`` of that ulp, and ``c/ulp`` rounds to
    ``k`` -- or, when ``tie``, to ``k`` or ``k + 1``, whichever gives
    the sum an even significand."""
    # The subnormal grid 2**-1074 reaches up into the first binade.
    ulp_exp = max(exp - 53, -1074)
    num, den = c.as_integer_ratio()
    if ulp_exp >= 0:
        den <<= ulp_exp
    else:
        num <<= -ulp_exp
    # c/u == num/den, rounded to nearest.
    k, rem = divmod(num, den)
    if 2 * rem > den:
        k += 1
    return ulp_exp, 1 << (exp - ulp_exp), k, 2 * rem == den


def stretch(x: float, c: float) -> tuple[float, int]:
    """``(d, m)``: from ``x``, each of the next ``m >= 1`` adds of ``c``
    advances the sum by exactly ``d``, so after ``t <= m`` of them it
    equals ``x + t*d`` (a float, exactly).  The next stretch starts at
    ``x + m*d``.

    Requires ``0 < c <= x``, both finite: then every step is exact
    (Sterbenz), including the single add that crosses into the next
    binade.  Once ``c`` is below half an ulp of the sum, the stretch is
    ``(0.0, FOREVER)``.
    """
    ulp_exp, top, k, tie = _step(math.frexp(x)[1], c)
    units = int(math.ldexp(x, -ulp_exp))
    if tie and (units + k) & 1:
        k += 1
    if k == 0:
        return 0.0, FOREVER
    # Steps that stay strictly inside the binade; after a tie only an
    # even step keeps the significand even, so an odd one holds for the
    # first add alone.
    m = (top - 1 - units) // k
    if tie and k & 1:
        m = min(m, 1)
    if m:
        return math.ldexp(float(k), ulp_exp), m
    # One ordinary add, which may cross into the next binade.
    return (x + c) - x, 1


def first_at(start: float, d: float, bound: float, inclusive: bool,
             cap: int) -> int:
    """The smallest ``t`` in ``[0, cap]`` with ``start + t*d >= bound``
    (``> bound`` when ``inclusive``: the first ``t`` that leaves
    ``x <= bound``), or ``cap + 1`` if there is none.

    ``start + t*d`` must be exact for ``t <= cap`` (a :func:`stretch`)
    and ``d >= 0``.  The quotient ``(bound - start) / d`` estimates
    ``t``, and its integer part never passes the answer: for a bound
    inside the stretch the difference is exact (Sterbenz: a stretch
    ends by ``2*start``), and the quotient, rounded once, is off by less
    than one.  Exact comparisons of the sums then step it up.
    """
    if bound == math.inf:
        return cap + 1
    if d == 0.0:
        reached = start > bound if inclusive else start >= bound
        return 0 if reached else cap + 1
    q = (bound - start) / d
    if q >= cap + 1:
        return cap + 1
    t = int(q) if q > 0 else 0
    if inclusive:
        while t <= cap and start + t * d <= bound:
            t += 1
    else:
        while t <= cap and start + t * d < bound:
            t += 1
    return t


def add_repeated(x: float, c: float, n: int) -> float:
    """``for _ in range(n): x = x + c``, bit for bit, for ``x >= 0`` and
    ``c > 0`` in O(binades crossed); any other operands take the loop."""
    if not (0.0 <= x < math.inf and 0.0 < c < math.inf):
        for _ in range(n):
            x += c
        return x
    if n and x < c:
        # One add lifts x to at least c, where stretch() applies.
        x += c
        n -= 1
    while n:
        d, m = stretch(x, c)
        if n <= m:
            return x + n * d
        n -= m
        x += m * d
    return x
