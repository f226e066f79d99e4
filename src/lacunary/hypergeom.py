"""Truncated pFq blocks in exact integer arithmetic, and the pole error they raise.

A truncated pFq block is its first terms z^t prod (a)_t / (t! prod (b)_t),
with (a)_t the rising factorial, and every parameter and the argument z an
integer (numerator, denominator) pair; the closed forms place the monomial
lambda^(t*lp) y^(t*yp) that term t multiplies.  Gamma functions never
appear: each term follows from the one before through the term ratio.
"""

from __future__ import annotations

from math import gcd


class PoleError(ZeroDivisionError):
    """A lower pFq parameter hit a non-positive integer within the term range."""


def pfq_series(upper, lower, z, count: int) -> list[tuple[int, int]]:
    """Terms 0 ... count-1 of pFq(upper; lower; z), each a reduced (num, den), den > 0.

    The parameters and z are (num, den) integer pairs with den > 0.  Term t
    comes from term t-1 through the term ratio
    z * prod(a + t-1) / (t * prod(b + t-1)), on integers with one gcd per
    term.  A lower parameter -m with m + 1 < count is a pole within the range
    and raises PoleError before any term is computed, also when an upper
    parameter would have made the terms from there on 0.
    """
    for bn, bd in lower:
        if bn <= 0 and bn % bd == 0 and -bn // bd + 1 < count:
            raise PoleError(f"lower parameter {bn // bd} is a pole at term "
                            f"{-bn // bd + 1} (index reaches 0)")
    zn, zd = z
    num, den = 1, 1
    terms = []
    for t in range(count):
        if t and num:
            num *= zn
            den *= zd * t
            for an, ad in upper:
                num *= an + (t - 1) * ad
                den *= ad
            for bn, bd in lower:
                num *= bd
                den *= bn + (t - 1) * bd
            g = gcd(num, den) if den > 0 else -gcd(num, den)
            num, den = num // g, den // g
        terms.append((num, den))
    return terms

