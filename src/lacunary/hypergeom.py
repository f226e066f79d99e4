"""Truncated pFq blocks in exact integer arithmetic, and the pole error they raise.

A truncated pFq block is its first terms z^t prod (a)_t / (t! prod (b)_t),
with (a)_t the rising factorial, every parameter an integer numerator over one
denominator and z an integer, as a ClosedFormPlan lays them out; the closed
forms place the monomial lambda^(t*lp) y^(t*yp) that term t multiplies.  Gamma
functions never appear: each term follows from the one before by the term ratio.
"""

from __future__ import annotations

from math import gcd


class PoleError(ZeroDivisionError):
    """A lower pFq parameter hit a non-positive integer within the term range."""


def pfq_series(upper, lower, den: int, z: int, count: int) -> list[tuple[int, int]]:
    """Terms 0 ... count-1 of pFq(upper/den; lower/den; z), each a reduced (num, den), den > 0.

    The parameters are integer numerators over one den > 0, and z is an
    integer.  Term t comes from term t-1 through the term ratio
    z * den^q * prod(a + (t-1)*den) / (t * den^p * prod(b + (t-1)*den)), for
    p = len(upper) and q = len(lower), on integers with one gcd per term.  A
    lower parameter b/den = -m with m + 1 < count is a pole within the range
    and raises PoleError before any term is computed, also when an upper
    parameter would have made the terms from there on 0.
    """
    for b in lower:
        if b <= 0 and b % den == 0 and -b // den + 1 < count:
            raise PoleError(f"lower parameter {b // den} is a pole at term "
                            f"{-b // den + 1} (index reaches 0)")
    z_scale, d_scale = z * den ** len(lower), den ** len(upper)
    tn, td = 1, 1
    terms = []
    for t in range(count):
        if t and tn:
            shift = (t - 1) * den
            tn *= z_scale
            td *= d_scale * t
            for a in upper:
                tn *= a + shift
            for b in lower:
                td *= b + shift
            g = gcd(tn, td) if td > 0 else -gcd(tn, td)
            tn, td = tn // g, td // g
        terms.append((tn, td))
    return terms
