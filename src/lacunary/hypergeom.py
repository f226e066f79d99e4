"""Truncated pFq blocks in exact integer arithmetic, and the pole error they raise.

A truncated pFq block is its first terms z^t prod (a)_t / (t! prod (b)_t),
with (a)_t the rising factorial, every parameter an integer numerator over one
denominator and z an integer, as a ClosedFormPlan lays them out; the closed
forms place the monomial lambda^(t*lp) y^(t*yp) that term t multiplies.  Gamma
functions never appear: each term follows from the one before by the term ratio,
whose integer products ``ratio_products`` builds for ``pfq_series`` and for the
closed forms alike.
"""

from __future__ import annotations

from math import gcd


class PoleError(ZeroDivisionError):
    """A lower pFq parameter hit a non-positive integer within the term range."""


def ratio_products(upper, lower, den: int, count: int) -> tuple[list[int], list[int]]:
    """The products prod(a + t*den) over the upper and over the lower parameters, each
    a list over t = 0 ... count-2: the factors that take term t to term t+1 of a
    count-term block of pFq(upper/den; lower/den; z).

    A lower parameter b/den = -m with m + 1 < count is a pole within the block and
    raises PoleError before any product is built, also when an upper parameter
    would have made the terms from there on 0.
    """
    for b in lower:
        if b <= 0 and b % den == 0 and -b // den + 1 < count:
            raise PoleError(f"lower parameter {b // den} is a pole at term "
                            f"{-b // den + 1} (index reaches 0)")
    products = ([], [])
    for params, out in zip((upper, lower), products):
        for shift in range(0, (count - 1) * den, den):  # plain loops: prod() costs twice
            v = 1
            for a in params:
                v *= a + shift
            out.append(v)
    return products


def pfq_series(upper, lower, den: int, z: int, count: int) -> list[tuple[int, int]]:
    """Terms 0 ... count-1 of pFq(upper/den; lower/den; z), each a reduced (num, den), den > 0.

    The parameters are integer numerators over one den > 0, and z is an
    integer.  Term t comes from term t-1 through the term ratio
    z * den^q * prod(a + (t-1)*den) / (t * den^p * prod(b + (t-1)*den)), for
    p = len(upper) and q = len(lower), on integers with one gcd per term; the
    products are those of ``ratio_products``, which raises PoleError for a pole
    within the range.
    """
    ups, downs = ratio_products(upper, lower, den, count)
    z_scale, d_scale = z * den ** len(lower), den ** len(upper)
    tn, td = 1, 1
    terms = []
    for t in range(count):
        if t and tn:
            tn *= z_scale * ups[t - 1]
            td *= d_scale * t * downs[t - 1]
            g = gcd(tn, td) if td > 0 else -gcd(tn, td)
            tn, td = tn // g, td // g
        terms.append((tn, td))
    return terms
