"""Two-variable Hermite polynomials, their EGF, and the expansion coefficient table.

The polynomials are

    H_n(x, y) = n! * sum_k x^(n-2k) y^k / ((n-2k)! k!),   0 <= k <= n//2,

with exponential generating function exp(lambda*x + lambda^2*y).  Expanding
that EGF first in x and then in lambda yields the double-expansion
coefficients g_{r,m}(y), which vanish for odd m and equal
(r+2m)! y^m / (r! m!) at even second index 2m.  These coefficients are the
sole input of the generic resummation algorithm in :mod:`lacunary.operators`,
which has the table add them a row at a time into its accumulators
(``CoeffTable.add_row``).  The size cap ``check_cap``,
which every command applies before it builds anything, lives here too: it is
the lowest module the commands share.
"""

from __future__ import annotations

import os
from collections import namedtuple
from functools import lru_cache
from math import factorial, gcd, perm

from .series import BivarPoly, LambdaSeries

DEFAULT_CAP = 120


def check_cap(size: int) -> None:
    """Reject a run larger than LACUNAE_CAP: its size is the largest Hermite index it
    builds, for normal-order the order times the x-degree of q and v, and for
    dilate and shift the order of the series they read."""
    raw = os.environ.get("LACUNAE_CAP", DEFAULT_CAP)
    try:
        cap = int(raw)
    except ValueError:
        raise ValueError(f"LACUNAE_CAP must be an integer, got {raw!r}") from None
    if size > cap:
        raise ValueError(f"size {size} exceeds LACUNAE_CAP={cap} (set it higher)")


@lru_cache(maxsize=None)
def fact(n: int) -> int:
    """Exact factorial, memoized (lru_cache is safe for concurrent readers)."""
    return factorial(n)


class CoeffTable(namedtuple("CoeffTable", "generator name", defaults=("table",))):
    """EGF double-expansion coefficients (r, m) -> polynomial in y.

    ``generator(r, m)`` computes entries on demand and returns zero where an
    entry vanishes (odd m for the Hermite table); ``name`` labels the table.
    ``add_row(r, ms, K, nums, dens)`` adds x^r g_{r,m} for one r over a range of m
    into the resummation's accumulators, one per lambda-power p = (r + m) / K.
    """

    __slots__ = ()

    def __call__(self, r: int, m: int) -> BivarPoly:
        if r < 0 or m < 0:
            raise ValueError("table indices must be non-negative")
        return self.generator(r, m)

    def add_row(self, r: int, ms: range, K: int, nums: list, dens: list) -> None:
        """Add x^r g_{r,m}, m in the increasing range ms, into nums[(r + m) // K].

        nums[p] maps (xp, yp) to an integer numerator over dens[p] > 0.  An entry
        whose den does not divide dens[p] first raises dens[p] to their lcm and
        rescales nums[p] once; a key already present is added to, so entries that
        share a monomial, or cancel, sum exactly.  By default entry by entry.
        """
        if r < 0 or ms.start < 0:
            raise ValueError("table indices must be non-negative")
        gen = self.generator
        for m in ms:
            g = gen(r, m)
            if not g.num:
                continue
            p, den = (r + m) // K, g.den
            acc, d = nums[p], dens[p]
            if d % den:
                f = den // gcd(d, den)
                for k in acc:
                    acc[k] *= f
                dens[p] = d = d * f
            f = d // den
            for (xp, yp), c in g.num.items():
                key, c = (r + xp, yp), c * f
                acc[key] = acc[key] + c if key in acc else c


def _hermite_numerators(n: int) -> dict:
    """The integer coefficients of H_n(x, y): n! / ((n-2k)! k!) at x^(n-2k) y^k.

    They follow from c_0 = 1 by the ratio c_(k+1) = c_k (n-2k)(n-2k-1) / (k+1),
    each step an exact division by a small integer.
    """
    out, c = {}, 1
    for k in range(n // 2 + 1):
        out[n - 2 * k, k] = c
        c = c * ((n - 2 * k) * (n - 2 * k - 1)) // (k + 1)
    return out


def hermite_poly(n: int) -> BivarPoly:
    """H_n(x, y) as an exact sparse polynomial; x-degree equals n."""
    if n < 0:
        raise ValueError("Hermite index must be non-negative")
    return BivarPoly.from_numerators(_hermite_numerators(n))


def hermite_egf(order: int) -> LambdaSeries:
    """Truncated EGF: coefficient of lambda^n is H_n(x, y) / n!."""
    return LambdaSeries(order, [BivarPoly.from_numerators(_hermite_numerators(n), fact(n))
                                for n in range(order + 1)])


_ZERO = BivarPoly()


def _hermite_entry(r: int, m: int) -> BivarPoly:
    if m % 2 != 0:
        return _ZERO
    half = m // 2
    return BivarPoly.from_numerators({(0, half): fact(r + m) // (fact(r) * fact(half))})


class _HermiteTable(CoeffTable):
    """The Hermite table, whose rows skip odd m, build each entry by ratio and store it
    as one integer, with no polynomial per entry."""

    __slots__ = ()

    def add_row(self, r: int, ms: range, K: int, nums: list, dens: list) -> None:
        """Only the even m of ms, each integer entry times dens[p] added at (r, m/2) of
        nums[p]: the first entry from factorials, each later one from the one before,
        times (r+m)!/(r+m-step)! over the half-indices (m-step)/2+1..m/2."""
        if r < 0 or ms.start < 0:
            raise ValueError("table indices must be non-negative")
        if ms.step % 2:
            ms = ms[ms.start % 2::2]
        elif ms.start % 2:
            return
        c, step = None, ms.step
        for m in ms:
            c = (fact(r + m) // (fact(r) * fact(m // 2)) if c is None
                 else c * perm(r + m, step) // perm(m // 2, step // 2))
            p, key = (r + m) // K, (r, m // 2)
            acc, v = nums[p], c * dens[p]
            acc[key] = acc[key] + v if key in acc else v


def hermite_coeff_table() -> CoeffTable:
    """The Hermite EGF expansion table: zero off even m, (r+2m)! y^m/(r! m!) on it."""
    return _HermiteTable(generator=_hermite_entry, name="hermite")
