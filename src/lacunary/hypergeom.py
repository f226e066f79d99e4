"""Pochhammer symbols, truncated pFq blocks, and the multiplication-formula check.

Every hypergeometric block used by the closed forms has a *monomial*
argument c * lambda^lp * x^xp * y^yp with lp >= 1, so extracting the
coefficient of a fixed lambda-power is a finite computation.  Gamma
functions never appear: all identities are cast as exact rational
Pochhammer / factorial identities.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .series import BivarPoly, LambdaSeries


class PoleError(ZeroDivisionError):
    """A lower pFq parameter hit a non-positive integer within the term range."""


class DomainError(ValueError):
    """Arguments outside the validity domain of an identity."""


def pochhammer(a, b: int) -> Fraction:
    """Rising factorial (a)_b = a (a+1) ... (a+b-1), exact."""
    if b < 0:
        raise ValueError("pochhammer index must be non-negative")
    a = Fraction(a)
    result = Fraction(1)
    for k in range(b):
        result *= a + k
    return result


@dataclass(frozen=True)
class HypergeomSpec:
    """One pFq block with a monomial argument in (lambda, x, y)."""

    upper: tuple[Fraction, ...]
    lower: tuple[Fraction, ...]
    arg_coef: Fraction
    arg_lpow: int
    arg_xpow: int = 0
    arg_ypow: int = 0

    @classmethod
    def make(cls, upper, lower, arg_coef, arg_lpow, arg_xpow=0, arg_ypow=0):
        return cls(
            tuple(Fraction(a) for a in upper),
            tuple(Fraction(b) for b in lower),
            Fraction(arg_coef),
            arg_lpow,
            arg_xpow,
            arg_ypow,
        )


def _check_pole(b: Fraction, s: int, term: int):
    if b.denominator == 1 and b <= 0 and -b < s:
        raise PoleError(
            f"lower parameter {b} is a pole at term {term} (index reaches 0)"
        )


def pfq_series(spec: HypergeomSpec, order: int) -> LambdaSeries:
    """Truncated pFq block: sum over s with s * arg_lpow <= order.

    Term s comes from term s-1 through the term ratio
    z * prod(a + s-1) / (s * prod(b + s-1)), on integer numerators and
    denominators with one gcd per term.  Every lower parameter is checked
    for a pole at every s, also after an upper parameter has made the terms 0.
    """
    if spec.arg_lpow < 1:
        raise DomainError("argument must carry a positive lambda-power")
    out = LambdaSeries.zero(order)
    upper = [(a.numerator, a.denominator) for a in spec.upper]
    lower = [(b.numerator, b.denominator) for b in spec.lower]
    num, den = 1, 1
    for s in range(order // spec.arg_lpow + 1):
        for b in spec.lower:
            _check_pole(b, s, s)
        if s and num:
            num *= spec.arg_coef.numerator
            den *= spec.arg_coef.denominator * s
            for an, ad in upper:
                num *= an + (s - 1) * ad
                den *= ad
            for bn, bd in lower:
                num *= bd
                den *= bn + (s - 1) * bd
            g = gcd(num, den) if den > 0 else -gcd(num, den)
            num, den = num // g, den // g
        if num:
            out.coeffs[s * spec.arg_lpow] = BivarPoly.from_numerators(
                {(s * spec.arg_xpow, s * spec.arg_ypow): num}, den
            )
    return out


def gmfc_check(n: int, s: int, x) -> bool:
    """Exact rational form of the Gamma multiplication identity.

    Verifies prod_{k=0}^{ns-1} (n*x + k) == n^(s*n) * prod_{j=0}^{n-1} (x + j/n)_s.
    """
    x = Fraction(x)
    if n < 2:
        raise DomainError("n must be >= 2")
    if s < 0:
        raise DomainError("s must be >= 0")
    if x <= 0:
        raise DomainError("x must be a positive rational")
    lhs = Fraction(1)
    for k in range(n * s):
        lhs *= n * x + k
    rhs = Fraction(n) ** (s * n)
    for j in range(n):
        rhs *= pochhammer(x + Fraction(j, n), s)
    return lhs == rhs
