"""Lacunary shift and dilatation operators, plus the generic resummation.

The dilatation operator acts monomial by monomial,

    lambda^n  ->  0                       if n mod K != 0,
                  (n!/(n/K)!) lambda^(n/K) otherwise,

turning an EGF into its K-tuple lacunary EGF; the shift operator is L-fold
differentiation in lambda.  The resummation replaces the brute-force
substitution by explicit summand families over the coefficient table:
every family contributes terms x^r * lambda^((r+m)/K) / ((r+m)/K)! * g_{r,m}(y)
with r and m running over fixed residue classes mod K.  Lemma 1 has one
family per alpha = 0 ... K-1, r = -alpha and m = alpha mod K.  The
parity-split variant (Corollary 1) splits each family whose m-step is odd
into its even-t and odd-t halves and groups the families by the parity of m.
Each family hands the table one r at a time, and the table adds that row's
non-zero entries into one numerator dict per lambda-power.
"""

from __future__ import annotations

from collections import namedtuple

from .hermite import CoeffTable, fact
from .series import LambdaSeries, TruncationUnderflowError


def dilate_bruteforce(series: LambdaSeries, K: int) -> LambdaSeries:
    """Apply the K-fold dilatation rule literally to a truncated series.

    The output order is floor(input order / K): each exact output
    coefficient n needs the input coefficient n*K.
    """
    if K < 1:
        raise ValueError("dilatation multiple K must be >= 1")
    order = series.order // K
    coeffs = [series.coeffs[n * K] * (fact(n * K) // fact(n)) for n in range(order + 1)]
    return LambdaSeries(order, coeffs)


def shift(series: LambdaSeries, L: int) -> LambdaSeries:
    """L-fold lambda-derivative; for the Hermite EGF this shifts H_n to H_(n+L).

    The order drops by L.
    """
    if L < 0:
        raise ValueError("shift L must be >= 0")
    if L > series.order:
        raise TruncationUnderflowError(
            f"cannot differentiate {L} times at order {series.order}"
        )
    order = series.order - L
    coeffs = [series.coeffs[n + L] * (fact(n + L) // fact(n)) for n in range(order + 1)]
    return LambdaSeries(order, coeffs)


class Branch(namedtuple("Branch", "x_offset m_step m_offset")):
    """One summand family of the resummed dilatation.

    The family runs over s, t >= 0 with first index r = K*s + x_offset and
    second index m = m_step*t + m_offset; the resulting lambda-power is
    (r + m) / K, which the construction guarantees to be integral.
    """

    __slots__ = ()


def _resum(table: CoeffTable, K: int, branches: tuple[Branch, ...],
           order: int) -> LambdaSeries:
    """Sum x^r lambda^p g_{r,m}(y) / p!, p = (r + m) / K, over the families.

    r + m < K * (order + 1) is exactly p <= order, and it bounds both loops.
    Each family hands every r and its range ms of m to table.add_row, which adds
    the non-zero entries into nums[p], integer numerators keyed (xp, yp) over
    dens[p]; LambdaSeries.collect then gets one bucket per power, over dens[p] * p!.
    """
    end = K * (order + 1)
    add_row = table.add_row
    nums, dens = [{} for _ in range(order + 1)], [1] * (order + 1)
    for x_offset, m_step, m_offset in branches:
        for r in range(x_offset, end - m_offset, K):
            add_row(r, range(m_offset, end - r, m_step), K, nums, dens)
    return LambdaSeries.collect([{d * fact(p): num}
                                 for p, (d, num) in enumerate(zip(dens, nums))])


def lemma1_branches(K: int) -> tuple[Branch, ...]:
    """Lemma 1's K summand families: for alpha = 0 ... K-1, r = -alpha and
    m = alpha mod K, so r + m is a multiple of K."""
    if K < 1:
        raise ValueError("K must be >= 1")
    return tuple(Branch((-alpha) % K, K, alpha) for alpha in range(K))


def parity_split_branches(K: int) -> tuple[tuple[Branch, ...], tuple[Branch, ...]]:
    """Lemma 1's families regrouped by the parity of the second index m.

    A family with an odd m_step mixes parities, so it splits by the parity
    of t into two families with step 2*m_step, at offsets m_offset and
    m_offset + m_step.  The families, sorted by m_offset, are returned as
    (even_families, odd_families).  Their union re-sums to the lemma1
    families; for tables supported on even m the odd families contribute
    nothing.
    """
    families = []
    for br in lemma1_branches(K):
        halves = 2 if br.m_step % 2 else 1
        families += [Branch(br.x_offset, halves * br.m_step, br.m_offset + j * br.m_step)
                     for j in range(halves)]
    families.sort(key=lambda br: br.m_offset)
    even = tuple(br for br in families if br.m_offset % 2 == 0)
    return even, tuple(br for br in families if br.m_offset % 2 == 1)


def resum_lemma1(table: CoeffTable, K: int, order: int) -> LambdaSeries:
    """Resummed K-fold dilatation of the table's EGF, truncated at `order`."""
    return _resum(table, K, lemma1_branches(K), order)


def resum_corollary1(table: CoeffTable, K: int,
                     order: int) -> tuple[LambdaSeries, LambdaSeries]:
    """Parity-split resummation: (even second-index part, odd part).

    The two parts sum to the resum_lemma1 result for any table; for a
    table supported on even m the odd part is the zero series: its families
    still read every row, and those rows are empty.
    """
    even_br, odd_br = parity_split_branches(K)
    return _resum(table, K, even_br, order), _resum(table, K, odd_br, order)
