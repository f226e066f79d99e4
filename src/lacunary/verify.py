"""Closed-form-vs-oracle verification sweeps and machine-readable reports.

The central check: for each (K, L, n) in range, n! times the lambda^n
coefficient of the closed form must equal the brute-force Hermite
polynomial H_(nK+L)(x, y) as an exact polynomial identity.  Each K also
gets three resummations checked against brute-force dilatation: Lemma 1
and the parity split on the Hermite table, and Lemma 1 on a seeded dense
table with no parity constraint.  On failure a report pinpoints the first
differing monomial.

The two sides of a check share no loop, but they do share some code.  For
L > 0, closed_forms._evaluate_plan builds H_0 ... H_L with hermite_poly,
which is also the oracle of coefficient_cases.  hermite_egf, the input of
the brute-force dilatation, and hermite_poly both take their numerators
from hermite._hermite_numerators: only tests/test_oracles.py and the
recurrence test of tests/test_hermite.py check that helper from outside.
"""

from __future__ import annotations

import time
from fractions import Fraction

from .closed_forms import closed_form_HKL
from .hermite import (CoeffTable, check_cap, fact, hermite_coeff_table, hermite_egf,
                      hermite_poly)
from .operators import dilate_bruteforce, resum_corollary1, resum_lemma1
from .series import BivarPoly, LambdaSeries

RESUM_ORDER = 5  # lambda-order of each K's resummation checks, which build H_(5K)
_MASK = (1 << 64) - 1


def _case(K: int, L: int | None, n: int, diff_term: dict | None,
          check: str = "closed_form") -> dict:
    """One report case; it passes iff there is no differing term."""
    return {"K": K, "L": L, "n": n, "pass": diff_term is None, "diff_term": diff_term,
            "check": check}


def first_diff_poly(diff: BivarPoly, lam_power: int) -> dict | None:
    if diff.is_zero():
        return None
    (xp, yp), c = diff.sorted_terms()[0]
    return {"lp": lam_power, "xp": xp, "yp": yp, "num": str(c.numerator),
            "den": str(c.denominator)}


def first_diff_series(a: LambdaSeries, b: LambdaSeries) -> dict | None:
    """The first differing term; the shorter of two series differs where it stops."""
    for n in range(min(a.order, b.order) + 1):
        if a.coeffs[n] != b.coeffs[n]:  # equal coefficients need no subtraction
            return first_diff_poly(a.coeffs[n] - b.coeffs[n], n)
    return None if a.order == b.order else {"lp": min(a.order, b.order) + 1, "missing": True}


def _mix(z: int) -> int:
    """The splitmix64 finalizer: every bit of the 64-bit z moves every output bit."""
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 & _MASK
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB & _MASK
    return z ^ (z >> 31)


def random_dense_table(seed: int) -> CoeffTable:
    """A full-support table with deterministic pseudo-random entries: each entry
    num/den * y^yp, num in -9..9 (0 leaves it empty), den in 1..6 and yp in 0..2,
    comes from one hash of (seed, r, m), so it reads in any order at the same cost."""
    key = _mix(seed & _MASK)

    def gen(r: int, m: int) -> BivarPoly:
        h = _mix((_mix((key + r) & _MASK) + m) & _MASK)
        num = h % 19 - 9
        if num == 0:
            return BivarPoly()
        return BivarPoly.monomial(Fraction(num, h // 19 % 6 + 1), 0, h // 114 % 3)

    return CoeffTable(generator=gen, name=f"dense-seed{seed}")


def coefficient_cases(K: int, L: int, n_max: int) -> list[dict]:
    """n! [lambda^n] of the closed form against hermite_poly(nK+L), n = 0..n_max."""
    series = closed_form_HKL(K, L, n_max)
    cases = []
    for n in range(n_max + 1):
        if n > series.order:  # a short closed form fails at each power it lacks
            cases.append(_case(K, L, n, {"lp": n, "missing": True}))
            continue
        got, want = series.coeffs[n] * Fraction(fact(n)), hermite_poly(n * K + L)
        cases.append(_case(K, L, n, None if got == want else first_diff_poly(got - want, n)))
    return cases


def table_egf(table: CoeffTable, order: int) -> LambdaSeries:
    """The table's EGF by its definition, sum x^r lambda^(r+m) g_(r,m)(y) / (r+m)!:
    coefficient n is sum_r x^r g_(r,n-r)(y) / n!, read entry by entry, so that it
    shares no loop with the resummation it checks."""
    return LambdaSeries(order, [
        BivarPoly.dot((BivarPoly.monomial(1, r, 0), table(r, n - r)) for r in range(n + 1))
        * Fraction(1, fact(n)) for n in range(order + 1)])


def resummation_cases(K: int, seed: int) -> list[dict]:
    """Each resummation of a single K against brute-force dilatation: Lemma 1 and
    the parity split (whose odd part is zero) on the Hermite table, and Lemma 1 on
    a seeded dense table with no parity constraint."""
    table = hermite_coeff_table()
    oracle = dilate_bruteforce(hermite_egf(K * RESUM_ORDER), K)
    even, odd = resum_corollary1(table, K, RESUM_ORDER)
    dense = random_dense_table(seed)
    dense_oracle = dilate_bruteforce(table_egf(dense, K * RESUM_ORDER), K)
    return [
        _case(K, None, RESUM_ORDER,
              first_diff_series(resum_lemma1(table, K, RESUM_ORDER), oracle), "lemma1_oracle"),
        _case(K, None, RESUM_ORDER, first_diff_series(even, oracle)
              or first_diff_series(odd, LambdaSeries(RESUM_ORDER)), "parity_split:hermite"),
        _case(K, None, RESUM_ORDER,
              first_diff_series(resum_lemma1(dense, K, RESUM_ORDER), dense_oracle),
              f"lemma1_oracle:{dense.name}"),
    ]


def run_verification(n_max: dict[int, int], l_min: int = 0, l_max: int = 0,
                     seed: int = 0) -> dict:
    """The sweep over each K of n_max to its order n, at L = l_min ... l_max, as the
    report {"cases", "passed", "failed", "elapsed_ms"}."""
    if not n_max or not all(1 <= K <= 12 for K in n_max):
        raise ValueError("K range must lie within [1, 12]")
    if l_min < 0 or l_min > l_max:
        raise ValueError("invalid L range")
    if any(n < 0 for n in n_max.values()):
        raise ValueError(f"n_max must be >= 0, got {n_max!r}")
    check_cap(max(max(n * K + l_max, RESUM_ORDER * K) for K, n in n_max.items()))
    start = time.perf_counter()
    cases = []
    for K, n in n_max.items():
        for L in range(l_min, l_max + 1):
            cases.extend(coefficient_cases(K, L, n))
        cases.extend(resummation_cases(K, seed))
    passed = sum(c["pass"] for c in cases)
    return {"cases": cases, "passed": passed, "failed": len(cases) - passed,
            "elapsed_ms": (time.perf_counter() - start) * 1000.0}
