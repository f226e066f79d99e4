"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Every check is exact rational equality.  Time targets are asserted with
`perf_counter` around the exact computation.
"""

import random
import time
from fractions import Fraction

from identities import crofton_check, gmfc_check, series_sum

from lacunary import (
    BivarPoly,
    SemiLinearOp,
    apply_exp_op,
    closed_form_HKL,
    dilate_bruteforce,
    fact,
    hermite_coeff_table,
    hermite_egf,
    hermite_poly,
    normal_order,
    random_dense_table,
    resum_corollary1,
    resum_lemma1,
    rk_series,
)

X = BivarPoly.monomial(1, 1, 0)


def report(name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] {name}" + (f" ({detail})" if detail else ""))
    assert ok, name


def check_closed_form(K, L, n_range):
    series = closed_form_HKL(K, L, max(n_range))
    failures = [
        n
        for n in n_range
        if series.coeffs[n] * fact(n) != hermite_poly(n * K + L)
    ]
    return failures


def test_criterion_1_k3_reproduction():
    start = time.perf_counter()
    failures = check_closed_form(3, 0, range(1, 17))
    elapsed = time.perf_counter() - start
    report(
        "criterion 1: K=3, n=1..16 exact identities",
        not failures and elapsed < 10,
        f"{elapsed:.2f}s",
    )


def test_criterion_2_k4_k5_reproduction():
    start = time.perf_counter()
    failures = check_closed_form(4, 0, range(1, 17))
    failures += check_closed_form(5, 0, range(1, 16))
    elapsed = time.perf_counter() - start
    report(
        "criterion 2: K=4 n=1..16 and K=5 n=1..15 exact identities",
        not failures and elapsed < 30,
        f"{elapsed:.2f}s",
    )


def test_criterion_3_corollary_sweep():
    start = time.perf_counter()
    count, failures = 0, []
    for K in range(2, 7):
        for L in range(4):
            bad = check_closed_form(K, L, range(7))
            count += 7
            failures += [(K, L, n) for n in bad]
    elapsed = time.perf_counter() - start
    report(
        f"criterion 3: shifted sweep K=2..6, L=0..3, n=0..6 ({count} identities)",
        count == 140 and not failures and elapsed < 60,
        f"{elapsed:.2f}s",
    )


def test_criterion_4_resummation_oracle():
    start = time.perf_counter()
    table = hermite_coeff_table()
    ok = True
    for K in range(1, 9):
        resummed = resum_lemma1(table, K, 5)
        ok &= resummed == dilate_bruteforce(hermite_egf(5 * K), K)
        even, odd = resum_corollary1(table, K, 5)
        ok &= series_sum(even, odd) == resummed
    dense = random_dense_table(seed=0)
    for K in range(1, 9):
        even, odd = resum_corollary1(dense, K, 5)
        ok &= series_sum(even, odd) == resum_lemma1(dense, K, 5)
    elapsed = time.perf_counter() - start
    report(
        "criterion 4: resummation vs brute-force, K=1..8, order 5 + parity split",
        ok and elapsed < 10,
        f"{elapsed:.2f}s",
    )


def test_criterion_5_mu_extraction_cross_validation():
    ok = True
    for K in (3, 4):
        rk = rk_series(K, 3, 4)
        for L in (1, 2, 3):
            ok &= rk.mu_coeffs[L] * fact(L) == closed_form_HKL(K, L, 4)
    report("criterion 5: mu-coefficient extraction matches shifted closed forms", ok)


def test_criterion_6_normal_ordering_witness():
    two_y = BivarPoly.monomial(2, 0, 1)
    nr = normal_order(SemiLinearOp(q=two_y, v=X), 8)
    ok = nr.T_series.coeffs[0] == X and nr.T_series.coeffs[1] == two_y
    ok &= all(c.is_zero() for c in nr.T_series.coeffs[2:])
    ok &= nr.g_series == hermite_egf(8)

    rng = random.Random(2024)

    def rand_poly(max_deg):
        return BivarPoly(
            {
                (rng.randint(0, max_deg), rng.randint(0, 1)): Fraction(
                    rng.randint(-4, 4), rng.randint(1, 3)
                )
                for _ in range(rng.randint(1, 3))
            }
        )

    consistent = 0
    for _ in range(50):
        op = SemiLinearOp(q=rand_poly(2), v=rand_poly(2))
        apply_exp_op(op, 5, rand_poly(3))  # raises ConsistencyError on mismatch
        consistent += 1
    report(
        "criterion 6: (T, g) witness exact + 50 dual-route consistency checks",
        ok and consistent == 50,
    )


def test_criterion_7_crofton():
    rng = random.Random(77)

    def rand_x_poly():
        return BivarPoly(
            {
                (rng.randint(0, 4), 0): Fraction(rng.randint(-5, 5), rng.randint(1, 3))
                for _ in range(rng.randint(1, 3))
            }
        )

    ok = True
    for m in (1, 2, 3):
        for _ in range(25):
            f, g = rand_x_poly(), rand_x_poly()
            order = rng.randint(1, 4)
            ok &= crofton_check(m, Fraction(rng.randint(1, 3)), f, g, order)
    report("criterion 7: Crofton identity, m=1..3, 25 seeded pairs each", ok)


def test_criterion_8_gmfc_exhaustive():
    xs = [Fraction(1, 4), Fraction(1, 3), Fraction(1, 2), Fraction(1), Fraction(5, 4)]
    ok = all(
        gmfc_check(n, s, x) for n in range(2, 7) for s in range(6) for x in xs
    )
    report("criterion 8: multiplication formula, n=2..6, s=0..5, 5 x-values", ok)

