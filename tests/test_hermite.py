"""Hermite polynomials, their EGF, and the expansion coefficient table."""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lacunary import (
    BivarPoly,
    CoeffTable,
    LambdaSeries,
    fact,
    hermite_coeff_table,
    hermite_egf,
    hermite_poly,
    random_dense_table,
)
from lacunary.hermite import _hermite_entry


def classical_hermite(n):
    """One-variable physicists' Hermite polynomials via the recurrence.

    Returns coefficients of x^k as a dict; independent of hermite_poly.
    """
    prev = {0: Fraction(1)}
    if n == 0:
        return prev
    cur = {1: Fraction(2)}
    for k in range(1, n):
        nxt = {}
        for p, c in cur.items():
            nxt[p + 1] = nxt.get(p + 1, Fraction(0)) + 2 * c
        for p, c in prev.items():
            nxt[p] = nxt.get(p, Fraction(0)) - 2 * k * c
        prev, cur = cur, {p: c for p, c in nxt.items() if c != 0}
    return cur


class TestHermitePoly:
    def test_h0_is_one(self):
        assert hermite_poly(0) == BivarPoly.monomial(1, 0, 0)

    def test_h2(self):
        assert hermite_poly(2) == BivarPoly({(2, 0): 1, (0, 1): 2})

    def test_h3(self):
        assert hermite_poly(3) == BivarPoly({(3, 0): 1, (1, 1): 6})

    def test_classical_specialization(self):
        # H_n(2x, -1) must match the classical recurrence, n <= 12
        for n in range(13):
            expected = classical_hermite(n)
            got = {}
            for (xp, yp), c in hermite_poly(n).terms.items():
                got[xp] = got.get(xp, Fraction(0)) + c * 2**xp * Fraction(-1) ** yp
            got = {p: c for p, c in got.items() if c != 0}
            assert got == expected, n

    def test_sympy_physicists_hermite(self):
        # an oracle outside the package: H_n(2x, -1) is sympy's physicists' H_n(x)
        sympy = pytest.importorskip("sympy")
        x = sympy.Symbol("x")
        for n in range(31):
            got = sum(
                sympy.Rational(c.numerator, c.denominator) * (2 * x) ** xp * (-1) ** yp
                for (xp, yp), c in hermite_poly(n).terms.items()
            )
            assert sympy.expand(got - sympy.hermite(n, x)) == 0, n

    def test_degree_and_y0_specialization(self):
        for n in range(20):
            h = hermite_poly(n)
            assert h.degree_x() == n
            assert h.terms.get((n, 0), 0) == 1
            # H_n(x, 0) = x^n: y-free part is the single monomial x^n
            y_free = {k: c for k, c in h.terms.items() if k[1] == 0}
            assert y_free == {(n, 0): Fraction(1)}

    def test_recurrence(self):
        # H_(n+1) = x H_n + 2 y n H_(n-1), derived from the EGF, over the default cap range
        x, y = BivarPoly.monomial(1, 1, 0), BivarPoly.monomial(1, 0, 1)
        for n in range(1, 120):
            assert hermite_poly(n + 1) == x * hermite_poly(n) + y * (
                2 * n
            ) * hermite_poly(n - 1)


class TestHermiteEgf:
    def test_constant_term(self):
        assert hermite_egf(3).coeffs[0] == BivarPoly.monomial(1, 0, 0)

    def test_second_coefficient(self):
        assert hermite_egf(3).coeffs[2] * fact(2) == hermite_poly(2)

    def test_equals_product_of_exponentials(self):
        # exp(lambda x) * exp(lambda^2 y), both truncated at order 8
        order = 8
        ex = LambdaSeries(
            order,
            [BivarPoly.monomial(Fraction(1, fact(k)), k, 0) for k in range(order + 1)],
        )
        ey = LambdaSeries(order)
        for m in range(order // 2 + 1):
            ey.coeffs[2 * m] = BivarPoly.monomial(Fraction(1, fact(m)), 0, m)
        assert ex * ey == hermite_egf(order)


class TestCoeffTable:
    def test_odd_second_index_vanishes(self):
        table = hermite_coeff_table()
        assert table(3, 1).is_zero()
        assert table(0, 5).is_zero()

    def test_small_entries(self):
        table = hermite_coeff_table()
        assert table(0, 2) == BivarPoly.monomial(2, 0, 1)
        assert table(2, 4) == BivarPoly.monomial(180, 0, 2)

    def test_reconstructs_egf(self):
        # sum_r x^r sum_m lambda^(r+m)/(r+m)! g_{r,m}(y), summed term by term.
        table = hermite_coeff_table()
        for order in (5, 12, 20):
            coeffs = [BivarPoly() for _ in range(order + 1)]
            for r in range(order + 1):
                for m in range(order + 1 - r):
                    coeffs[r + m] += (BivarPoly.monomial(Fraction(1, fact(r + m)), r, 0)
                                      * table(r, m))
            assert LambdaSeries(order, coeffs) == hermite_egf(order)

    @given(st.integers(0, 80), st.integers(0, 12), st.integers(0, 250), st.integers(1, 16))
    @example(r=3, start=12, stop=12, step=2)
    @example(r=0, start=7, stop=3, step=5)
    @example(r=4, start=1, stop=200, step=4)
    @settings(max_examples=300, deadline=None)
    def test_row_matches_the_entries(self, r, start, stop, step):
        # the ratio-built Hermite row, and the default row, against the entries one by one
        ms = range(start, stop, step)
        want = [(m, g.num, g.den) for m in ms for g in (_hermite_entry(r, m),) if g.num]
        assert hermite_coeff_table().row(r, ms) == want
        assert CoeffTable(generator=_hermite_entry).row(r, ms) == want

    def test_row_refuses_negative_indices(self):
        for table in (hermite_coeff_table(), random_dense_table(seed=1)):
            for r, ms in ((-1, range(4)), (0, range(-2, 4)), (3, range(-1, 9, 2)),
                          (2, range(-3, -1))):
                with pytest.raises(ValueError, match="table indices must be non-negative"):
                    table.row(r, ms)
