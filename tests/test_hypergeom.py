"""Pochhammer symbols, truncated pFq blocks, and the multiplication formula."""

from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lacunary import (
    BivarPoly,
    DomainError,
    HypergeomSpec,
    LambdaSeries,
    PoleError,
    gmfc_check,
    pfq_series,
    pochhammer,
)

params = st.fractions(min_value=-4, max_value=4, max_denominator=6)


class TestPochhammer:
    def test_empty_product(self):
        assert pochhammer(Fraction(7, 3), 0) == 1

    def test_poch_of_one_is_factorial(self):
        for q in range(8):
            assert pochhammer(1, q) == factorial(q)

    def test_half(self):
        assert pochhammer(Fraction(1, 2), 2) == Fraction(3, 4)

    @given(
        st.fractions(min_value=-4, max_value=4, max_denominator=5),
        st.integers(0, 6),
    )
    @settings(max_examples=60)
    def test_recurrence(self, a, b):
        assert pochhammer(a, b + 1) == pochhammer(a, b) * (a + b)


class TestPfqSeries:
    def test_0f0_is_exponential(self):
        spec = HypergeomSpec.make([], [], 1, 1)
        s = pfq_series(spec, 5)
        for k in range(6):
            assert s.coeffs[k] == BivarPoly.constant(Fraction(1, factorial(k)))

    def test_2f1_geometric(self):
        # parameters cancel pairwise, leaving sum lambda^s
        spec = HypergeomSpec.make([1, 1], [1], 1, 1)
        s = pfq_series(spec, 4)
        assert all(s.coeffs[k] == BivarPoly.constant(1) for k in range(5))

    def test_3f1_first_term(self):
        # s=1 term of 3F1[1/4,1/2,3/4; 1/2](64 lambda y^2) is 12 lambda y^2
        spec = HypergeomSpec.make(
            [Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)],
            [Fraction(1, 2)],
            64, 1, 0, 2,
        )
        s = pfq_series(spec, 1)
        assert s.coeffs[1] == BivarPoly.monomial(12, 0, 2)

    def test_termwise_ratio(self):
        spec = HypergeomSpec.make(
            [Fraction(1, 3), Fraction(5, 2)], [Fraction(7, 4)], Fraction(3, 2), 1
        )
        series = pfq_series(spec, 6)
        for s in range(6):
            t0 = series.coeffs[s].coefficient(0, 0)
            t1 = series.coeffs[s + 1].coefficient(0, 0)
            ratio = spec.arg_coef
            for a in spec.upper:
                ratio *= a + s
            for b in spec.lower:
                ratio /= b + s
            ratio /= s + 1
            assert t1 == t0 * ratio

    def test_pole_detection(self):
        spec = HypergeomSpec.make([1], [-2], 1, 1)
        with pytest.raises(PoleError):
            pfq_series(spec, 5)
        # truncation below the pole stays fine
        assert pfq_series(spec, 2).coeffs[0] == BivarPoly.constant(1)

    def test_pole_after_zero_terms(self):
        # (-1)_s = 0 from s = 2 on, but the lower -3 still poles at s = 4
        spec = HypergeomSpec.make([-1], [-3], 1, 1)
        for order in (4, 7):
            with pytest.raises(PoleError):
                pfq_series(spec, order)

    def test_zero_terms_below_the_pole(self):
        spec = HypergeomSpec.make([-1], [-3], 1, 1)
        s = pfq_series(spec, 3)
        assert s.coeffs[:2] == [BivarPoly.constant(1), BivarPoly.constant(Fraction(1, 3))]
        assert s.coeffs[2].is_zero() and s.coeffs[3].is_zero()

    @given(
        st.lists(params, max_size=3),
        st.lists(params.filter(lambda b: not (b.denominator == 1 and b <= 0)), max_size=3),
        st.fractions(min_value=-9, max_value=9, max_denominator=7),
        st.integers(1, 3), st.integers(0, 2), st.integers(0, 2), st.integers(0, 9),
    )
    @settings(max_examples=80, deadline=None)
    def test_matches_pochhammer_definition(self, upper, lower, z, lp, xp, yp, order):
        # term s is z^s prod (a)_s / (s! prod (b)_s), each Pochhammer symbol built afresh
        spec = HypergeomSpec.make(upper, lower, z, lp, xp, yp)
        expected = LambdaSeries.zero(order)
        for s in range(order // lp + 1):
            c = z**s / factorial(s)
            for a in upper:
                c *= pochhammer(a, s)
            for b in lower:
                c /= pochhammer(b, s)
            expected.coeffs[s * lp] = BivarPoly.monomial(c, s * xp, s * yp)
        assert pfq_series(spec, order) == expected

    def test_lambda_power_required(self):
        spec = HypergeomSpec.make([], [], 1, 0)
        with pytest.raises(DomainError):
            pfq_series(spec, 3)


class TestGmfc:
    def test_empty_products(self):
        assert gmfc_check(3, 0, Fraction(5, 4))

    def test_small_case(self):
        # n=2, x=1/2, s=1: both sides equal 2
        assert gmfc_check(2, 1, Fraction(1, 2))

    def test_factorial_splitting_40320(self):
        # (4(s+q))! = 4^(4q) (4s)! (s+q)!/q! prod_j (s+(j+1)/4)_q at s=q=1
        s = q = 1
        lhs = Fraction(factorial(4 * (s + q)))
        rhs = (
            Fraction(4) ** (4 * q)
            * factorial(4 * s)
            * factorial(s + q)
            / factorial(q)
        )
        for j in range(3):
            rhs *= pochhammer(s + Fraction(j + 1, 4), q)
        assert lhs == rhs == 40320

    def test_exhaustive_grid(self):
        xs = [Fraction(1, 4), Fraction(1, 3), Fraction(1, 2), Fraction(1), Fraction(5, 4)]
        for n in range(2, 7):
            for s in range(6):
                for x in xs:
                    assert gmfc_check(n, s, x), (n, s, x)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            gmfc_check(1, 1, Fraction(1, 2))
        with pytest.raises(DomainError):
            gmfc_check(2, 1, Fraction(-1, 2))
