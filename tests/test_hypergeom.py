"""Pochhammer symbols, the pFq blocks that the tests sum the closed form from, and the
multiplication formula."""

from fractions import Fraction
from math import factorial, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from identities import gmfc_check, pfq_series, pochhammer

from lacunary import PoleError, closed_form_plan

params = st.fractions(min_value=-4, max_value=4, max_denominator=6)
lower_params = params.filter(lambda b: not (b.denominator == 1 and b <= 0))


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


def layout(upper, lower):
    """The parameters as integer numerators over the lcm of their denominators."""
    upper, lower = [Fraction(a) for a in upper], [Fraction(b) for b in lower]
    den = lcm(*(f.denominator for f in upper + lower))
    return [int(a * den) for a in upper], [int(b * den) for b in lower], den


def reference_terms(upper, lower, z, count):
    """Each term from the one before by the term ratio z prod (a+s) / ((s+1) prod (b+s)),
    in Fractions: the recurrence, not the Pochhammer symbols that pfq_series builds."""
    expected, c = [], Fraction(1)
    for s in range(count):
        expected.append((c.numerator, c.denominator))
        c *= Fraction(z, s + 1)
        for a in upper:
            c *= a + s
        for b in lower:
            c /= b + s
    return expected


class TestPfqSeries:
    def test_0f0_is_exponential(self):
        assert pfq_series([], [], 1, 1, 6) == [(1, factorial(k)) for k in range(6)]

    def test_2f1_geometric(self):
        # parameters cancel pairwise, leaving sum z^s
        assert pfq_series(*layout([1, 1], [1]), 1, 5) == [(1, 1)] * 5

    def test_3f1_first_term(self):
        # s=1 term of 3F1[1/4,1/2,3/4; 1/2](64) is 12; the caller places lambda y^2
        block = pfq_series(*layout([Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)],
                                   [Fraction(1, 2)]), 64, 2)
        assert block[1] == (12, 1)

    def test_termwise_ratio(self):
        upper, lower, z = [Fraction(1, 3), Fraction(5, 2)], [Fraction(7, 4)], 3
        block = [Fraction(n, d) for n, d in pfq_series(*layout(upper, lower), z, 7)]
        for s in range(6):
            ratio = Fraction(z)
            for a in upper:
                ratio *= a + s
            for b in lower:
                ratio /= b + s
            ratio /= s + 1
            assert block[s + 1] == block[s] * ratio

    def test_pole_detection(self):
        with pytest.raises(PoleError):
            pfq_series([1], [-2], 1, 1, 6)
        # truncation below the pole stays fine
        assert pfq_series([1], [-2], 1, 1, 3)[0] == (1, 1)

    def test_pole_given_non_reduced(self):
        # -4 over 2 is the pole -2, reached at term 3
        with pytest.raises(PoleError):
            pfq_series([], [-4], 2, 1, 4)
        assert pfq_series([], [-4], 2, 1, 3) == [(1, 1), (-1, 2), (1, 4)]

    def test_pole_after_zero_terms(self):
        # (-1)_s = 0 from s = 2 on, but the lower -3 still poles at s = 4
        for order in (4, 7):
            with pytest.raises(PoleError):
                pfq_series([-1], [-3], 1, 1, order + 1)

    def test_zero_terms_below_the_pole(self):
        # 1 + z/3 at order 3
        assert pfq_series([-1], [-3], 1, 1, 4) == [(1, 1), (1, 3), (0, 1), (0, 1)]

    @given(
        st.lists(params, max_size=3),
        st.lists(lower_params, max_size=3),
        st.integers(-9, 9),
        st.integers(0, 10),
    )
    @settings(max_examples=80, deadline=None)
    def test_matches_pochhammer_definition(self, upper, lower, z, count):
        assert pfq_series(*layout(upper, lower), z, count) == reference_terms(
            upper, lower, z, count)

    @given(
        st.lists(params, max_size=3),
        st.lists(lower_params, max_size=3),
        st.integers(-9, 9),
        st.integers(0, 10),
        st.sampled_from([2, 3]),
    )
    @settings(max_examples=40, deadline=None)
    def test_non_reduced_numerators_give_the_same_terms(self, upper, lower, z, count, c):
        upper, lower, den = layout(upper, lower)
        assert pfq_series([c * a for a in upper], [c * b for b in lower], c * den, z,
                          count) == pfq_series(upper, lower, den, z, count)

    def test_widest_blocks_match_pochhammer_definition(self):
        # every block the closed forms run for K <= 12, up to 20 upper and 10 lower
        # parameters, on the plan's own numbers
        for K in range(1, 13):
            plan = closed_form_plan(K)
            den, coef = plan.den, plan.arg[0]
            for d, _, lower in plan.branches:
                for p0 in range(d, d + 4):
                    upper = [K * p0 + j for j in plan.upper]
                    expected = reference_terms([Fraction(a, den) for a in upper],
                                               [Fraction(b, den) for b in lower], coef, 8)
                    assert pfq_series(upper, lower, den, coef, 8) == expected, (K, d, p0)


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
        with pytest.raises(ValueError):
            gmfc_check(1, 1, Fraction(1, 2))
        with pytest.raises(ValueError):
            gmfc_check(2, 1, Fraction(-1, 2))
