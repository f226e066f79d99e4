"""Normal-ordering IVP, operator exponentials, and the Crofton identity."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from identities import crofton_check, normal_order_by_definition

from lacunary import (
    BivarPoly,
    LambdaSeries,
    SemiLinearOp,
    apply_exp_op,
    compose,
    fact,
    hermite_egf,
    hermite_poly,
    normal_order,
)

X = BivarPoly.monomial(1, 1, 0)
TWO_Y = BivarPoly.monomial(2, 0, 1)


def random_x_poly(rng, max_deg=4):
    terms = {}
    for _ in range(rng.randint(1, 3)):
        terms[(rng.randint(0, max_deg), 0)] = Fraction(
            rng.randint(-5, 5), rng.randint(1, 3)
        )
    return BivarPoly(terms)


class TestNormalOrder:
    def test_identity_operator(self):
        nr = normal_order(SemiLinearOp(q=BivarPoly(), v=BivarPoly()), 4)
        assert nr.T_series == LambdaSeries(4, [X, 0, 0, 0, 0])
        assert nr.g_series == LambdaSeries(4, [1] + [0] * 4)

    def test_hermite_operator(self):
        # q = 2y, v = x: T = x + 2 mu y and g = exp(mu x + mu^2 y)
        nr = normal_order(SemiLinearOp(q=TWO_Y, v=X), 14)
        expected_T = LambdaSeries(14, [X, TWO_Y] + [BivarPoly()] * 13)
        assert nr.T_series == expected_T
        assert nr.g_series == hermite_egf(14)

    def test_scaling_operator(self):
        # q = x, v = 0: T = x exp(mu)
        nr = normal_order(SemiLinearOp(q=X, v=BivarPoly()), 6)
        for k in range(7):
            assert nr.T_series.coeffs[k] == X * Fraction(1, fact(k))
        assert nr.g_series == LambdaSeries(6, [1] + [0] * 6)

    def test_initial_conditions(self):
        rng = random.Random(3)
        for _ in range(5):
            op = SemiLinearOp(q=random_x_poly(rng), v=random_x_poly(rng))
            nr = normal_order(op, 4)
            assert nr.T_series.coeffs[0] == X
            assert nr.g_series.coeffs[0] == BivarPoly.monomial(1, 0, 0)

    def test_flow_group_property(self):
        # T(mu1 + mu2; x) = T(mu2; T(mu1; x)) as truncated two-parameter series;
        # checked by composing in one variable at a time via the exponential
        # rescaling trick: the flow of q=x is exact so compose directly.
        for op in (SemiLinearOp(q=TWO_Y, v=X), SemiLinearOp(q=X, v=BivarPoly())):
            order = 5
            nr = normal_order(op, order)
            # evaluate T(mu; T(mu; x)) against T(2mu; x): same one-parameter flow
            twice = compose_series(nr.T_series, nr.T_series)
            doubled = LambdaSeries(
                order, [c * Fraction(2) ** k for k, c in enumerate(nr.T_series.coeffs)]
            )
            assert twice == doubled


# q and v of x-degree <= 3 with y-terms: {(xp, yp): num/den}
polys = st.dictionaries(
    st.tuples(st.integers(0, 3), st.integers(0, 2)),
    st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3)),
    max_size=4,
).map(BivarPoly)


class TestSolverOracle:
    @given(polys, polys, st.integers(0, 8))
    @settings(max_examples=80, deadline=None)
    def test_matches_the_definition(self, q, v, order):
        op = SemiLinearOp(q=q, v=v)
        nr = normal_order(op, order)
        assert (nr.T_series, nr.g_series) == normal_order_by_definition(op, order)

    @given(polys, polys, st.integers(0, 8))
    @settings(max_examples=80, deadline=None)
    def test_solves_the_ivp(self, q, v, order):
        # (k+1) T_(k+1) = [mu^k] q(T) and (k+1) g_(k+1) = [mu^k] v(T) g, with T_0 = x, g_0 = 1
        nr = normal_order(SemiLinearOp(q=q, v=v), order)
        T, g = nr.T_series, nr.g_series
        qT, vTg = compose(q, T), compose(v, T) * g
        assert T.coeffs[0] == X and g.coeffs[0] == BivarPoly.monomial(1, 0, 0)
        for k in range(order):
            assert T.coeffs[k + 1] * (k + 1) == qT.coeffs[k], k
            assert g.coeffs[k + 1] * (k + 1) == vTg.coeffs[k], k


def compose_series(outer: LambdaSeries, inner: LambdaSeries) -> LambdaSeries:
    """Substitute mu-series `inner` for x inside each coefficient of `outer`,
    re-expanding in the shared mu variable."""
    order = min(outer.order, inner.order)
    out = LambdaSeries(order)
    for k, poly in enumerate(outer.coeffs[: order + 1]):
        sub = compose(poly, LambdaSeries(order - k, inner.coeffs[: order - k + 1]))
        for j, c in enumerate(sub.coeffs):
            out.coeffs[k + j] = out.coeffs[k + j] + c
    return out


class TestApplyExpOp:
    def test_constant_input(self):
        op = SemiLinearOp(q=TWO_Y, v=X)
        result = apply_exp_op(op, 4, BivarPoly.monomial(3, 0, 0))
        nr = normal_order(op, 4)
        assert result == nr.g_series * 3

    def test_hermite_ladder(self):
        # q = 2y, v = x on f = x: coefficients k! times are H_(k+1)
        op = SemiLinearOp(q=TWO_Y, v=X)
        result = apply_exp_op(op, 2, X)
        assert result.coeffs[0] == X
        assert result.coeffs[1] == hermite_poly(2)
        assert result.coeffs[2] * fact(2) == hermite_poly(3)

    def test_pure_multiplication(self):
        # q = 0, v = x on f = 1 gives exp(mu x)
        op = SemiLinearOp(q=BivarPoly(), v=X)
        result = apply_exp_op(op, 5, BivarPoly.monomial(1, 0, 0))
        for k in range(6):
            assert result.coeffs[k] == BivarPoly.monomial(Fraction(1, fact(k)), k, 0)

    def test_dual_route_corpus(self):
        # the dual-route comparison inside apply_exp_op is the assertion
        rng = random.Random(11)
        op = SemiLinearOp(q=TWO_Y, v=X)
        for f in (BivarPoly.monomial(1, 0, 0), X, X * X, X * X * X):
            apply_exp_op(op, 6, f)
        for _ in range(10):
            op = SemiLinearOp(q=random_x_poly(rng, 2), v=random_x_poly(rng, 2))
            apply_exp_op(op, 4, random_x_poly(rng, 3))


class TestCrofton:
    def test_f_constant(self):
        assert crofton_check(2, 1, BivarPoly.monomial(5, 0, 0), X * X * X, 4)

    def test_linear_case(self):
        assert crofton_check(2, 1, X, X, 2)

    def test_small_polynomials(self):
        assert crofton_check(2, 1, X * X, X * X * X, 3)

    def test_random_pairs(self):
        rng = random.Random(19)
        for m in (1, 2, 3):
            for _ in range(8):
                f, g = random_x_poly(rng), random_x_poly(rng)
                assert crofton_check(m, Fraction(rng.randint(1, 3)), f, g, 4), (m, f, g)

    def test_invalid_m(self):
        with pytest.raises(ValueError):
            crofton_check(0, 1, X, X, 2)
