"""Exact series substrate: examples, ring axioms, differentiation contract."""

from fractions import Fraction
from math import factorial, gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from identities import diff_x, evaluate, series_sum

from lacunary import (
    BivarPoly,
    LambdaSeries,
    SemiLinearOp,
    TruncationUnderflowError,
    shift,
)

rationals = st.fractions(
    min_value=-5, max_value=5, max_denominator=6
)


def small_polys():
    term = st.tuples(st.integers(0, 3), st.integers(0, 3))
    return st.dictionaries(term, rationals, max_size=4).map(BivarPoly)


def small_series(order=3):
    return st.lists(small_polys(), min_size=order + 1, max_size=order + 1).map(
        lambda cs: LambdaSeries(order, cs)
    )


def exp_series(scale, order):
    """Truncated exp(scale * lambda), exact."""
    return LambdaSeries(
        order,
        [BivarPoly.monomial(Fraction(scale) ** k / factorial(k), 0, 0) for k in range(order + 1)],
    )


class TestBivarPoly:
    def test_zero_terms_dropped(self):
        p = BivarPoly({(1, 0): Fraction(1), (0, 1): Fraction(0)})
        assert (0, 1) not in p.terms

    def test_lowest_terms(self):
        p = BivarPoly.monomial(Fraction(2, 4), 1, 0)
        c = p.terms.get((1, 0), 0)
        assert (c.numerator, c.denominator) == (1, 2)

    def test_string_and_json_roundtrip(self):
        p = BivarPoly({(2, 0): Fraction(1, 2), (0, 1): 3})
        assert BivarPoly.from_json(p.to_json()) == p
        assert str(p) == "1/2 * x^2 + 3 * y"

    @given(small_polys(), small_polys(), small_polys())
    @settings(max_examples=50)
    def test_ring_axioms(self, a, b, c):
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a * b == b * a

    @given(st.lists(st.tuples(small_polys(), small_polys()), max_size=5))
    @settings(max_examples=60)
    def test_dot_is_the_sum_of_products(self, pairs):
        # small_polys mixes denominators and draws the zero polynomial
        assert BivarPoly.dot(pairs) == sum((a * b for a, b in pairs), BivarPoly())

    def test_dot_cancels_exactly(self):
        x, half = BivarPoly.monomial(1, 1, 0), BivarPoly.monomial(Fraction(1, 2), 0, 0)
        zero = BivarPoly.dot([(x, half), (x * Fraction(-1, 3), half * 3)])
        assert zero == BivarPoly() and zero.den == 1
        assert BivarPoly.dot([]) == BivarPoly()

    def test_scalar_product_cancels_an_int_against_den(self):
        p = BivarPoly.monomial(Fraction(1, 6), 1, 0) * 4
        assert (p.num, p.den) == ({(1, 0): 2}, 3)
        # a scalar that the denominator absorbs leaves the numerators uncopied
        p = BivarPoly({(1, 0): Fraction(5, 12), (0, 1): Fraction(1, 12)})
        q = p * 3
        assert q.num is p.num and (q.num, q.den) == ({(1, 0): 5, (0, 1): 1}, 4)

    def test_scalar_product_cancels_a_denominator_against_the_numerators(self):
        p = BivarPoly({(1, 0): 4, (0, 1): 6}) * Fraction(1, 2)
        assert (p.num, p.den) == ({(1, 0): 2, (0, 1): 3}, 1)

    def test_scalar_product_cancels_both_ways(self):
        p = BivarPoly.monomial(Fraction(3, 4), 1, 0) * Fraction(2, 9)
        assert (p.num, p.den) == ({(1, 0): 1}, 6)

    def test_negative_scalars_keep_den_positive(self):
        p = BivarPoly({(1, 0): Fraction(3, 4), (0, 1): Fraction(1, 6)})
        for c in (-1, -6, Fraction(-2, 9), Fraction(-12, 5)):
            q = p * c
            assert q.den > 0 and gcd(q.den, *q.num.values()) == 1
            assert q.terms == {k: v * c for k, v in p.terms.items()}
        assert (-p).den == p.den and -(-p) == p

    def test_zero_times_a_fraction_is_zero_over_one(self):
        for c in (Fraction(1, 7), Fraction(-3, 7), 5):
            z = BivarPoly() * c
            assert z == BivarPoly() and (z.num, z.den) == ({}, 1)

    def test_a_sum_that_cancels_is_zero_over_one(self):
        p = BivarPoly({(1, 0): Fraction(3, 4), (0, 1): Fraction(1, 6)})
        z = p + (-p)
        assert z == BivarPoly() and (z.num, z.den) == ({}, 1)

    def test_operands_are_polynomials_only(self):
        # + - and == take two polynomials; only * also scales by an int or a Fraction
        p = BivarPoly.monomial(1, 1, 0)
        for op in (lambda: p + 1, lambda: 1 + p, lambda: p - 1, lambda: 1 - p,
                   lambda: p + Fraction(1, 2), lambda: hash(p)):
            with pytest.raises(TypeError):
                op()
        assert (p == 1) is False and (BivarPoly() == 0) is False
        assert "__radd__" in BivarPoly.__dict__  # bench/tracer.py patches it by name

    def test_floats_refused(self):
        # a float is not exact: the constructors refuse it, as the ring operators do
        for build in (lambda: BivarPoly({(0, 0): 0.1}), lambda: BivarPoly.monomial(0.1, 1, 0),
                      lambda: LambdaSeries(1, [0.1, 1])):
            with pytest.raises(TypeError):
                build()

    @given(small_polys(), small_polys(), rationals, rationals)
    @settings(max_examples=50)
    def test_evaluation_is_a_homomorphism(self, a, b, xv, yv):
        assert evaluate(a + b, xv, yv) == evaluate(a, xv, yv) + evaluate(b, xv, yv)
        assert evaluate(a * b, xv, yv) == evaluate(a, xv, yv) * evaluate(b, xv, yv)


class TestCollect:
    def test_merges_buckets_and_drops_zero_sums(self):
        s = LambdaSeries.collect([
            {},
            {2: {(1, 0): 1}, 3: {(1, 0): 1}},     # same key over two dens: summed
            {1: {(0, 1): 0, (2, 2): 4}},          # a zero sum vanishes
        ])
        assert s.order == 2
        assert s.coeffs[0].is_zero()
        assert s.coeffs[1].terms == {(1, 0): Fraction(5, 6)}
        assert s.coeffs[2].terms == {(2, 2): Fraction(4)}
        assert isinstance(s.coeffs[2].terms.get((2, 2), 0), Fraction)

    def test_a_bucket_whose_terms_all_cancel_is_zero_over_one(self):
        s = LambdaSeries.collect([{4: {(1, 0): 3, (0, 2): -1}, 8: {(1, 0): -6, (0, 2): 2}},
                                  {6: {(1, 1): 5, (2, 0): -5}}])
        assert (s.coeffs[0].num, s.coeffs[0].den) == ({}, 1)
        assert (s.coeffs[1].num, s.coeffs[1].den) == ({(1, 1): 5, (2, 0): -5}, 6)

    def test_the_callers_buckets_are_left_unchanged(self):
        sums = [{6: {(1, 0): 4, (0, 1): 0}}, {6: {(1, 0): 4, (0, 1): 2}},
                {2: {(1, 0): 1}, 3: {(1, 0): 1}}]
        before = [{d: dict(acc) for d, acc in by_den.items()} for by_den in sums]
        s = LambdaSeries.collect(sums)
        assert sums == before
        assert [c.terms for c in s.coeffs] == [{(1, 0): Fraction(2, 3)},
                                               {(1, 0): Fraction(2, 3), (0, 1): Fraction(1, 3)},
                                               {(1, 0): Fraction(5, 6)}]

    def test_a_den_that_is_not_positive_is_refused(self):
        # a lone bucket, and one of several
        for den in (0, -2):
            for sums in ([{den: {(0, 0): 1}}],
                         [{1: {(0, 0): 1}}, {3: {(1, 0): 1}, den: {(0, 1): 1}}]):
                with pytest.raises(ValueError, match="bucket denominators must be positive"):
                    LambdaSeries.collect(sums)

    def test_order_is_one_less_than_the_buckets(self):
        assert LambdaSeries.collect([{}]) == LambdaSeries(0)
        assert LambdaSeries.collect([{5: {(0, 0): 10}}, {}]) == LambdaSeries(1, [2, 0])


term_dicts = st.dictionaries(
    st.tuples(st.integers(0, 3), st.integers(0, 3)),
    st.fractions(min_value=-5, max_value=5, max_denominator=12), max_size=5,
)


def reference(d: dict) -> dict:
    """A plain {(xp, yp): Fraction} polynomial with its zero coefficients dropped."""
    return {k: Fraction(c) for k, c in d.items() if c != 0}


def ref_add(a: dict, b: dict) -> dict:
    out = dict(a)
    for k, c in b.items():
        out[k] = out.get(k, 0) + c
    return reference(out)


def ref_mul(a: dict, b: dict) -> dict:
    out = {}
    for (ax, ay), ac in a.items():
        for (bx, by), bc in b.items():
            k = (ax + bx, ay + by)
            out[k] = out.get(k, 0) + ac * bc
    return reference(out)


def ref_diff_x(a: dict, times: int) -> dict:
    for _ in range(times):
        a = reference({(xp - 1, yp): c * xp for (xp, yp), c in a.items() if xp})
    return a


def assert_is(p: BivarPoly, ref: dict):
    """p is in canonical form and equals the plain reference."""
    assert type(p.den) is int and p.den > 0
    assert all(type(v) is int and v != 0 for v in p.num.values())
    assert gcd(p.den, *p.num.values()) == 1
    assert dict(p.terms) == ref
    assert p == BivarPoly(ref)


class TestLayout:
    """Integer numerators over one denominator, against plain Fraction dicts."""

    @given(term_dicts, term_dicts, rationals, st.integers(0, 4))
    @settings(max_examples=100)
    def test_operations_stay_canonical(self, a, b, c, times):
        pa, pb, ra, rb = BivarPoly(a), BivarPoly(b), reference(a), reference(b)
        assert_is(pa, ra)
        assert_is(pa + pb, ref_add(ra, rb))
        assert_is(pa - pb, ref_add(ra, {k: -v for k, v in rb.items()}))
        assert_is(-pa, {k: -v for k, v in ra.items()})
        assert_is(pa * pb, ref_mul(ra, rb))
        assert_is(pa * c, reference({k: v * c for k, v in ra.items()}))
        assert_is(pa * c.numerator, reference({k: v * c.numerator for k, v in ra.items()}))
        assert_is(pa + BivarPoly.monomial(c, 0, 0), ref_add(ra, {(0, 0): c}))
        assert_is(diff_x(pa, times), ref_diff_x(ra, times))
        # q df/dx + v f, with df/dx summed over f's den in the one dot
        assert_is(SemiLinearOp(q=pb, v=pa).apply(pa),
                  ref_add(ref_mul(rb, ref_diff_x(ra, 1)), ref_mul(ra, ra)))

    @given(st.lists(st.dictionaries(
        st.sampled_from([1, 2, 3, 4, 6, 9, 12]),
        st.dictionaries(st.tuples(st.integers(0, 2), st.integers(0, 2)), st.integers(-6, 6)),
    ), min_size=1, max_size=3))
    @settings(max_examples=100)
    def test_collect_over_mixed_denominators(self, sums):
        s = LambdaSeries.collect(sums)
        assert s.order == len(sums) - 1
        for c, by_den in zip(s.coeffs, sums):
            ref = {}
            for den, acc in by_den.items():
                for k, num in acc.items():
                    ref[k] = ref.get(k, 0) + Fraction(num, den)
            assert_is(c, reference(ref))

    @given(term_dicts)
    @settings(max_examples=50)
    def test_output_reads_as_before(self, d):
        p, ref = BivarPoly(d), reference(d)
        ordered = sorted(ref.items(), key=lambda kv: (-kv[0][0], kv[0][1]))
        assert p.to_json() == [{"xp": xp, "yp": yp, "num": str(c.numerator),
                                "den": str(c.denominator)} for (xp, yp), c in ordered]
        parts = [" * ".join([str(c)] + ([f"x^{xp}" if xp != 1 else "x"] if xp else [])
                            + ([f"y^{yp}" if yp != 1 else "y"] if yp else []))
                 for (xp, yp), c in ordered]
        assert str(p) == (" + ".join(parts) if parts else "0")
        for xp in range(4):
            for yp in range(4):
                c = p.terms.get((xp, yp), Fraction(0))
                assert type(c) is Fraction and c == ref.get((xp, yp), 0)

    def test_terms_is_a_read_only_view(self):
        # terms is a fresh dict: writing to it leaves the polynomial as it was
        p = BivarPoly({(1, 0): Fraction(1, 2), (0, 1): Fraction(2, 3)})
        assert (p.num, p.den) == ({(1, 0): 3, (0, 1): 4}, 6)
        view = p.terms
        view[(0, 0)] = Fraction(1)
        view[(1, 0)] = Fraction(7)
        assert (p.num, p.den) == ({(1, 0): 3, (0, 1): 4}, 6)
        assert p.terms == {(1, 0): Fraction(1, 2), (0, 1): Fraction(2, 3)}


class TestSeriesMul:
    def test_multiplicative_identity(self):
        b = exp_series(3, 4)
        assert LambdaSeries(4, [1] + [0] * 4) * b == b

    def test_exponential_product(self):
        # exp(lambda) * exp(lambda) = exp(2 lambda), checked term by term
        a = exp_series(1, 4)
        assert a * a == exp_series(2, 4)

    def test_difference_of_squares(self):
        one_plus = LambdaSeries(2, [1, 1, 0])
        one_minus = LambdaSeries(2, [1, -1, 0])
        assert one_plus * one_minus == LambdaSeries(2, [1, 0, -1])

    @given(small_series(), small_series(), small_series())
    @settings(max_examples=25)
    def test_ring_axioms(self, a, b, c):
        assert (a * b) * c == a * (b * c)
        assert a * series_sum(b, c) == series_sum(a * b, a * c)


class TestDiffLambda:
    def test_identity_at_zero(self):
        a = exp_series(1, 3)
        assert shift(a, 0) == a

    def test_power_rule(self):
        a = LambdaSeries(3, [0, 0, 0, 1])
        d = shift(a, 2)
        assert d.order == 1
        assert d.coeffs[1] == BivarPoly.monomial(6, 0, 0)
        assert d.coeffs[0].is_zero()

    def test_underflow_error(self):
        with pytest.raises(TruncationUnderflowError):
            shift(LambdaSeries(2), 3)

    @given(small_series(order=4), st.integers(0, 4))
    @settings(max_examples=40)
    def test_coefficient_contract(self, a, times):
        # n! [lambda^n] of the derivative equals (n+times)! [lambda^(n+times)] of a
        d = shift(a, times)
        for n in range(a.order - times + 1):
            assert d.coeffs[n] * factorial(n) == a.coeffs[n + times] * factorial(n + times)

    def test_egf_derivative_recovers_first_hermite(self):
        from lacunary import hermite_egf

        d = shift(hermite_egf(5), 1)
        assert d.coeffs[0] == BivarPoly.monomial(1, 1, 0)


def test_series_json_roundtrip():
    from lacunary import hermite_egf

    s = hermite_egf(4)
    assert LambdaSeries.from_json(s.to_json()) == s

