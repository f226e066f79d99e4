"""Dilatation, shift, and the resummed summand families vs the brute-force oracle."""

import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from identities import series_sum

from lacunary import (
    BivarPoly,
    CoeffTable,
    LambdaSeries,
    TruncationUnderflowError,
    dilate_bruteforce,
    fact,
    hermite_coeff_table,
    hermite_egf,
    hermite_poly,
    lemma1_branches,
    parity_split_branches,
    random_dense_table,
    resum_corollary1,
    resum_lemma1,
    shift,
)


# coefficients of the cancelling tables: dens 1, 2, 3, 4 and 6, both signs
CANCELLING_VALUES = [Fraction(s * a, b) for s in (1, -1) for a in (1, 5) for b in (1, 2, 3, 4, 6)]


def term_by_term_egf(table, order: int) -> LambdaSeries:
    """The EGF sum_r x^r sum_m lambda^(r+m)/(r+m)! g_{r,m}(y), summed term by term."""
    coeffs = [BivarPoly() for _ in range(order + 1)]
    for r in range(order + 1):
        for m in range(order + 1 - r):
            coeffs[r + m] += BivarPoly.monomial(Fraction(1, fact(r + m)), r, 0) * table(r, m)
    return LambdaSeries(order, coeffs)


class TestDilate:
    def test_k1_is_identity(self):
        s = hermite_egf(5)
        assert dilate_bruteforce(s, 1) == s

    def test_non_multiple_power_killed(self):
        s = LambdaSeries(3, [0, 0, 0, 1])
        assert dilate_bruteforce(s, 2) == LambdaSeries(1)

    def test_k3_reads_off_h3(self):
        d = dilate_bruteforce(hermite_egf(9), 3)
        assert d.coeffs[1] * fact(1) == hermite_poly(3)

    def test_output_order_is_floor(self):
        assert dilate_bruteforce(hermite_egf(7), 2).order == 3


class TestShift:
    def test_l0_is_identity(self):
        s = hermite_egf(4)
        assert shift(s, 0) == s

    def test_shift_reads_off_h2(self):
        assert shift(hermite_egf(6), 2).coeffs[0] == hermite_poly(2) * 1

    def test_shift_then_dilate(self):
        # the defining composition: dilate the shifted EGF
        s = dilate_bruteforce(shift(hermite_egf(7), 1), 2)
        assert s.coeffs[1] * fact(1) == hermite_poly(3)

    def test_underflow(self):
        with pytest.raises(TruncationUnderflowError):
            shift(hermite_egf(2), 3)


class TestResummation:
    def test_k1_recovers_egf(self):
        table = hermite_coeff_table()
        for order in (5, 12, 20):
            assert resum_lemma1(table, 1, order) == hermite_egf(order)

    def test_oracle_equivalence(self):
        table = hermite_coeff_table()
        for K in range(1, 9):
            resummed = resum_lemma1(table, K, 6)
            oracle = dilate_bruteforce(hermite_egf(6 * K), K)
            assert resummed == oracle, K

    def test_k5_coefficient_is_h10(self):
        table = hermite_coeff_table()
        s = resum_lemma1(table, 5, 3)
        assert s.coeffs[2] * fact(2) == hermite_poly(10)

    @given(st.randoms(use_true_random=False), st.integers(1, 6), st.integers(0, 5))
    @settings(max_examples=60, deadline=None)
    def test_random_table_against_bruteforce(self, rng, K, n):
        # entries of 0-3 terms c * y^(0..2), c over 1..12, some of them all zero,
        # up to the largest r + m that resum_lemma1 reads at order n
        top = K * (n + 1) - 1
        entries = {(r, m): BivarPoly({(0, rng.randint(0, 2)): Fraction(rng.randint(-5, 5),
                                                                       rng.randint(1, 12))
                                      for _ in range(rng.randint(0, 3))})
                   for r in range(top + 1) for m in range(top + 1 - r)}
        table = CoeffTable(generator=lambda r, m: entries[r, m], name="random")
        assert resum_lemma1(table, K, n) == dilate_bruteforce(term_by_term_egf(table, K * n), K)

    @given(st.integers(1, 3), st.integers(0, 3), st.dictionaries(
        st.tuples(st.integers(0, 11), st.integers(0, 11)),
        st.tuples(st.dictionaries(st.tuples(st.integers(0, 2), st.integers(0, 1)),
                                  st.sampled_from(CANCELLING_VALUES), min_size=1, max_size=2),
                  st.booleans()),
        max_size=40))
    @example(K=2, n=1, entries={  # dens 4, 2, then 3 at lambda^1, where the x^2 y terms cancel
        (0, 2): ({(2, 1): Fraction(-3, 4)}, False), (2, 0): ({(0, 1): Fraction(1, 2)}, False),
        (1, 1): ({(1, 1): Fraction(1, 4), (0, 1): Fraction(1, 3)}, False)})
    @settings(max_examples=150, deadline=None)
    def test_cancelling_table_against_bruteforce(self, K, n, entries):
        # entries c x^xp y^yp with dens 1..6; a mirrored one also puts -c x^(xp+1) y^yp at
        # (r-1, m+1), the same monomial at the same lambda-power, so the two cancel there
        terms = {}

        def put(at, key, c):
            slot = terms.setdefault(at, {})
            slot[key] = slot.get(key, 0) + c

        for (r, m), (poly, mirrored) in entries.items():
            for (xp, yp), c in poly.items():
                put((r, m), (xp, yp), c)
                if mirrored and r:
                    put((r - 1, m + 1), (xp + 1, yp), -c)
        polys = {at: BivarPoly(t) for at, t in terms.items()}
        table = CoeffTable(generator=lambda r, m: polys.get((r, m), BivarPoly()), name="cancel")
        want = dilate_bruteforce(term_by_term_egf(table, K * n), K)
        assert resum_lemma1(table, K, n) == want
        assert series_sum(*resum_corollary1(table, K, n)) == want

    def test_parity_split_on_hermite_table(self):
        table = hermite_coeff_table()
        for K in range(1, 9):
            even, odd = resum_corollary1(table, K, 5)
            assert odd == LambdaSeries(5), K
            assert even == resum_lemma1(table, K, 5), K

    @pytest.mark.parametrize("K, r0, m0", [(1, 0, 1), (2, 1, 1), (3, 2, 7), (4, 1, 3),
                                           (5, 4, 11)])
    def test_odd_part_reads_the_table(self, K, r0, m0):
        # the Hermite table plus one planted odd-m entry: the odd part is that entry
        # alone, at lambda^((r0 + m0) / K), so the odd families are read, not skipped
        hermite, planted = hermite_coeff_table(), BivarPoly.monomial(Fraction(-5, 7), 0, 3)
        table = CoeffTable(generator=lambda r, m: planted if (r, m) == (r0, m0)
                           else hermite(r, m), name="planted")
        order, p = 6, (r0 + m0) // K
        even, odd = resum_corollary1(table, K, order)
        want = LambdaSeries(order)
        want.coeffs[p] = BivarPoly.monomial(Fraction(-5, 7 * fact(p)), r0, 3)
        assert odd == want
        assert even == resum_corollary1(hermite, K, order)[0]

    def test_parity_split_on_dense_table(self):
        table = random_dense_table(seed=42)
        for K in range(1, 9):
            even, odd = resum_corollary1(table, K, 5)
            assert series_sum(even, odd) == resum_lemma1(table, K, 5), K

    def test_branch_parities_are_pure(self):
        for K in range(1, 9):
            even_br, odd_br = parity_split_branches(K)
            assert all(b.m_step % 2 == 0 and b.m_offset % 2 == 0 for b in even_br)
            assert all(b.m_step % 2 == 0 and b.m_offset % 2 == 1 for b in odd_br)

    def test_k4_even_branch_structure(self):
        # the two even families: r = 4s with m = 4q, and r = 4s+2 with m = 4q+2
        even_br, _ = parity_split_branches(4)
        assert [(b.x_offset, b.m_step, b.m_offset) for b in even_br] == [
            (0, 4, 0),
            (2, 4, 2),
        ]

    def test_parity_split_pinned(self):
        # even families in order, odd families as sets
        pinned = {
            1: ([(0, 2, 0)], [(0, 2, 1)]),
            2: ([(0, 2, 0)], [(1, 2, 1)]),
            3: ([(0, 6, 0), (1, 6, 2), (2, 6, 4)], [(0, 6, 3), (2, 6, 1), (1, 6, 5)]),
            4: ([(0, 4, 0), (2, 4, 2)], [(3, 4, 1), (1, 4, 3)]),
            5: ([(0, 10, 0), (3, 10, 2), (1, 10, 4), (4, 10, 6), (2, 10, 8)],
                [(0, 10, 5), (4, 10, 1), (2, 10, 3), (3, 10, 7), (1, 10, 9)]),
        }
        for K, (even, odd) in pinned.items():
            even_br, odd_br = parity_split_branches(K)
            assert [(b.x_offset, b.m_step, b.m_offset) for b in even_br] == even, K
            assert len(odd_br) == len(odd), K
            assert {(b.x_offset, b.m_step, b.m_offset) for b in odd_br} == set(odd), K

    def test_k_below_one_rejected(self):
        table = hermite_coeff_table()
        for build in (lambda: lemma1_branches(0), lambda: lemma1_branches(-1),
                      lambda: resum_lemma1(table, 0, 3), lambda: parity_split_branches(0)):
            with pytest.raises(ValueError):
                build()


class TestComposition:
    def test_defining_property(self):
        # n! [lambda^n] of dilate(shift(EGF)) equals H_(nK+L) for nK+L <= 40
        for K, L in ((2, 1), (3, 2), (5, 0), (7, 3)):
            n_top = (40 - L) // K
            base = hermite_egf(n_top * K + L)
            composed = dilate_bruteforce(shift(base, L), K)
            for n in range(n_top + 1):
                assert composed.coeffs[n] * fact(n) == hermite_poly(n * K + L)

    def test_reversed_order_gives_different_family(self):
        # shift after dilate yields H_((n+L)K) instead of H_(nK+L)
        K, L = 2, 1
        reversed_op = shift(dilate_bruteforce(hermite_egf(12), K), L)
        for n in range(4):
            assert reversed_op.coeffs[n] * fact(n) == hermite_poly((n + L) * K)
        correct = dilate_bruteforce(shift(hermite_egf(13), L), K)
        assert correct.coeffs[1] * fact(1) == hermite_poly(K + L)
        assert reversed_op.coeffs[1] != correct.coeffs[1]
