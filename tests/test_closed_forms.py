"""Closed-form generating functions vs the brute-force Hermite oracle."""

import ast
import copy
import hashlib
import itertools
import json
from dataclasses import is_dataclass
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from identities import closed_form_from_blocks, diff_x, evaluate, series_sum

from lacunary import (
    BivarPoly,
    LambdaSeries,
    PoleError,
    closed_form_HKL,
    closed_form_plan,
    dilate_bruteforce,
    fact,
    hermite_coeff_table,
    hermite_egf,
    hermite_poly,
    parity_split_branches,
    resum_corollary1,
    resum_lemma1,
    rk_series,
    shift,
)
from lacunary import closed_forms, normal_ordering
from lacunary.normal_ordering import NormalOrderResult, RkSeries
from lacunary.verify import run_verification


class TestPlanStructure:
    def test_branch_counts(self):
        # even K = 2T: 1 + (T-1) branches; odd K = 2T+1: 1 + 2T branches
        for K in range(2, 11):
            plan = closed_form_plan(K)
            T = K // 2
            expected = T if K % 2 == 0 else 1 + 2 * T
            assert len(plan.branches) == expected, K
        # one branch per y-power b, at the lambda-shift ceil(2b/K)
        for K, shifts in ((5, [(0, 0), (1, 1), (1, 2), (2, 3), (2, 4)]),
                          (6, [(0, 0), (1, 1), (1, 2)]),
                          (7, [(0, 0), (1, 1), (1, 2), (1, 3), (2, 4), (2, 5), (2, 6)]),
                          (8, [(0, 0), (1, 1), (1, 2), (1, 3)])):
            plan = closed_form_plan(K)
            assert [(br.lambda_shift, br.y_power) for br in plan.branches] == shifts, K

    def test_branches_follow_even_families(self):
        # branch j with y-power b pairs with the even family j at m-offset 2b
        for K in range(2, 13):
            even, _ = parity_split_branches(K)
            assert [b.m_offset for b in even] == [
                2 * br.y_power for br in closed_form_plan(K).branches], K

    def test_pfq_shapes(self):
        # den and the upper constants are the plan's, once; each branch has its lower
        for K in range(2, 11):
            plan = closed_form_plan(K)
            den, n_upper, n_lower = (K, K - 1, K // 2 - 1) if K % 2 == 0 else (
                2 * K, 2 * K - 2, K - 1)
            assert plan.den == den and len(plan.upper) == n_upper, K
            assert [len(br.lower) for br in plan.branches] == [n_lower] * len(plan.branches)

    def test_k4_branches(self):
        plan = closed_form_plan(4)
        main, beta1 = plan.branches
        assert [Fraction(j, plan.den) for j in plan.upper] == [
            Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)]
        assert plan.arg == (64, 1, 2)
        assert main == (0, 0, (2,)) and beta1 == (1, 1, (6,))
        assert [Fraction(m, plan.den) for m in beta1.lower] == [Fraction(3, 2)]

    def test_plan_json_arg(self):
        arg = closed_form_plan(4).to_json()["branches"][0]["arg"]
        assert arg == {"coef": "64/1", "lp": 1, "xp": 0, "yp": 2}

    def test_plan_json_pinned(self):
        arg3 = {"coef": "432/1", "lp": 2, "xp": 0, "yp": 3}
        assert closed_form_plan(3).to_json() == {"K": 3, "branches": [
            {"lambda_shift": 0, "y_power": 0,
             "upper": ["1/2*s + 1/6", "1/2*s + 1/3", "1/2*s + 2/3", "1/2*s + 5/6"],
             "lower": ["1/3", "2/3"], "arg": arg3},
            {"lambda_shift": 1, "y_power": 1,
             "upper": ["1/2*s + 2/3", "1/2*s + 5/6", "1/2*s + 7/6", "1/2*s + 4/3"],
             "lower": ["2/3", "4/3"], "arg": arg3},
            {"lambda_shift": 2, "y_power": 2,
             "upper": ["1/2*s + 7/6", "1/2*s + 4/3", "1/2*s + 5/3", "1/2*s + 11/6"],
             "lower": ["4/3", "5/3"], "arg": arg3},
        ]}
        arg4 = {"coef": "64/1", "lp": 1, "xp": 0, "yp": 2}
        assert closed_form_plan(4).to_json() == {"K": 4, "branches": [
            {"lambda_shift": 0, "y_power": 0, "upper": ["s + 1/4", "s + 1/2", "s + 3/4"],
             "lower": ["1/2"], "arg": arg4},
            {"lambda_shift": 1, "y_power": 1, "upper": ["s + 5/4", "s + 3/2", "s + 7/4"],
             "lower": ["3/2"], "arg": arg4},
        ]}

    def test_k1_plan_pinned(self):
        # exp(lambda*x) 0F0(;;lambda^2*y): one branch with no pFq parameters
        assert closed_form_plan(1).to_json() == {"K": 1, "branches": [
            {"lambda_shift": 0, "y_power": 0, "upper": [], "lower": [],
             "arg": {"coef": "1/1", "lp": 2, "xp": 0, "yp": 1}},
        ]}

    def test_plan_refuses_k_below_one(self):
        for K in (0, -3):
            with pytest.raises(ValueError, match="K must be >= 1"):
                closed_form_plan(K)

    def test_k5_argument_monomial(self):
        plan = closed_form_plan(5)
        assert plan.arg == (2**8 * 5**5, 2, 5)
        # the upper parameters (K*p + j)/den step by p/2
        assert Fraction(5, plan.den) == Fraction(1, 2)

    def test_k3_shifted_first_branch_lower(self):
        # second branch of K=3 pairs with lower parameters {2/3, 4/3}
        plan = closed_form_plan(3)
        assert [Fraction(m, plan.den) for m in plan.branches[1].lower] == [
            Fraction(2, 3), Fraction(4, 3)]

    def test_no_pole_in_lower_lists(self):
        for K in range(1, 11):
            for br in closed_form_plan(K).branches:
                assert all(b > 0 for b in br.lower), K


def imported_modules(path: Path) -> list[str]:
    """The modules that the source file at path imports, anywhere in it, by its AST."""
    tree = ast.parse(path.read_text())
    return [getattr(node, "module", None) or alias.name for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom)) for alias in node.names]


def test_closed_forms_imports_nothing_from_operators():
    # the closed form stays independent of the brute force and the resummation it is
    # checked against
    sources = imported_modules(Path(closed_forms.__file__))
    assert not [m for m in sources if m.split(".")[-1] == "operators"], sources


def test_package_imports_no_typing_and_dataclasses_only_for_two_results():
    # the value types are named tuples and __slots__ classes, except RkSeries and
    # NormalOrderResult, which the benchmark self-test rebuilds with dataclasses.replace;
    # both live in normal_ordering, so no other module loads dataclasses.  The source
    # is read, not sys.modules, which site may have filled
    importers = {}
    for path in sorted(Path(closed_forms.__file__).parent.glob("*.py")):
        for m in imported_modules(path):
            importers.setdefault(m.split(".")[0], []).append(path.name)
    assert "typing" not in importers, importers["typing"]
    assert importers.get("dataclasses") == ["normal_ordering.py"]
    assert is_dataclass(RkSeries) and is_dataclass(NormalOrderResult)


class TestClosedFormHK0:
    def test_constant_term(self):
        assert closed_form_HKL(3, 0, 4).coeffs[0] == BivarPoly.monomial(1, 0, 0)

    def test_k1_is_the_egf(self):
        assert closed_form_HKL(1, 0, 6) == hermite_egf(6)

    def test_k3_second_coefficient_is_h6(self):
        s = closed_form_HKL(3, 0, 2)
        assert s.coeffs[2] * fact(2) == hermite_poly(6)

    def test_oracle_sweep(self):
        for K in range(2, 9):
            s = closed_form_HKL(K, 0, 4)
            for n in range(5):
                assert s.coeffs[n] * fact(n) == hermite_poly(n * K), (K, n)

    def test_matches_parity_split_resummation(self):
        table = hermite_coeff_table()
        for K in range(2, 9):
            even, _ = resum_corollary1(table, K, 4)
            assert closed_form_HKL(K, 0, 4) == even, K

    def test_y0_specialization(self):
        # at y=0 every pFq block collapses to 1: lambda^n coefficient x^(nK)/n!
        for K in (3, 4):
            s = closed_form_HKL(K, 0, 5)
            for n in range(6):
                y_free = {k: c for k, c in s.coeffs[n].terms.items() if k[1] == 0}
                assert y_free == {(n * K, 0): Fraction(1, fact(n))}, (K, n)


class TestClosedFormHKL:
    def test_constant_term_is_hl(self):
        for K in (2, 5):
            for L in (0, 1, 3):
                assert closed_form_HKL(K, L, 3).coeffs[0] == hermite_poly(L)

    def test_k4_l3_second_coefficient_is_h11(self):
        s = closed_form_HKL(4, 3, 2)
        assert s.coeffs[2] * fact(2) == hermite_poly(11)

    def test_k1_shifted(self):
        s = closed_form_HKL(1, 2, 4)
        for n in range(5):
            assert s.coeffs[n] * fact(n) == hermite_poly(n + 2)

    def test_oracle_sweep(self):
        # the grid, then wide-L points whose Leibniz parts stop at K*order - 2b < L
        points = [(K, L, 3) for K in range(2, 7) for L in range(4)]
        points += [(1, 40, 2), (2, 25, 3), (5, 30, 1), (12, 100, 1), (3, 7, 0)]
        for K, L, order in points:
            s = closed_form_HKL(K, L, order)
            for n in range(order + 1):
                assert s.coeffs[n] * fact(n) == hermite_poly(n * K + L), (K, L, n)


def raise_d(p: BivarPoly) -> BivarPoly:
    """D p for the Hermite raising operator D = x + 2y d/dx."""
    return BivarPoly.monomial(1, 1, 0) * p + BivarPoly.monomial(2, 0, 1) * diff_x(p, 1)


WRONG_K = [1, 2, 3, 5, 6, 9]
# sha256 of the closed forms at L = 1 and 3 and the rk_series of every wrong plan
WRONG_DIGEST = "286bf3ae82e71213e9c0388d45797eb0256bb0e6cae2301640e6b219b3331d7f"


def wrong_plans(K):
    """Six wrong plans for K: an added and a dropped upper parameter, a scaled argument,
    and lower parameters added, shifted up and shifted down (some below 0)."""
    plan = closed_form_plan(K)
    coef, lp, yp = plan.arg
    return [plan._replace(upper=plan.upper + (K + 1,)),
            plan._replace(upper=plan.upper[1:]),
            plan._replace(arg=(3 * coef + 1, lp, yp)),
            plan._replace(branches=tuple(br._replace(lower=br.lower + (2 * b + 3,))
                                         for b, br in enumerate(plan.branches))),
            plan._replace(branches=tuple(br._replace(lower=tuple(m + 1 for m in br.lower))
                                         for br in plan.branches)),
            plan._replace(branches=tuple(br._replace(lower=tuple(m - 3 for m in br.lower))
                                         for br in plan.branches))]


def k4_pole_plan():
    """K = 4 with branch 0's lower parameter -1 (-4 over den 4): a pole at term 2."""
    plan = closed_form_plan(4)
    return plan._replace(branches=(plan.branches[0]._replace(lower=(-4,)),) + plan.branches[1:])


class TestRows:
    def test_leibniz_prefactor_is_d_to_the_l_of_x_to_the_p(self):
        # D = x + 2y d/dx applied L times to x^P, for parts cut at every top from P to
        # P + L, below L where P < L; the list is c[j] at x^(P+L-2j) y^j, none of it 0
        for P in range(13):
            want = BivarPoly.monomial(1, P, 0)
            for L in range(9):
                if L:
                    want = raise_d(want)
                for top in range(P, P + L + 1):
                    parts = closed_forms._leibniz_parts(L, top)
                    c = closed_forms._leibniz_prefactor(P, parts)
                    assert all(v > 0 for v in c), (P, L, top)
                    assert BivarPoly({(P + L - 2 * j, j): v for j, v in enumerate(c)}) == want

    def test_block_term_that_does_not_divide_stays_exact(self, monkeypatch):
        # K = 2 with the lower parameter 7: term t of every block is 6!/(t+6)! of the
        # true one, so at L = 1 the lambda^1 coefficient is x^3 + (4 + 2/7) x y, where a
        # floored (2 // 7) would leave x^3 + 4 x y
        patch_k2_lower(monkeypatch, (14,))
        assert closed_form_HKL(2, 1, 1).coeffs == [
            BivarPoly({(1, 0): 1}),
            BivarPoly({(3, 0): 1, (1, 1): Fraction(30, 7)})]
        report = run_verification({2: 1}, l_min=1, l_max=1)
        failed = [c for c in report["cases"] if not c["pass"]]
        assert report["failed"] == 1 and all(c["check"] == "closed_form" for c in failed)
        assert failed[0]["diff_term"] == {"lp": 1, "xp": 1, "yp": 1, "num": "-12", "den": "7"}

    def test_plan_is_the_sum_of_its_pfq_blocks(self):
        # blocks of up to 9 terms, both classes of lambda-power for odd K
        for K in range(1, 13):
            n = 8 if K > 6 else 16
            assert closed_form_HKL(K, 0, n) == closed_form_from_blocks(closed_form_plan(K), n), K

    @pytest.mark.parametrize("K", WRONG_K)
    def test_wrong_plan_is_the_sum_of_its_pfq_blocks(self, K, monkeypatch):
        # the shared ratio tables add up what the blocks of a wrong plan add up, exactly:
        # shifted (some below 0), added and dropped parameters and a scaled argument
        for i, bad in enumerate(wrong_plans(K)):
            monkeypatch.setattr(closed_forms, "closed_form_plan", lambda K: bad)
            assert closed_form_HKL(K, 0, 7) == closed_form_from_blocks(bad, 7), i

    def test_wrong_plans_beyond_l0_are_pinned(self, monkeypatch):
        # the remainder rows of the wrong plans through the Leibniz prefactors and
        # through D, pinned bit for bit
        out = []
        for K in WRONG_K:
            for bad in wrong_plans(K):
                monkeypatch.setattr(closed_forms, "closed_form_plan", lambda K: bad)
                out.append([closed_form_HKL(K, L, 7).to_json() for L in (1, 3)])
                out.append([s.to_json() for s in rk_series(K, 2, 5).mu_coeffs])
        text = json.dumps(out)
        assert hashlib.sha256(text.encode()).hexdigest() == WRONG_DIGEST

    def test_pole_in_a_lower_parameter_is_raised(self, monkeypatch):
        # K = 4's branch 0 with the lower parameter -1 (-4 over den 4): term 2 divides
        # by (-1)_2 = 0, which order 2 reaches and order 1 does not
        bad = k4_pole_plan()
        monkeypatch.setattr(closed_forms, "closed_form_plan", lambda K: bad)
        with pytest.raises(PoleError):
            closed_form_HKL(4, 0, 2)
        assert closed_form_HKL(4, 0, 1) == closed_form_from_blocks(bad, 1)

    def test_negative_lower_parameter_keeps_every_den_positive(self, monkeypatch):
        # K = 2 with the lower parameter -3/2, which has no pole: term 1 divides by -3/2,
        # so a remainder's den is negative until its sign moves to the numerator
        patch_k2_lower(monkeypatch, (-3,))
        got = closed_form_HKL(2, 0, 6)
        assert got == closed_form_from_blocks(closed_forms.closed_form_plan(2), 6)
        assert [c.den for c in got.coeffs] == [1, 3, 2, 6, 72, 120, 720]


class TestRatioTables:
    """The ratio tables are built once per plan and order, and only read after."""

    @pytest.fixture(autouse=True)
    def no_tables(self, monkeypatch):
        monkeypatch.setattr(closed_forms, "_TABLES", {})

    def test_tables_are_kept_per_plan_not_per_k(self, monkeypatch):
        # a wrong plan for K right after the true one, and the true one right after it,
        # each read their own tables, never those that another plan for K left
        plan = closed_form_plan(3)
        for bad in wrong_plans(3)[::2]:
            want = {(p, L): untabled(p, 3, L, 6) for p in (plan, bad) for L in (0, 2)}
            assert want[plan, 2] != want[bad, 2]
            for p in (plan, bad, plan):
                monkeypatch.setattr(closed_forms, "closed_form_plan", lambda K, p=p: p)
                assert [closed_form_HKL(3, L, 6) for L in (0, 2)] == [want[p, 0], want[p, 2]]

    def test_a_smaller_order_builds_nothing(self, monkeypatch):
        # K = 5: one upper product per class of lambda-power (lp = 2) and one lower
        # product per branch (5); a larger order builds them once more, anew
        plan = closed_form_plan(5)
        want = {(L, n): untabled(plan, 5, L, n) for L, n in ((0, 6), (3, 2), (0, 4), (1, 8))}
        calls = []
        products = closed_forms.ratio_products
        monkeypatch.setattr(closed_forms, "ratio_products",
                            lambda *args: calls.append(args) or products(*args))
        assert closed_form_HKL(5, 0, 6) == want[0, 6] and len(calls) == 7
        assert closed_form_HKL(5, 3, 2) == want[3, 2] and len(calls) == 7
        assert rk_series(5, 1, 4).mu_coeffs[0] == want[0, 4] and len(calls) == 7
        assert closed_form_HKL(5, 1, 8) == want[1, 8] and len(calls) == 14
        assert closed_form_HKL(5, 0, 6) == want[0, 6] and len(calls) == 14
        assert [order for order, _ in closed_forms._TABLES.values()] == [8]

    def test_at_most_16_plans_are_held(self):
        for K in range(1, 21):
            closed_form_HKL(K, 0, 2)
        assert [plan.K for plan in closed_forms._TABLES] == list(range(5, 21))

    def test_a_pole_is_raised_after_a_smaller_order(self, monkeypatch):
        # the tables of order 1 hold no pole; order 2 builds anew and meets it, and
        # keeps nothing of it
        bad = k4_pole_plan()
        monkeypatch.setattr(closed_forms, "closed_form_plan", lambda K: bad)
        assert closed_form_HKL(4, 0, 1) == closed_form_from_blocks(bad, 1)
        with pytest.raises(PoleError):
            closed_form_HKL(4, 0, 2)
        with pytest.raises(PoleError):
            rk_series(4, 1, 3)
        assert [order for order, _ in closed_forms._TABLES.values()] == [1]

    def test_a_call_leaves_the_tables_unchanged(self, monkeypatch):
        # rk_series runs D in place on its rows, and a wrong plan leaves remainders;
        # neither writes into the tables that it read
        for plan in (closed_form_plan(6), wrong_plans(6)[4]):
            monkeypatch.setattr(closed_forms, "closed_form_plan", lambda K: plan)
            closed_form_HKL(6, 0, 7)
            held = copy.deepcopy(closed_forms._TABLES)
            for L, n in ((0, 7), (3, 5), (1, 7)):
                closed_form_HKL(6, L, n)
            rk_series(6, 3, 7)
            assert closed_forms._TABLES == held


def untabled(plan, K, L, order):
    """closed_form_HKL(K, L, order) under plan, with no ratio tables stored before or after."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(closed_forms, "_TABLES", {})
        mp.setattr(closed_forms, "closed_form_plan", lambda K: plan)
        return closed_form_HKL(K, L, order)


def patch_k2_lower(monkeypatch, lower):
    """Give K = 2's one branch the lower parameters ``lower`` (numerators over den 2)."""
    plan = closed_form_plan(2)
    bad = plan._replace(branches=(plan.branches[0]._replace(lower=lower),))
    monkeypatch.setattr(closed_forms, "closed_form_plan", lambda K: bad)


@given(st.integers(1, 5), st.integers(0, 3), st.integers(0, 4))
@settings(max_examples=50, deadline=None)
def test_constructions_agree_with_oracle(K, L, n):
    # the three constructions, and every shift j <= L of the (mu, lambda) series,
    # against H_(pK+j)/p!
    def want(j):
        return [hermite_poly(p * K + j) * Fraction(1, fact(p)) for p in range(n + 1)]

    built = [
        (L, closed_form_HKL(K, L, n)),
        (L, dilate_bruteforce(shift(hermite_egf(K * n + L), L), K)),
    ]
    if L == 0:
        built.append((L, resum_lemma1(hermite_coeff_table(), K, n)))
    rk = rk_series(K, L, n)
    built.extend((j, rk.mu_coeffs[j] * fact(j)) for j in range(L + 1))
    for j, series in built:
        assert series.order == n
        assert series.coeffs == want(j)


# rk_series(K, mu_order, n): (K, mu_order) -> n, the benchmark's grid
RK_ORDER = {
    (2, 1): 20, (2, 2): 16, (2, 3): 14, (3, 1): 13, (3, 2): 11, (3, 3): 10,
    (4, 1): 11, (4, 2): 9, (4, 3): 8, (5, 1): 6, (5, 2): 6, (5, 3): 5,
    (6, 1): 6, (6, 2): 6, (6, 3): 5, (7, 1): 7, (7, 2): 6, (7, 3): 4,
    (8, 1): 5, (8, 2): 6, (8, 3): 5,
}
RK_DIGEST = "6ee230dcc2f9cd0ed0fa443e61442c1472a49339bfe61bc94654d595aff5b9e5"


class TestRkSeries:
    def test_mu0_is_hk0(self):
        rk = rk_series(3, 2, 4)
        assert rk.mu_coeffs[0] == closed_form_HKL(3, 0, 4)

    def test_mu_coefficients_are_the_shifted_closed_forms(self):
        # L! [mu^L] = G_(K,L); mu_coeffs[0] is read last, after D has run in place on
        # the rows it was collected from
        for K, mu, n in itertools.product(range(1, 13), range(6), range(4)):
            rk = rk_series(K, mu, n)
            assert len(rk.mu_coeffs) == mu + 1
            for L in range(mu, -1, -1):
                assert fact(L) * rk.mu_coeffs[L] == closed_form_HKL(K, L, n), (K, mu, n, L)

    def test_remainder_row_stays_exact_through_d(self, monkeypatch):
        # with K = 2's lower parameter 7 the lambda^1 row has a remainder row over 1! * 7;
        # a floored (2 // 7) anywhere would lose the 2/7 y
        patch_k2_lower(monkeypatch, (14,))
        want = [closed_form_HKL(2, 0, 1).coeffs]
        for L in (1, 2):
            want.append([raise_d(c) for c in want[-1]])
        assert want[0][1] == BivarPoly({(2, 0): 1, (0, 1): Fraction(2, 7)})
        assert [rk.coeffs for rk in rk_series(2, 2, 1).mu_coeffs] == [
            [c * Fraction(1, fact(L)) for c in coeffs] for L, coeffs in enumerate(want)]

    def test_mu_route_stays_off_the_leibniz_route(self, monkeypatch):
        # the mu-series checks the Leibniz sums at L > 0, so it must not run them; nor
        # does it run the operator code of normal_ordering
        seen = []
        parts = closed_forms._leibniz_parts
        monkeypatch.setattr(closed_forms, "_leibniz_parts",
                            lambda L, top: seen.append(L) or parts(L, top))

        def unused(*args):
            raise AssertionError("rk_series runs the operator route of normal_ordering")

        monkeypatch.setattr(normal_ordering.SemiLinearOp, "apply", unused)
        monkeypatch.setattr(normal_ordering, "exp_action", unused)
        for K in (1, 2, 5):
            rk_series(K, 4, 3)
        assert seen == [0, 0, 0]

    def test_grid_digest(self):
        # the JSON of rk_series over the benchmark grid, pinned bit for bit
        text = json.dumps([[K, mu, n, [s.to_json() for s in rk_series(K, mu, n).mu_coeffs]]
                           for (K, mu), n in sorted(RK_ORDER.items())])
        assert hashlib.sha256(text.encode()).hexdigest() == RK_DIGEST


def section_partial_sum(K, L, lam, x, y, n_terms):
    """sum_{n <= n_terms} lam^(nK+L) H_(nK+L)(x, y) / (nK+L)!, from the Hermite oracle:
    the K-section of the Hermite EGF that Nieto and Truax sum over the K-th roots of unity."""
    return sum((lam ** (n * K + L) * evaluate(hermite_poly(n * K + L), x, y)
                / fact(n * K + L) for n in range(n_terms + 1)), Fraction(0))


def section_from_closed_form(K, L, lam, x, y, n_terms):
    """The same sum read off the closed form G_(K,L): n! [lambda^n] G_(K,L) = H_(nK+L)."""
    G = closed_form_HKL(K, L, n_terms)
    return sum((lam ** (n * K + L) * evaluate(G.coeffs[n], x, y) * fact(n) / fact(n * K + L)
                for n in range(n_terms + 1)), Fraction(0))


class TestNietoTruax:
    """The K-section of the Hermite EGF, summed exactly from the closed forms."""

    def test_k1_is_plain_exponential(self):
        # G_(1,0) is the Hermite EGF exp(x lambda + y lambda^2), built here as sum_j a^j / j!
        order = 8
        a = LambdaSeries(order, [BivarPoly(), BivarPoly.monomial(1, 1, 0),
                                 BivarPoly.monomial(1, 0, 1)] + [BivarPoly()] * (order - 2))
        exp_a = power = LambdaSeries(order, [1] + [0] * order)
        for j in range(1, order + 1):
            power = power * a
            exp_a = series_sum(exp_a, power * Fraction(1, fact(j)))
        assert closed_form_HKL(1, 0, order) == exp_a

    @pytest.mark.parametrize("K,L", [(2, 0), (3, 1)])
    def test_matches_partial_sum(self, K, L):
        lam, x, y = Fraction(1, 10), Fraction(1), Fraction(1, 2)
        assert (section_from_closed_form(K, L, lam, x, y, 30)
                == section_partial_sum(K, L, lam, x, y, 30))

    @pytest.mark.parametrize("K,L", [(K, L) for K in range(1, 5) for L in range(K)])
    def test_exact_zeros(self, K, L):
        # lambda, x and y at 0 and off it: the sum is exactly 0 where every term is, for
        # L > 0 when lambda = 0 or x = y = 0, and when x = 0 and every nK + L is odd, as
        # H_odd(0, y) = 0; elsewhere every term is >= 0 and one is > 0
        for lam, x, y in itertools.product((0, Fraction(1, 3)), (0, Fraction(1, 2)), (0, 1)):
            value = section_from_closed_form(K, L, lam, x, y, 8)
            assert value == section_partial_sum(K, L, lam, x, y, 8), (lam, x, y)
            zero = (L > 0 and (lam == 0 or x == y == 0)) or (x == 0 and K % 2 == 0 and L % 2)
            assert (value == 0) == bool(zero), (lam, x, y)
