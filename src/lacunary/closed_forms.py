"""Closed-form lacunary generating functions of the two-variable Hermite polynomials.

For K >= 1 the K-tuple generating function is a finite list of branches,
each a lambda-shifted sum over s of

    prefactor(s; x, y) * pFq(upper(s); lower; monomial argument),

where the prefactor carries the Hermite expansion-coefficient factorial
ratio (K(s+d))! / ((K(s+d)-2b)! b!) and a monomial x-power.  Even K uses a
(K-1)F(T-1) block with argument lambda*(2Ky)^T; odd K uses a (2K-2)F(K-1)
block with argument lambda^2*(4Ky)^K/4.  The L-shifted variants replace
each prefactor x-power x^P by the Leibniz sum

    sum_q q! C(L,q) C(P,q) H_{L-q}(x,y) x^(P-q) (2y)^q.

Everything is materialized only as truncated exact series: each branch's
minimum lambda-power grows with s, so the s-cut is exact.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from math import comb

from .hermite import fact
from .hypergeom import pfq_series
from .series import BivarPoly, LambdaSeries


class ClosedFormBranch(namedtuple("ClosedFormBranch", "lambda_shift y_power lower")):
    """One branch: terms lambda^p/p! for p >= d = ``lambda_shift``, a prefactor y^b for
    b = ``y_power``, and its lower pFq parameters as numerators over the plan's ``den``."""

    __slots__ = ()


class ClosedFormPlan(namedtuple("ClosedFormPlan", "K den upper arg branches")):
    """The K-tuple closed form: the pFq data that depend on K alone, and its branches.

    Every block parameter is an integer numerator over the one denominator ``den``
    (K for even K, 2K for odd K): at lambda-power p the upper parameters are
    (K*p + j)/den for j in ``upper``, and a branch's lower ones are m/den for m in
    its ``lower``.  The block argument is coef * lambda^lp * y^yp for
    (coef, lp, yp) = ``arg``, coef an integer: the layout ``pfq_series`` takes.
    """

    __slots__ = ()

    def to_json(self) -> dict:
        K, den, (coef, lp, yp) = self.K, self.den, self.arg
        step = Fraction(K, den)
        s_str = "s" if step == 1 else f"{step}*s"
        return {"K": K, "branches": [{
            "lambda_shift": d, "y_power": b,
            "upper": [f"{s_str} + {Fraction(K * d + j, den)}" for j in self.upper],
            "lower": [str(Fraction(m, den)) for m in lower],
            "arg": {"coef": f"{coef}/1", "lp": lp, "xp": 0, "yp": yp},
        } for d, b, lower in self.branches]}


def closed_form_plan(K: int) -> ClosedFormPlan:
    """Branch structure of the K-tuple closed form (K >= 1).

    With P = K/2 for even K and P = K for odd K, every parameter is over
    den = 2P.  Even K has a (K-1)F(P-1) block with argument lambda*(2Ky)^P and
    upper parameters p + j/K at lambda-power p; odd K has a (2K-2)F(K-1) block
    with argument lambda^2*(4Ky)^K/4 and upper parameters p/2 + j/(2K), j != K.
    The branch with y-power b has the lower parameters m/P, m = b+1 ... b+P
    except P.  There is one branch per y-power b = 0 ... P-1, with the
    lambda-shift d = ceil(2b/K): the least d that makes the x-power K*d - 2b
    non-negative.  K = 1 has the one branch exp(lambda*x) 0F0(;;lambda^2*y).
    """
    if K < 1:
        raise ValueError("K must be >= 1")
    P = K // 2 if K % 2 == 0 else K
    arg = ((2 * K) ** P, 1, P) if K % 2 == 0 else ((4 * K) ** K // 4, 2, K)
    upper = tuple(j for j in range(1, 2 * P) if j != K)
    return ClosedFormPlan(K, 2 * P, upper, arg, tuple(
        ClosedFormBranch(-(-2 * b // K), b,
                         tuple(2 * m for m in range(b + 1, b + P + 1) if m != P))
        for b in range(P)))


def _leibniz_parts(L: int, y_power: int, top: int) -> list[dict]:
    """The s-free factors q! C(L,q) 2^q H_(L-q) y^(q+y_power) as numerators from factorials,
    2^q L! / ((L-q-2k)! k!) at x^(L-q-2k) y^(k+q+y_power), for q <= min(L, top) only:
    _leibniz_prefactor reads parts[q] up to its x-power, at most top = K*order - 2*y_power."""
    lf = fact(L)
    return [{(L - q - 2 * k, k + q + y_power): (lf << q) // (fact(L - q - 2 * k) * fact(k))
             for k in range((L - q) // 2 + 1)}
            for q in range(min(L, top) + 1)]


def _leibniz_prefactor(P: int, parts: list[dict]) -> dict:
    """The mu-derivative expansion of x^P: sum_q C(P,q) x^(P-q) parts[q], as numerators.

    Every numerator is positive, so no sum cancels.
    """
    out = {}
    for q, part in enumerate(parts[: P + 1]):
        c = comb(P, q)
        for (xp, yp), v in part.items():
            k = (xp + P - q, yp)
            out[k] = out[k] + c * v if k in out else c * v
    return out


def _evaluate_plan(plan: ClosedFormPlan, L: int, order: int) -> LambdaSeries:
    """Sum over branches and lambda-powers p0 of lambda^p0 * prefactor * pFq block.

    At n = K*p0 the prefactor is the integer numerators of the x^(n-2b) Leibniz sum
    times n! / ((n-2b)! b!) over p0!; block term t is a rational times
    lambda^(t*lp) y^(t*yp), multiplied straight into the prefactor's numerators.
    Each block term fetches its bucket of LambdaSeries.collect once; the block is
    cut so that its last term stays within the order.
    """
    K, den, (coef, lp, yp_step) = plan.K, plan.den, plan.arg
    sums = [{} for _ in range(order + 1)]
    for d, b, lower in plan.branches:
        parts = _leibniz_parts(L, b, K * order - 2 * b)
        for p0 in range(d, order + 1):
            n = K * p0
            pref = _leibniz_prefactor(n - 2 * b, parts).items()
            ratio, p0_fact = fact(n) // (fact(n - 2 * b) * fact(b)), fact(p0)
            block = pfq_series([n + j for j in plan.upper], lower, den, coef,
                               (order - p0) // lp + 1)
            for t, (bn, bd) in enumerate(block):
                bn *= ratio
                acc = sums[p0 + t * lp].setdefault(bd * p0_fact, {})
                ty = t * yp_step
                for (xp, yp), v in pref:
                    key = (xp, yp + ty)
                    acc[key] = acc[key] + v * bn if key in acc else v * bn
    return LambdaSeries.collect(sums)


def closed_form_HKL(K: int, L: int, order: int) -> LambdaSeries:
    """K-tuple L-shifted closed form: n! [lambda^n] = H_(nK+L)(x, y)."""
    if L < 0:
        raise ValueError("L must be >= 0")
    return _evaluate_plan(closed_form_plan(K), L, order)


def rk_series(K: int, mu_order: int, lambda_order: int):
    """exp(mu*D) G_K(lambda; x, y) as an RkSeries: D^L / L! on every lambda-coefficient
    of the K-tuple closed form, D = x + 2y d/dx applied once per mu-power."""
    # imported here: a process that only evaluates closed forms loads neither
    # normal_ordering nor the dataclasses module behind RkSeries
    from .normal_ordering import RkSeries, SemiLinearOp, exp_action
    if mu_order < 0 or lambda_order < 0:
        raise ValueError("orders must be >= 0")
    raising = SemiLinearOp(q=BivarPoly.monomial(2, 0, 1), v=BivarPoly.monomial(1, 1, 0))
    mu_coeffs = exp_action(
        lambda g: LambdaSeries(lambda_order, [raising.apply(c) for c in g.coeffs]),
        closed_form_HKL(K, 0, lambda_order), mu_order)
    return RkSeries(tuple(mu_coeffs))

