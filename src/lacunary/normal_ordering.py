"""Semi-linear normal ordering and operator-exponential identities.

An operator D = q(x) d/dx + v(x) (coefficients may carry the parameter y)
satisfies exp(mu*D) f(x) = g(mu; x) * f(T(mu; x)), where the substitution
function T and the prefactor g solve the formal initial value problem

    dT/dmu = q(T),        T(0; x) = x,
    d(ln g)/dmu = v(T),   g(0; x) = 1.

The IVP is solved degree by degree in mu -- polynomial right-hand sides
always have a unique formal solution.  `normal_order` solves both in one
loop: each step grows T, its powers T^a and g by one mu-order, with v(T)
read off the same powers, so it costs O(deg * order^2) polynomial products
for deg the larger x-degree of q and v.  Every sum of products goes through
:meth:`BivarPoly.dot`, `SemiLinearOp.apply` too.  `apply_exp_op` expands
exp(mu*D) f = sum_k mu^k D^k f / k! directly (`exp_action`), takes the (g, T)
route too and insists that the two agree: a self-testing witness for the
normal-ordering theorem.  `RkSeries`, built by `rk_series`, is defined here.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass
from fractions import Fraction

from .hermite import fact
from .series import BivarPoly, LambdaSeries


class ConsistencyError(AssertionError):
    """The two independent routes of apply_exp_op disagreed."""


class SemiLinearOp(namedtuple("SemiLinearOp", "q v")):
    """D = q(x) d/dx + v(x) with polynomial q, v."""

    __slots__ = ()

    def apply(self, f: BivarPoly) -> BivarPoly:
        """q * df/dx + v * f in one dot: df/dx stays over f.den, with no gcd of its own."""
        df = BivarPoly.__new__(BivarPoly)
        df.num = {(xp - 1, yp): v * xp for (xp, yp), v in f.num.items() if xp}
        df.den = f.den
        return BivarPoly.dot(((self.q, df), (self.v, f)))


# a dataclass, not a named tuple: bench/selftest.py rebuilds it with dataclasses.replace
@dataclass(frozen=True)
class NormalOrderResult:
    """Truncated mu-series for the substitution function T and prefactor g."""

    T_series: LambdaSeries
    g_series: LambdaSeries


# a dataclass, not a named tuple: bench/selftest.py rebuilds it with dataclasses.replace
@dataclass(frozen=True)
class RkSeries:
    """Bivariate series in (mu, lambda): the EGF of all L-shifted closed forms.

    Equals exp(mu*D) applied to the K-tuple closed form, D = x + 2y d/dx the
    Hermite raising operator (D H_n = H_(n+1)); ``mu_coeffs`` holds its
    mu-coefficients, one LambdaSeries per mu-power, and L! times the mu^L
    coefficient recovers the L-shifted generating function.
    """

    mu_coeffs: tuple[LambdaSeries, ...]


def _x_coefficients(p: BivarPoly) -> dict[int, BivarPoly]:
    """{a: p_a(y)}, where p_a(y) multiplies x^a in p; absent for p_a = 0."""
    by_xpow: dict[int, dict] = {}
    for (a, b), c in p.num.items():
        by_xpow.setdefault(a, {})[(0, b)] = c
    return {a: BivarPoly.from_numerators(num, p.den) for a, num in by_xpow.items()}


def compose(p: BivarPoly, series: LambdaSeries) -> LambdaSeries:
    """Substitute the series for x in p (y passes through unchanged):
    sum_a series^a * p_a(y), where p_a(y) multiplies x^a in p."""
    p_a = _x_coefficients(p)
    powers = [LambdaSeries(series.order, [1] + [0] * series.order)]
    for _ in range(max(p_a, default=0)):
        powers.append(powers[-1] * series)
    return LambdaSeries(series.order, [
        BivarPoly.dot((c, powers[a].coeffs[k]) for a, c in p_a.items())
        for k in range(series.order + 1)])


def normal_order(op: SemiLinearOp, order: int) -> NormalOrderResult:
    """Solve the (T, g) initial value problem term by term in mu, in one loop.

    Step k extends the powers of T, [mu^k] T^a = sum_j T_j [mu^(k-j)] T^(a-1)
    for a = 2 ... max(deg_x q, deg_x v), then sets
    T_(k+1) = sum_a q_a(y) [mu^k] T^a / (k+1), w_k = [mu^k] v(T) = sum_a v_a(y) [mu^k] T^a
    and, from g' = v(T) g, g_(k+1) = sum_j w_j g_(k-j) / (k+1).
    """
    if order < 0:
        raise ValueError("order must be >= 0")
    q_a, v_a = _x_coefficients(op.q), _x_coefficients(op.v)
    dot = BivarPoly.dot
    t, g, w = [BivarPoly.monomial(1, 1, 0)], [BivarPoly.monomial(1, 0, 0)], []
    # powers[a][k] = [mu^k] T^a: T^0 = 1 and T^1 = T
    powers = [[g[0]] + [BivarPoly()] * order, t]
    powers += [[] for _ in range(2, max((*q_a, *v_a), default=1) + 1)]
    for k in range(order):
        for a in range(2, len(powers)):
            powers[a].append(dot(zip(t, reversed(powers[a - 1]))))
        t.append(dot((c, powers[a][k]) for a, c in q_a.items()) * Fraction(1, k + 1))
        w.append(dot((c, powers[a][k]) for a, c in v_a.items()))
        g.append(dot(zip(w, reversed(g))) * Fraction(1, k + 1))
    return NormalOrderResult(T_series=LambdaSeries(order, t), g_series=LambdaSeries(order, g))


def exp_action(step, f, order: int) -> list:
    """[f, step(f)/1!, step^2(f)/2!, ..., step^order(f)/order!]: the mu-coefficients of
    exp(mu*A) f, where step applies the operator A to a polynomial or a series."""
    out, u = [], f
    for k in range(order + 1):
        if k:
            u = step(u)
        out.append(u * Fraction(1, fact(k)))
    return out


def apply_exp_op(op: SemiLinearOp, order: int, f: BivarPoly) -> LambdaSeries:
    """exp(mu*D) f via direct iteration, cross-checked against g * f(T).

    Raises ConsistencyError if the two routes disagree (an implementation
    bug, never a property of valid inputs).
    """
    direct = LambdaSeries(order, exp_action(op.apply, f, order))
    nr = normal_order(op, order)
    factored = nr.g_series * compose(f, nr.T_series)
    if direct != factored:
        raise ConsistencyError(
            "direct operator exponential disagrees with the (g, T) factorization"
        )
    return direct

