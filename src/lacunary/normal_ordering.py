"""Semi-linear normal ordering and operator-exponential identities.

An operator D = q(x) d/dx + v(x) (coefficients may carry the parameter y)
satisfies exp(mu*D) f(x) = g(mu; x) * f(T(mu; x)), where the substitution
function T and the prefactor g solve the formal initial value problem

    dT/dmu = q(T),        T(0; x) = x,
    d(ln g)/dmu = v(T),   g(0; x) = 1.

The IVP is solved degree by degree in mu -- polynomial right-hand sides
always have a unique formal solution.  `normal_order` grows T and its powers
one mu-order per step, O(deg_x q * order^2) polynomial products, and
composes v with the finished T once.  `exp_action` is the one loop that
expands exp(mu*A) f = sum_k mu^k A^k f / k! directly; `apply_exp_op` and
:func:`lacunary.closed_forms.rk_series` use it.  `apply_exp_op` computes
both that direct operator exponential and the (g, T) route and insists
they agree, making the module a self-testing witness for the
normal-ordering theorem.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .hermite import fact
from .series import BivarPoly, LambdaSeries, series_exp


class ConsistencyError(AssertionError):
    """The two independent routes of apply_exp_op disagreed."""


@dataclass(frozen=True)
class SemiLinearOp:
    """D = q(x) d/dx + v(x) with polynomial q, v."""

    q: BivarPoly
    v: BivarPoly

    def apply(self, f: BivarPoly) -> BivarPoly:
        return self.q * f.diff_x() + self.v * f


@dataclass(frozen=True)
class NormalOrderResult:
    """Truncated mu-series for the substitution function T and prefactor g."""

    T_series: LambdaSeries
    g_series: LambdaSeries
    order: int


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
    out = LambdaSeries(series.order)
    power = LambdaSeries.one(series.order)
    for a in range(max(p_a, default=0) + 1):
        if a > 0:
            power = power * series
        if a in p_a:
            out = out + power * p_a[a]
    return out


def normal_order(op: SemiLinearOp, order: int) -> NormalOrderResult:
    """Solve the (T, g) initial value problem term by term in mu.

    T and its powers T^a, a = 1 ... deg_x q, grow one mu-order per step
    (online composition): step k extends each power by
    [mu^k] T^a = sum_j T_j [mu^(k-j)] T^(a-1) over the non-zero T_j, then sets
    T_(k+1) = sum_a q_a(y) [mu^k] T^a / (k+1).  g is exp of the integral of
    v(T), composed once from the finished T.
    """
    if order < 0:
        raise ValueError("order must be >= 0")
    q_a = _x_coefficients(op.q)
    zero = BivarPoly.zero()
    t_coeffs = [BivarPoly.x()]
    # powers[a][i] = [mu^i] T^a; powers[1] is t_coeffs itself, powers[0] is unused
    powers = [None, t_coeffs] + [[] for _ in range(2, max(q_a, default=1) + 1)]
    nonzero = []  # (j, T_j) for the non-zero T_j found so far
    for k in range(order):
        if t_coeffs[k]:
            nonzero.append((k, t_coeffs[k]))
        for a in range(2, len(powers)):
            prev = powers[a - 1]
            powers[a].append(sum((c * prev[k - j] for j, c in nonzero), zero))
        # [mu^k] q(T), where [mu^k] T^0 is 1 at k = 0 only
        rhs = sum((c * powers[a][k] for a, c in q_a.items() if a),
                  q_a.get(0, zero) if k == 0 else zero)
        t_coeffs.append(rhs * Fraction(1, k + 1))
    T = LambdaSeries(order, t_coeffs)
    vT = compose(op.v, T)
    log_g = LambdaSeries(order)
    for j in range(order):
        log_g.coeffs[j + 1] = vT.coeffs[j] * Fraction(1, j + 1)
    g = series_exp(log_g)
    return NormalOrderResult(T_series=T, g_series=g, order=order)


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

