"""Closed-form lacunary generating functions of the two-variable Hermite polynomials.

For K >= 1 the K-tuple generating function is a finite list of branches,
each a lambda-shifted sum over s of

    prefactor(s; x, y) * pFq(upper(s); lower; monomial argument),

where the prefactor carries the Hermite expansion-coefficient factorial
ratio (K(s+d))! / ((K(s+d)-2b)! b!) and a monomial x-power.  Even K uses a
(K-1)F(T-1) block with argument lambda*(2Ky)^T; odd K uses a (2K-2)F(K-1)
block with argument lambda^2*(4Ky)^K/4.  The L-shifted variants replace
each prefactor x-power x^P by the Leibniz sum D^L x^P, D = x + 2y d/dx,

    sum_q q! C(L,q) C(P,q) H_{L-q}(x,y) x^(P-q) (2y)^q.

Each lambda^p coefficient is summed as one row of integers over p!, indexed by the
y-power k of its monomials x^(Kp+L-2k) y^k; the s-cut at the order is exact.  The
term ratios of all the blocks come from two tables built once per plan, for every L
and every order up to the one they were built to: the upper products per lambda-power and
the lower ones per branch.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from math import comb, gcd, perm

from .hermite import fact
from .hypergeom import ratio_products
from .series import LambdaSeries


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


def _leibniz_parts(L: int, top: int) -> list[list]:
    """The s-free factors q! C(L,q) 2^q H_(L-q) y^q from factorials, for q <= min(L, top):
    parts[q][k] = 2^q L! / ((L-q-2k)! k!) at x^(L-q-2k) y^(q+k).  _leibniz_prefactor
    reads parts[q] for q up to its x-power P, and the closed form's P is <= K*order."""
    lf = fact(L)
    return [[(lf << q) // (fact(L - q - 2 * k) * fact(k)) for k in range((L - q) // 2 + 1)]
            for q in range(min(L, top) + 1)]


def _leibniz_prefactor(P: int, parts: list[list]) -> list:
    """D^L x^P = sum_q C(P,q) x^(P-q) parts[q] as the list c of its integer numerators,
    c[j] = sum_q C(P,q) parts[q][j-q] at x^(P+L-2j) y^j; all positive, so none cancels."""
    parts = parts[: P + 1]
    out = [0] * (len(parts) - 1 + len(parts[-1]))
    for q, part in enumerate(parts):
        c = comb(P, q)
        for j, v in enumerate(part, q):
            out[j] += c * v
    return out


_TABLES: dict = {}  # ClosedFormPlan -> (order, its _ratio_tables), oldest first
_MAX_PLANS = 16  # at least one per K of a verify sweep (K <= 12)


def _ratio_tables(plan: ClosedFormPlan, order: int) -> list[tuple[list, list]]:
    """Each branch's (down_b, ub), from ``ratio_products``: ub[p] / down_b[t-1] is the
    ratio of block term t to term t-1 at lambda-power p, times p!/(p-lp)!.  No entry
    depends on the order, only their number does, so tables built to order N serve every
    order <= N.  They are kept for the last _MAX_PLANS plans, keyed by the plan, never by
    K; a larger order replaces them whole.  A pole raises PoleError before any is kept."""
    if (held := _TABLES.get(plan)) and held[0] >= order:
        return held[1]
    K, den, (coef, lp, _) = plan.K, plan.den, plan.arg
    up = [0] * (order + 1)
    for r in range(lp):  # one class of p - lp mod lp per call: K*(p-lp) steps by den
        ups, _ = ratio_products([K * r + j for j in plan.upper], (), den, (order - r) // lp + 1)
        for p, u in zip(range(lp + r, order + 1, lp), ups):
            up[p] = coef * u * perm(p, lp)
    tables = []
    for d, _, lower in plan.branches:
        e = len(plan.upper) - len(lower)  # the ratio's den^len(lower) / den^len(upper)
        _, downs = ratio_products((), lower, den, (order - d) // lp + 1)
        tables.append(([t * den ** max(e, 0) * v for t, v in enumerate(downs, 1)],
                       up if e >= 0 else [u * den ** -e for u in up]))
    if held is None and len(_TABLES) == _MAX_PLANS:
        del _TABLES[next(iter(_TABLES))]
    _TABLES[plan] = (order, tables)
    return tables


def _evaluate_plan(plan: ClosedFormPlan, L: int, order: int) -> list[dict]:
    """Sum over branches and lambda-powers p0 of lambda^p0 * prefactor * pFq block.

    rows[p] is {f: row}: row[k] is an integer over p! * f at x^(K*p+L-2k) y^k, as
    K*lp = 2*yp.  Block term t of (b, p0) adds c[j] * v at p = p0 + t*lp,
    k = b + t*yp + j, for c the Leibniz list of x^(K*p0-2b) (at L = 0 just v at k) and
    v the term times (K*p0)! p! / ((K*p0-2b)! b! p0!): (K*p)! / ((K*p-2k)! k!) at L = 0
    for a correct plan.  As den = K*lp, the upper numerators K*p0 + j + (t-1)*den of
    the ratio into term t are K*(p-lp) + j, so the ratio times p!/(p-lp)! is
    ub[p] / down_b[t-1] from ``_ratio_tables``.  v starts at (K*p0)! / ((K*p0-2b)! b!)
    and takes one multiply and one divmod per term, on integers alone while each divides;
    a remainder is not rounded: v carries its gcd-reduced denominator vd into a row over
    p! * vd until vd is 1 again.  The block is cut so that its last term stays within the order.
    """
    K, (_, lp, yp) = plan.K, plan.arg
    rows = [{1: [0] * ((K * p + L) // 2 + 1)} for p in range(order + 1)]
    parts = _leibniz_parts(L, K * order)
    for (d, b, _), (down, ub) in zip(plan.branches, _ratio_tables(plan, order)):
        for p0 in range(d, order + 1):
            n = K * p0
            pref = _leibniz_prefactor(n - 2 * b, parts) if L else None
            v, vd, k = fact(n) // (fact(n - 2 * b) * fact(b)), 1, b
            for t, p in enumerate(range(p0, order + 1, lp)):
                if t and vd == 1:
                    v, r = divmod(v * ub[p], down[t - 1])
                    if r:  # only a wrong plan leaves a remainder
                        v, vd = v * down[t - 1] + r, down[t - 1]
                elif t:
                    v, vd = v * ub[p], vd * down[t - 1]
                if vd != 1:
                    g = gcd(v, vd) if vd > 0 else -gcd(v, vd)
                    v, vd = v // g, vd // g
                row = rows[p][1] if vd == 1 else rows[p].setdefault(vd, [0] * len(rows[p][1]))
                if pref is None:
                    row[k] += v
                else:
                    for j, c in enumerate(pref, k):
                        row[j] += c * v
                k += yp
    return rows


def _collect(rows: list[dict], K: int, L: int, scale: int = 1) -> LambdaSeries:
    """The series whose lambda^p coefficient is rows[p], each row over p! * f * scale."""
    return LambdaSeries.collect([
        {fact(p) * f * scale: {(K * p + L - 2 * k, k): v for k, v in enumerate(row) if v}
         for f, row in by_den.items()} for p, by_den in enumerate(rows)])


def closed_form_HKL(K: int, L: int, order: int) -> LambdaSeries:
    """K-tuple L-shifted closed form: n! [lambda^n] = H_(nK+L)(x, y)."""
    if L < 0:
        raise ValueError("L must be >= 0")
    return _collect(_evaluate_plan(closed_form_plan(K), L, order), K, L)


def rk_series(K: int, mu_order: int, lambda_order: int):
    """exp(mu*D) G_K(lambda; x, y) as an RkSeries, D = x + 2y d/dx.  Each mu-power applies D
    in place to the rows of the closed form at L = 0 (never the Leibniz route at L > 0):
    row[k] at x^(a-2k) y^k moves to x^(a+1-2k) y^k and adds 2 (a-2k) row[k] into row[k+1]."""
    from .normal_ordering import RkSeries  # here: closed forms alone load no dataclasses
    if mu_order < 0 or lambda_order < 0:
        raise ValueError("orders must be >= 0")
    rows = _evaluate_plan(closed_form_plan(K), 0, lambda_order)
    out = [_collect(rows, K, 0)]
    for L in range(1, mu_order + 1):
        for p, by_den in enumerate(rows):
            a = K * p + L - 1  # the x-power of row[0] before this step
            for row in by_den.values():
                row += [0] * (a % 2)  # a last x^1 y^k makes a y^(k+1)
                for k in range(len(row) - 2, -1, -1):  # downwards: row[k] is still old
                    row[k + 1] += 2 * (a - 2 * k) * row[k]
        out.append(_collect(rows, K, L, fact(L)))
    return RkSeries(tuple(out))
