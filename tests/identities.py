"""Classical identities that the tests check the package against.

None of them is a construction of the lacunary generating functions: the
Pochhammer symbol, the Gauss multiplication formula in rational form, the
Crofton operator identity, the normal-ordering IVP solved by its
definition, and the closed form summed block by block as the paper writes it.
With them are the few series operations that only the tests use: the sum of
two series, a polynomial's value at a point, and repeated x-derivatives.
"""

from fractions import Fraction
from math import factorial

from lacunary import BivarPoly, LambdaSeries, SemiLinearOp, compose, pfq_series
from lacunary.normal_ordering import exp_action


def series_sum(a: LambdaSeries, b: LambdaSeries) -> LambdaSeries:
    """a + b, truncated at the lower of the two orders."""
    n = min(a.order, b.order)
    return LambdaSeries(n, [a.coeffs[i] + b.coeffs[i] for i in range(n + 1)])


def evaluate(p: BivarPoly, x, y) -> Fraction:
    """p at the rational point (x, y), exactly."""
    return sum((c * x**xp * y**yp for (xp, yp), c in p.terms.items()), Fraction(0))


def diff_x(p: BivarPoly, times: int) -> BivarPoly:
    """The times-th x-derivative of p."""
    num, den = p.num, p.den
    for _ in range(times):
        num = {(xp - 1, yp): v * xp for (xp, yp), v in num.items() if xp}
    return BivarPoly.from_numerators(num, den)


def pochhammer(a, b: int) -> Fraction:
    """Rising factorial (a)_b = a (a+1) ... (a+b-1), exact."""
    if b < 0:
        raise ValueError("pochhammer index must be non-negative")
    a = Fraction(a)
    result = Fraction(1)
    for k in range(b):
        result *= a + k
    return result


def gmfc_check(n: int, s: int, x) -> bool:
    """Exact rational form of the Gamma multiplication identity.

    Verifies prod_{k=0}^{ns-1} (n*x + k) == n^(s*n) * prod_{j=0}^{n-1} (x + j/n)_s.
    """
    x = Fraction(x)
    if n < 2:
        raise ValueError("n must be >= 2")
    if s < 0:
        raise ValueError("s must be >= 0")
    if x <= 0:
        raise ValueError("x must be a positive rational")
    lhs = Fraction(1)
    for k in range(n * s):
        lhs *= n * x + k
    rhs = Fraction(n) ** (s * n)
    for j in range(n):
        rhs *= pochhammer(x + Fraction(j, n), s)
    return lhs == rhs


def crofton_check(m: int, y_coef, f: BivarPoly, g: BivarPoly, order: int) -> bool:
    """Check the operator identity
    exp(c mu d^m) (f(x) g(x)) == f(x + m c mu d^(m-1)) exp(c mu d^m) g(x).

    Both sides are expanded as truncated mu-series of polynomials by direct
    operator application; c is the scalar multiplying the derivative operator.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    c = Fraction(y_coef)

    def exp_deriv(h: BivarPoly) -> LambdaSeries:  # exp(c mu d^m) h
        return LambdaSeries(order, exp_action(lambda u: diff_x(u, m) * c, h, order))

    def x_op(series: LambdaSeries) -> LambdaSeries:
        # (x + m*c*mu*d^(m-1)) acting on a mu-series of polynomials
        mu_deriv = [BivarPoly()] + [diff_x(p, m - 1) * (m * c) for p in series.coeffs[:-1]]
        x_times = series * BivarPoly.monomial(1, 1, 0)
        return series_sum(x_times, LambdaSeries(series.order, mu_deriv))

    # right: sum_a x_op^a (exp(c mu d^m) g) * f_a(y), where f_a(y) multiplies x^a in f
    right, power = LambdaSeries(order), exp_deriv(g)
    for a in range(f.degree_x() + 1):
        if a:
            power = x_op(power)
        f_a = BivarPoly({(0, yp): v for (xp, yp), v in f.terms.items() if xp == a})
        right = series_sum(right, power * f_a)
    return exp_deriv(f * g) == right


def normal_order_by_definition(op: SemiLinearOp, order: int) -> tuple[LambdaSeries, LambdaSeries]:
    """(T, g) of exp(mu D) f = g * f(T) for D = q d/dx + v, from dT/dmu = q(T) and
    d(ln g)/dmu = v(T): T_(k+1) = [mu^k] q(T) / (k+1), with q(T) composed afresh
    from the first k + 1 coefficients of T at every order k, and g the power sum
    of exp(ln g)."""
    t = [BivarPoly.monomial(1, 1, 0)]
    for k in range(order):
        t.append(compose(op.q, LambdaSeries(k, t)).coeffs[k] * Fraction(1, k + 1))
    T = LambdaSeries(order, t)
    vT = compose(op.v, T)
    log_g = [BivarPoly()] + [vT.coeffs[j] * Fraction(1, j + 1) for j in range(order)]
    return T, power_sum_exp(LambdaSeries(order, log_g))


def power_sum_exp(a: LambdaSeries) -> LambdaSeries:
    """exp(a) by its definition: the sum of a^j / j! over j <= order."""
    total = power = LambdaSeries(a.order, [1] + [0] * a.order)
    for j in range(1, a.order + 1):
        power = power * a
        total = series_sum(total, power * Fraction(1, factorial(j)))
    return total


def closed_form_from_blocks(plan, order: int) -> LambdaSeries:
    """G_K (L = 0) of a ClosedFormPlan, one pfq_series block per branch b and lambda-power
    p0: lambda^p0 (K p0)! / ((K p0 - 2b)! b! p0!) x^(K p0 - 2b) y^b times the block,
    whose term t multiplies lambda^(t lp) y^(t yp), each coefficient a Fraction."""
    K, den, (coef, lp, yp) = plan.K, plan.den, plan.arg
    coeffs = [{} for _ in range(order + 1)]
    for d, b, lower in plan.branches:
        for p0 in range(d, order + 1):
            n = K * p0
            m = Fraction(factorial(n), factorial(n - 2 * b) * factorial(b) * factorial(p0))
            block = pfq_series([n + j for j in plan.upper], lower, den, coef,
                               (order - p0) // lp + 1)
            for t, (bn, bd) in enumerate(block):
                c, key = coeffs[p0 + t * lp], (n - 2 * b, b + t * yp)
                c[key] = c.get(key, 0) + m * Fraction(bn, bd)
    return LambdaSeries(order, [BivarPoly(c) for c in coeffs])
