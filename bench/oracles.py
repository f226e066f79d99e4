"""Reference computations made outside the lacunary package.

Nothing here imports ``lacunary``.  Polynomials in x and y are plain dicts
``{(x_power, y_power): coefficient}`` with no zero entries; truncated series
in the series variable are lists of such dicts.  The benchmark compares the
package's outputs with these, so a wrong answer cannot pass by agreeing
with another part of the same package.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, factorial
from types import MappingProxyType


@lru_cache(maxsize=None)
def hermite(n: int) -> MappingProxyType:
    """H_n(x, y) = n! sum_k x^(n-2k) y^k / ((n-2k)! k!), in integers only."""
    nf = factorial(n)
    return MappingProxyType({
        (n - 2 * k, k): nf // (factorial(n - 2 * k) * factorial(k))
        for k in range(n // 2 + 1)
    })


def sympy_hermite_mismatches(n_max: int) -> list[int]:
    """Indices n <= n_max where H_n(2x, -1) differs from sympy.hermite(n, x).

    The substitution x -> 2x, y -> -1 turns the two-variable polynomial into
    the physicists' Hermite polynomial.  Raises ImportError without sympy.
    """
    import sympy

    t = sympy.Symbol("t")
    bad = []
    for n in range(n_max + 1):
        ours = [0] * (n + 1)
        for (xp, yp), c in hermite(n).items():
            ours[xp] += c * 2**xp * (-1) ** yp
        ref = sympy.Poly(sympy.hermite(n, t), t).all_coeffs()[::-1]
        if [int(c) for c in ref] != ours:
            bad.append(n)
    return bad


def poly_add(a: dict, b: dict) -> dict:
    out = dict(a)
    for k, c in b.items():
        s = out.get(k, 0) + c
        if s:
            out[k] = s
        else:
            out.pop(k, None)
    return out


def poly_mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for (ax, ay), ac in a.items():
        for (bx, by), bc in b.items():
            k = (ax + bx, ay + by)
            s = out.get(k, 0) + ac * bc
            if s:
                out[k] = s
            else:
                out.pop(k, None)
    return out


def poly_scale(a: dict, c) -> dict:
    return {k: v * c for k, v in a.items()} if c else {}


def hermite_series(indices) -> list[dict]:
    """Series whose lambda^p coefficient is H_(indices[p]) / p!."""
    return [poly_scale(hermite(i), Fraction(1, factorial(p)))
            for p, i in enumerate(indices)]


def dilate_direct(entries: dict, K: int, order: int, parity: int | None = None) -> list[dict]:
    """Direct K-fold dilatation of a coefficient table.

    ``entries`` maps (r, m) to a polynomial in y given as {y_power: value};
    the result is [lambda^p] = sum_{r+m=pK} x^r g_{r,m}(y) / p! for p <= order,
    keeping only second indices m of the given parity when one is given.
    """
    out = []
    for p in range(order + 1):
        acc: dict = {}
        for r in range(p * K + 1):
            m = p * K - r
            if parity is not None and m % 2 != parity:
                continue
            for yp, c in entries.get((r, m), {}).items():
                acc = poly_add(acc, {(r, yp): Fraction(c) / factorial(p)})
        out.append(acc)
    return out


def series_mul(a: list[dict], b: list[dict]) -> list[dict]:
    """Cauchy product of two series of equal truncation order."""
    out = []
    for n in range(len(a)):
        acc: dict = {}
        for i in range(n + 1):
            acc = poly_add(acc, poly_mul(a[i], b[n - i]))
        out.append(acc)
    return out


def flow_exp(v: dict, f: dict, order: int) -> list[dict]:
    """exp(mu v) f for a multiplication operator v: [mu^k] = v^k f / k!."""
    out = []
    vk = dict(f)
    for k in range(order + 1):
        out.append(poly_scale(vk, Fraction(1, factorial(k))))
        vk = poly_mul(vk, v)
    return out


def flow_translate(q: dict, f: dict, order: int) -> list[dict]:
    """exp(mu q d/dx) f = f(x + q mu) for q free of x, by the binomial theorem."""
    out = []
    qk = {(0, 0): 1}
    for k in range(order + 1):
        acc: dict = {}
        for (j, b), c in f.items():
            if j >= k:
                acc = poly_add(acc, poly_mul({(j - k, b): c * comb(j, k)}, qk))
        out.append(acc)
        qk = poly_mul(qk, q)
    return out


def flow_translate_T(q: dict, order: int) -> list[dict]:
    """The substitution function of q d/dx for q free of x: T = x + q mu."""
    return ([{(1, 0): 1}, dict(q)] + [{} for _ in range(order - 1)])[: order + 1]


def flow_quadratic(b: dict, f: dict, order: int) -> list[dict]:
    """exp(mu b x^2 d/dx) f = f(x / (1 - b mu x)) for b free of x.

    x^j / (1 - b mu x)^j = sum_k C(j+k-1, k) b^k mu^k x^(j+k).
    """
    out = []
    bk = {(0, 0): 1}
    for k in range(order + 1):
        acc: dict = {}
        for (j, e), c in f.items():
            if j == 0:
                if k == 0:
                    acc = poly_add(acc, {(0, e): c})
                continue
            acc = poly_add(acc, poly_mul({(j + k, e): c * comb(j + k - 1, k)}, bk))
        out.append(acc)
        bk = poly_mul(bk, b)
    return out


def flow_quadratic_T(b: dict, order: int) -> list[dict]:
    """The substitution function of b x^2 d/dx: [mu^k] T = b^k x^(k+1)."""
    out = []
    bk = {(0, 0): 1}
    for k in range(order + 1):
        out.append(poly_mul({(k + 1, 0): 1}, bk))
        bk = poly_mul(bk, b)
    return out
