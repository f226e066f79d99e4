"""Checks of the closed forms from outside the paper's algorithm.

The oracles here import nothing from ``lacunary``: polynomials in x and y
are plain dicts (x_power, y_power) -> rational, and the series under test
is read only through ``.terms``.  They catch a defect that every
construction in the package shares, which the cross-checks between the
constructions cannot.
"""

from fractions import Fraction
from math import comb, factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lacunary import closed_form_HKL


def _neg_power(e: int, i: int) -> int:
    """[z^i] (1 - 4z)^(-e) for e >= 0: C(e+i-1, i) 4^i."""
    return comb(e + i - 1, i) * 4**i if e else int(i == 0)


def k2_oracle(L: int, order: int) -> list[dict]:
    """[t^n], n = 0 ... order, of the K = 2 generating function in closed form,

        sum_n t^n/n! H_(2n+L)(x, y) = (1-4yt)^(-1/2) exp(x^2 t u) H_L(x u, y u),

    u = 1/(1-4yt).  exp gives (x^2 t)^j u^j / j!, H_L(x u, y u) gives
    L!/((L-2k)! k!) x^(L-2k) y^k u^(L-k), and u^e (1-4yt)^(-1/2) expands in
    (yt)^i through the binomials C(e+a-1, a) 4^a and C(2b, b), a + b = i.
    """
    out = [{} for _ in range(order + 1)]
    for j in range(order + 1):
        for k in range(L // 2 + 1):
            e = j + L - k
            c = Fraction(factorial(L), factorial(j) * factorial(L - 2 * k) * factorial(k))
            for i in range(order + 1 - j):
                w = sum(_neg_power(e, a) * comb(2 * (i - a), i - a) for a in range(i + 1))
                key = (2 * j + L - 2 * k, k + i)
                out[j + i][key] = out[j + i].get(key, 0) + c * w
    return out


@pytest.mark.parametrize("L", range(4))
def test_k2_closed_form_matches_the_known_generating_function(L):
    series = closed_form_HKL(2, L, 8)
    for n, want in enumerate(k2_oracle(L, 8)):
        assert series.coeffs[n].terms == want, (L, n)


def _diff(poly: dict, axis: int) -> dict:
    """d/dx (axis 0) or d/dy (axis 1) of a plain polynomial dict."""
    out = {}
    for key, c in poly.items():
        if key[axis]:
            lowered = (key[0] - 1, key[1]) if axis == 0 else (key[0], key[1] - 1)
            out[lowered] = c * key[axis]
    return out


@given(st.integers(1, 6), st.integers(0, 4), st.integers(0, 6))
@settings(max_examples=60, deadline=None)
def test_identities_for_every_k_and_l(K, L, n):
    """On g = [lambda^n] G_(K,L) = H_(nK+L)(x, y) / n!: the heat equation, the
    ladder in L, and the values at y = 0 and at x = 0."""
    g = closed_form_HKL(K, L, n).coeffs[n].terms
    assert _diff(g, 1) == _diff(_diff(g, 0), 0), "heat equation"
    if L >= 1:
        # d/dx G_(K,L) = (L + K lambda d/dlambda) G_(K,L-1)
        below = closed_form_HKL(K, L - 1, n).coeffs[n].terms
        assert _diff(g, 0) == {k: (L + K * n) * c for k, c in below.items()}, "ladder"
    # y = 0: x^L exp(lambda x^K)
    assert {k: c for k, c in g.items() if k[1] == 0} == {(n * K + L, 0): Fraction(1, factorial(n))}
    # x = 0: n! g = m!/(m/2)! y^(m/2) for even m = nK + L, and 0 for odd m
    m = n * K + L
    at_zero = {k: c * factorial(n) for k, c in g.items() if k[0] == 0}
    assert at_zero == ({(0, m // 2): factorial(m) // factorial(m // 2)} if m % 2 == 0 else {})
