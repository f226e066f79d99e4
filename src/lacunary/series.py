"""Exact-arithmetic substrate: sparse bivariate polynomials and truncated series.

No floating point enters this module.  A :class:`BivarPoly` is a sparse
polynomial in the variables ``x`` and ``y``, stored as integer numerators
over one positive integer denominator (the layout of FLINT's ``fmpq_poly``):
ring operations do integer work.  A sum takes one ``lcm`` of the
denominators and one ``gcd`` pass over the numerators.  A scalar product
cross-cancels: it takes no ``gcd`` over the numerators for an ``int``, and
reuses them uncopied when the cancellation leaves them a factor of 1.
Its coefficients read as ``fractions.Fraction``.  Two polynomials multiply,
and add, in one place, :meth:`BivarPoly.dot`, a sum of products over one
``lcm``.  A :class:`LambdaSeries` is a formal power series in a third
variable (written ``lambda`` in most of the package, ``mu`` in the
normal-ordering code) truncated at an explicit inclusive order, with
``BivarPoly`` coefficients.

Truncation semantics: the product of two series takes the lower of their
orders and silently truncates -- the result is exact for every coefficient
it retains.  Differentiation in lambda (:func:`lacunary.operators.shift`)
decreases the order and raises :class:`TruncationUnderflowError` when asked
to drop below order 0.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd, lcm


class TruncationUnderflowError(ValueError):
    """Requested more differentiations than the truncation order supports."""


_INTEGER = re.compile(r"-?[0-9]+")


def _json_int(value) -> int:
    """A JSON integer, or a string of one in decimal; floats and booleans are refused."""
    if type(value) is int or (type(value) is str and _INTEGER.fullmatch(value)):
        return int(value)
    raise TypeError(f"expected an integer or a decimal-integer string, got {value!r}")


def _exact(value):
    """value itself if it is an int or a Fraction; floats and other numbers are refused."""
    if isinstance(value, (int, Fraction)):
        return value
    raise TypeError(f"expected an int or a Fraction, got {value!r}")


def _exponents(xp: int, yp: int) -> tuple[int, int]:
    """The key (xp, yp) of x^xp * y^yp; negative exponents are refused."""
    if xp < 0 or yp < 0:
        raise ValueError(f"negative exponent in term ({xp},{yp})")
    return xp, yp


class BivarPoly:
    """Sparse exact polynomial in x and y.

    ``num`` maps ``(x_power, y_power)`` to a non-zero integer numerator and
    ``den`` is the one positive denominator, with gcd(den, *numerators) = 1,
    so equal polynomials have equal ``(num, den)``.  Instances are immutable
    by convention; all operations return new polynomials.
    """

    __slots__ = ("num", "den")

    def __init__(self, terms=None):
        """From a dict (x_power, y_power) -> int or Fraction; zero values are dropped."""
        items = [(_exponents(*k), c) for k, c in (terms or {}).items() if _exact(c)]
        # over the lcm of reduced denominators the numerators share no factor with it
        den = lcm(*(c.denominator for _, c in items))
        self.num = {k: c.numerator * (den // c.denominator) for k, c in items}
        self.den = den

    # -- constructors -------------------------------------------------

    @classmethod
    def from_numerators(cls, num: dict, den: int = 1) -> "BivarPoly":
        """Wrap integer numerators, none of them zero, over den > 0, without copying.

        The common factor of den and the numerators is divided out.
        """
        if den != 1:
            g = gcd(den, *num.values())
            if g != 1:
                num = {k: v // g for k, v in num.items()}
                den //= g
        out = cls.__new__(cls)
        out.num = num
        out.den = den
        return out

    @classmethod
    def monomial(cls, c, xp: int, yp: int) -> "BivarPoly":
        """c * x^xp * y^yp for an int or Fraction c."""
        key = _exponents(xp, yp)
        return cls.from_numerators({key: c.numerator} if _exact(c) else {}, c.denominator)

    @staticmethod
    def dot(pairs) -> "BivarPoly":
        """The sum of a * b over the (a, b) in pairs: the one product of polynomials.

        The integer products are summed in one dict per denominator a.den * b.den
        and merged once, over the lcm of those denominators.  A pair with a zero
        factor is skipped, so its denominator does not enter the lcm.
        """
        by_den = {}
        for a, b in pairs:
            if not (a.num and b.num):
                continue
            den = a.den * b.den
            acc = by_den.get(den)
            if acc is None:
                acc = by_den[den] = {}
            b_items = b.num.items()
            for (ax, ay), an in a.num.items():
                for (bx, by), bn in b_items:
                    k = (ax + bx, ay + by)
                    acc[k] = acc[k] + an * bn if k in acc else an * bn
        return _merge(by_den)

    @property
    def terms(self) -> dict:
        """A new dict (x_power, y_power) -> Fraction on each read."""
        den = self.den
        return {k: Fraction(v, den) for k, v in self.num.items()}

    # -- ring operations ----------------------------------------------

    def __add__(self, other):
        if not isinstance(other, BivarPoly):
            return NotImplemented
        return BivarPoly.dot(((self, _ONE), (other, _ONE)))

    __radd__ = __add__  # bench/tracer.py patches the operator by this name

    def __neg__(self):
        # negation keeps gcd(den, *numerators) = 1, so no gcd pass is needed
        out = BivarPoly.__new__(BivarPoly)
        out.num = {k: -v for k, v in self.num.items()}
        out.den = self.den
        return out

    def __sub__(self, other):
        if not isinstance(other, BivarPoly):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (Fraction, int)):
            if not other:
                return BivarPoly()
            # Cross-cancellation (Knuth, TAOCP 4.5.1): N/D and n/d are in lowest
            # terms; g = gcd(n, D), h = gcd(d, *N).  A prime of D/g is not in n/g,
            # and not in every N/h, as gcd(D, *N) = 1; a prime p of d/h is not in
            # n, and not in every N/h, as p*h would divide h.  So the result
            # (N/h)(n/g) / (D/g)(d/h) is in lowest terms, and its den stays > 0.
            # A factor of 1 leaves N as it is, shared, as polynomials are immutable.
            n, d, num, den = other.numerator, other.denominator, self.num, self.den
            g = gcd(n, den)
            h = gcd(d, *num.values()) if d != 1 else 1
            n //= g
            if h != 1:
                num = {k: v // h * n for k, v in num.items()}
            elif n != 1:
                num = {k: v * n for k, v in num.items()}
            out = BivarPoly.__new__(BivarPoly)
            out.num = num
            out.den = den // g * (d // h)
            return out
        if not isinstance(other, BivarPoly):
            return NotImplemented
        return BivarPoly.dot(((self, other),))

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, BivarPoly):
            return NotImplemented
        return self.den == other.den and self.num == other.num

    # -- queries --------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.num

    def degree_x(self) -> int:
        """Degree in x; -1 for the zero polynomial."""
        return max((xp for xp, _ in self.num), default=-1)

    def sorted_terms(self):
        """Canonical ordering: x-power descending, then y-power ascending."""
        return sorted(self.terms.items(), key=lambda kv: (-kv[0][0], kv[0][1]))

    # -- serialization ----------------------------------------------------

    def to_json(self) -> list:
        return [
            {"xp": xp, "yp": yp, "num": str(c.numerator), "den": str(c.denominator)}
            for (xp, yp), c in self.sorted_terms()
        ]

    @classmethod
    def from_json(cls, data: list) -> "BivarPoly":
        if not isinstance(data, list):
            raise TypeError(f"a polynomial is a JSON list of terms, got {data!r}")
        terms = {(t["xp"], t["yp"]): Fraction(_json_int(t["num"]), _json_int(t["den"]))
                 for t in data}
        if len(terms) < len(data) or any(type(e) is not int for k in terms for e in k):
            raise TypeError("polynomial terms need distinct integer exponents")
        return cls(terms)

    def __str__(self):
        if not self.num:
            return "0"
        parts = []
        for (xp, yp), c in self.sorted_terms():
            factors = [str(c)]
            if xp:
                factors.append(f"x^{xp}" if xp != 1 else "x")
            if yp:
                factors.append(f"y^{yp}" if yp != 1 else "y")
            parts.append(" * ".join(factors))
        return " + ".join(parts)

    def __repr__(self):
        return f"BivarPoly({self})"


_ONE = BivarPoly.monomial(1, 0, 0)


def _merge(by_den: dict) -> BivarPoly:
    """One BivarPoly from {den: {(xp, yp): num}} buckets, summed over the lcm of the dens;
    a den <= 0 raises ValueError."""
    if len(by_den) == 1:
        [(den, num)] = by_den.items()
        if den <= 0:
            raise ValueError(f"bucket denominators must be positive, got {den}")
    else:
        den, num = lcm(*by_den), {}
        for d, acc in by_den.items():
            if d <= 0:
                raise ValueError(f"bucket denominators must be positive, got {d}")
            f = den // d
            for k, v in acc.items():
                v *= f
                num[k] = num[k] + v if k in num else v
    if 0 in num.values():  # only a sum that cancelled holds a zero
        num = {k: v for k, v in num.items() if v}
    return BivarPoly.from_numerators(num, den)


class LambdaSeries:
    """Truncated formal power series with BivarPoly coefficients.

    ``order`` is the inclusive truncation bound; ``coeffs`` has exactly
    ``order + 1`` entries.  The product of two series has the lower of
    the two orders.
    """

    __slots__ = ("order", "coeffs")

    def __init__(self, order: int, coeffs=None):
        if order < 0:
            raise ValueError("series order must be non-negative")
        if coeffs is None:
            coeffs = [BivarPoly()] * (order + 1)
        else:
            coeffs = list(coeffs)
            if len(coeffs) != order + 1:
                raise ValueError(
                    f"expected {order + 1} coefficients, got {len(coeffs)}"
                )
            coeffs = [
                c if isinstance(c, BivarPoly) else BivarPoly.monomial(c, 0, 0)
                for c in coeffs
            ]
        self.order = order
        self.coeffs = coeffs

    @classmethod
    def collect(cls, sums: list) -> "LambdaSeries":
        """The series whose lambda^p coefficient is the sum of the buckets sums[p].

        sums[p] is {den: {(xp, yp): num}}, integer numerators each over its
        den > 0, which a producer fills in place; the order is len(sums) - 1.
        A den <= 0 raises ValueError.  Each lambda-power is merged once, over the
        lcm of its denominators, so sums of zero vanish.  A lone bucket's dict may
        become the result's numerators as it is: the producer must not reuse its
        buckets after the call.
        """
        return cls(len(sums) - 1, [_merge(by_den) for by_den in sums])

    # -- arithmetic -----------------------------------------------------

    def __mul__(self, other):
        if isinstance(other, (Fraction, int, BivarPoly)):
            return LambdaSeries(self.order, [c * other for c in self.coeffs])
        if not isinstance(other, LambdaSeries):
            return NotImplemented
        n = min(self.order, other.order)
        a, b = self.coeffs, other.coeffs
        return LambdaSeries(n, [BivarPoly.dot((a[i], b[k - i]) for i in range(k + 1))
                                for k in range(n + 1)])

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, LambdaSeries):
            return NotImplemented
        return self.order == other.order and self.coeffs == other.coeffs

    # -- serialization ----------------------------------------------------

    def to_json(self) -> dict:
        return {"order": self.order, "coeffs": [c.to_json() for c in self.coeffs]}

    @classmethod
    def from_json(cls, data: dict) -> "LambdaSeries":
        if type(data["order"]) is not int:
            raise TypeError(f"series order must be an integer, got {data['order']!r}")
        return cls(data["order"], [BivarPoly.from_json(c) for c in data["coeffs"]])

    def __str__(self):
        parts = []
        for n, c in enumerate(self.coeffs):
            if c.is_zero():
                continue
            lam = "" if n == 0 else "λ·" if n == 1 else f"λ^{n}·"
            parts.append(lam + (str(c) if len(c.num) == 1 else f"({c})"))
        return " + ".join(parts) if parts else "0"

    def __repr__(self):
        return f"LambdaSeries(order={self.order}, {self})"
