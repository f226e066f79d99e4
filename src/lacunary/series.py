"""Exact-arithmetic substrate: sparse bivariate polynomials and truncated series.

Coefficients are ``fractions.Fraction`` throughout -- no floating point
enters this module.  A :class:`BivarPoly` is a sparse polynomial in the
variables ``x`` and ``y``; a :class:`LambdaSeries` is a formal power series
in a third variable (written ``lambda`` in most of the package, ``mu`` in
the normal-ordering code) truncated at an explicit inclusive order, with
``BivarPoly`` coefficients.

Truncation semantics: binary operations on two series combine orders with
``min`` and silently truncate -- the result is exact for every coefficient
it retains.  Differentiation decreases the order and raises
:class:`TruncationUnderflowError` when asked to drop below order 0.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial


class TruncationUnderflowError(ValueError):
    """Requested more differentiations than the truncation order supports."""


Rational = Fraction | int


def _frac(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    return Fraction(value)


def _accumulate(terms: dict, k, c: Fraction):
    """terms[k] += c for a non-zero c, keeping terms free of zero coefficients."""
    if k in terms:
        s = terms[k] + c
        if s:
            terms[k] = s
        else:
            del terms[k]
    else:
        terms[k] = c


class BivarPoly:
    """Sparse exact polynomial in x and y.

    Terms are stored as a dict ``(x_power, y_power) -> Fraction`` with no
    zero coefficients.  Instances are immutable by convention; all
    operations return new polynomials.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        clean = {}
        for (xp, yp), c in (terms or {}).items():
            c = _frac(c)
            if c != 0:
                if xp < 0 or yp < 0:
                    raise ValueError(f"negative exponent in term ({xp},{yp})")
                clean[(xp, yp)] = c
        self.terms = clean

    # -- constructors -------------------------------------------------

    @classmethod
    def _of(cls, terms: dict) -> "BivarPoly":
        """Wrap a dict already free of zero coefficients, without copying it."""
        out = cls.__new__(cls)
        out.terms = terms
        return out

    @classmethod
    def zero(cls) -> "BivarPoly":
        return cls()

    @classmethod
    def constant(cls, c) -> "BivarPoly":
        return cls({(0, 0): _frac(c)})

    @classmethod
    def monomial(cls, c, xp: int, yp: int) -> "BivarPoly":
        return cls({(xp, yp): _frac(c)})

    @classmethod
    def x(cls) -> "BivarPoly":
        return cls({(1, 0): Fraction(1)})

    @classmethod
    def y(cls) -> "BivarPoly":
        return cls({(0, 1): Fraction(1)})

    # -- ring operations ----------------------------------------------

    def __add__(self, other):
        if isinstance(other, (Fraction, int)):
            other = BivarPoly.constant(other)
        if not isinstance(other, BivarPoly):
            return NotImplemented
        terms = dict(self.terms)
        for k, c in other.terms.items():
            _accumulate(terms, k, c)
        return BivarPoly._of(terms)

    __radd__ = __add__

    def __neg__(self):
        return BivarPoly._of({k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, (Fraction, int)):
            other = BivarPoly.constant(other)
        if not isinstance(other, BivarPoly):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (Fraction, int)):
            c = _frac(other)
            if c == 0:
                return BivarPoly.zero()
            return BivarPoly._of({k: v * c for k, v in self.terms.items()})
        if not isinstance(other, BivarPoly):
            return NotImplemented
        terms = {}
        for (ax, ay), ac in self.terms.items():
            for (bx, by), bc in other.terms.items():
                _accumulate(terms, (ax + bx, ay + by), ac * bc)
        return BivarPoly._of(terms)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative polynomial power")
        result = BivarPoly.constant(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def __eq__(self, other):
        if isinstance(other, (Fraction, int)):
            other = BivarPoly.constant(other)
        if not isinstance(other, BivarPoly):
            return NotImplemented
        return self.terms == other.terms

    def __bool__(self):
        return bool(self.terms)

    def __hash__(self):
        if self.terms.keys() <= {(0, 0)}:  # a constant hashes like the number it equals
            return hash(self.coefficient(0, 0))
        return hash(frozenset(self.terms.items()))

    # -- queries --------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def degree_x(self) -> int:
        """Degree in x; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(xp for xp, _ in self.terms)

    def coefficient(self, xp: int, yp: int) -> Fraction:
        return self.terms.get((xp, yp), Fraction(0))

    def diff_x(self, times: int = 1) -> "BivarPoly":
        p = self
        for _ in range(times):
            terms = {}
            for (xp, yp), c in p.terms.items():
                if xp >= 1:
                    terms[(xp - 1, yp)] = c * xp
            p = BivarPoly(terms)
        return p

    def evaluate(self, xv, yv) -> Fraction:
        xv, yv = _frac(xv), _frac(yv)
        total = Fraction(0)
        for (xp, yp), c in self.terms.items():
            total += c * xv**xp * yv**yp
        return total

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
        terms = {(t["xp"], t["yp"]): Fraction(int(t["num"]), int(t["den"])) for t in data}
        if len(terms) < len(data) or any(type(e) is not int for k in terms for e in k):
            raise TypeError("polynomial terms need distinct integer exponents")
        return cls(terms)

    def __str__(self):
        if not self.terms:
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


class LambdaSeries:
    """Truncated formal power series with BivarPoly coefficients.

    ``order`` is the inclusive truncation bound; ``coeffs`` has exactly
    ``order + 1`` entries.  Binary operations return a series of the
    minimum of the two orders.
    """

    __slots__ = ("order", "coeffs")

    def __init__(self, order: int, coeffs=None):
        if order < 0:
            raise ValueError("series order must be non-negative")
        if coeffs is None:
            coeffs = [BivarPoly.zero()] * (order + 1)
        else:
            coeffs = list(coeffs)
            if len(coeffs) != order + 1:
                raise ValueError(
                    f"expected {order + 1} coefficients, got {len(coeffs)}"
                )
            coeffs = [
                c if isinstance(c, BivarPoly) else BivarPoly.constant(c)
                for c in coeffs
            ]
        self.order = order
        self.coeffs = coeffs

    @classmethod
    def zero(cls, order: int) -> "LambdaSeries":
        return cls(order)

    @classmethod
    def one(cls, order: int) -> "LambdaSeries":
        coeffs = [BivarPoly.zero()] * (order + 1)
        coeffs[0] = BivarPoly.constant(1)
        return cls(order, coeffs)

    @classmethod
    def monomial(cls, order: int, power: int, coeff) -> "LambdaSeries":
        """Single term coeff * lambda^power, truncated at `order`."""
        s = cls(order)
        if power <= order:
            if not isinstance(coeff, BivarPoly):
                coeff = BivarPoly.constant(coeff)
            s.coeffs[power] = coeff
        return s

    @classmethod
    def collect(cls, order: int, terms) -> "LambdaSeries":
        """Sum of c * x^xp * y^yp * lambda^p over the (p, xp, yp, c) in `terms`.

        Terms with p > order are dropped.  Each lambda-coefficient is summed
        in one dict and becomes a BivarPoly once, so sums of zero vanish.
        """
        sums = [{} for _ in range(order + 1)]
        for p, xp, yp, c in terms:
            if p <= order:
                acc = sums[p]
                key = (xp, yp)
                acc[key] = acc[key] + c if key in acc else c
        return cls(order, [
            BivarPoly._of({k: _frac(c) for k, c in acc.items() if c != 0})
            for acc in sums
        ])

    def coefficient(self, n: int) -> BivarPoly:
        if n > self.order:
            raise TruncationUnderflowError(
                f"coefficient {n} beyond truncation order {self.order}"
            )
        return self.coeffs[n]

    def truncate(self, order: int) -> "LambdaSeries":
        if order >= self.order:
            return self
        return LambdaSeries(order, self.coeffs[: order + 1])

    # -- arithmetic -----------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, LambdaSeries):
            return NotImplemented
        n = min(self.order, other.order)
        return LambdaSeries(
            n, [self.coeffs[i] + other.coeffs[i] for i in range(n + 1)]
        )

    def __sub__(self, other):
        if not isinstance(other, LambdaSeries):
            return NotImplemented
        n = min(self.order, other.order)
        return LambdaSeries(
            n, [self.coeffs[i] - other.coeffs[i] for i in range(n + 1)]
        )

    def __neg__(self):
        return LambdaSeries(self.order, [-c for c in self.coeffs])

    def __mul__(self, other):
        if isinstance(other, (Fraction, int, BivarPoly)):
            return LambdaSeries(self.order, [c * other for c in self.coeffs])
        if not isinstance(other, LambdaSeries):
            return NotImplemented
        n = min(self.order, other.order)
        return LambdaSeries.collect(n, (
            (i + j, ax + bx, ay + by, ac * bc)
            for i, a in enumerate(self.coeffs[: n + 1])
            for (ax, ay), ac in a.terms.items()
            for j, b in enumerate(other.coeffs[: n + 1 - i])
            for (bx, by), bc in b.terms.items()
        ))

    __rmul__ = __mul__

    def shifted(self, k: int) -> "LambdaSeries":
        """Multiply by lambda^k, keeping the truncation order."""
        if k < 0:
            raise ValueError("negative lambda shift")
        if k == 0:
            return self
        coeffs = [BivarPoly.zero()] * (self.order + 1)
        for n in range(self.order + 1 - k):
            coeffs[n + k] = self.coeffs[n]
        return LambdaSeries(self.order, coeffs)

    def diff_lambda(self, times: int = 1) -> "LambdaSeries":
        """times-fold derivative; the order drops by `times`."""
        if times < 0:
            raise ValueError("negative differentiation count")
        if times > self.order:
            raise TruncationUnderflowError(
                f"cannot differentiate {times} times at order {self.order}"
            )
        new_order = self.order - times
        coeffs = [
            self.coeffs[n + times] * Fraction(factorial(n + times), factorial(n))
            for n in range(new_order + 1)
        ]
        return LambdaSeries(new_order, coeffs)

    def __eq__(self, other):
        if not isinstance(other, LambdaSeries):
            return NotImplemented
        return self.order == other.order and self.coeffs == other.coeffs

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.coeffs)

    # -- serialization ----------------------------------------------------

    def to_json(self) -> dict:
        return {"order": self.order, "coeffs": [c.to_json() for c in self.coeffs]}

    @classmethod
    def from_json(cls, data: dict) -> "LambdaSeries":
        return cls(
            data["order"], [BivarPoly.from_json(c) for c in data["coeffs"]]
        )

    def __str__(self):
        parts = []
        for n, c in enumerate(self.coeffs):
            if c.is_zero():
                continue
            if n == 0:
                parts.append(str(c) if len(c.terms) == 1 else f"({c})")
            else:
                lam = "λ" if n == 1 else f"λ^{n}"
                body = str(c) if len(c.terms) == 1 else f"({c})"
                parts.append(f"{lam}·{body}")
        return " + ".join(parts) if parts else "0"

    def __repr__(self):
        return f"LambdaSeries(order={self.order}, {self})"


def series_exp(a: LambdaSeries) -> LambdaSeries:
    """exp of a series with vanishing constant term, truncated exactly.

    g = exp(a) solves g' = a' g, so n g_n = sum_k k a_k g_(n-k): order^2
    polynomial products, over the non-zero a_k only.
    """
    if not a.coeffs[0].is_zero():
        raise ValueError("series_exp requires zero constant term")
    ka = [(k, c * k) for k, c in enumerate(a.coeffs) if c]
    g = [BivarPoly.constant(1)]
    for n in range(1, a.order + 1):
        gn = sum((c * g[n - k] for k, c in ka if k <= n), BivarPoly.zero())
        g.append(gn * Fraction(1, n))
    return LambdaSeries(a.order, g)
