"""Dense univariate polynomials over exact rationals, in the one coefficient
format of the package: a positive rational content times a primitive integer
tuple (gcd 1, no trailing zero, carrying the sign), the canonical form of von
zur Gathen and Gerhard, *Modern Computer Algebra*, §6.2.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm, prod
from typing import Iterable, Sequence

from .exact import Rational

def clear_denominators(values: Sequence[Rational | int]) -> tuple[int, list[int]]:
    """The lcm d of the denominators of `values`, and the integers d * v."""
    d = lcm(*(v.denominator for v in values))
    return d, [v.numerator * (d // v.denominator) for v in values]


def primitive_split(ints: Sequence[int]) -> tuple[int, list[int]]:
    """The content g >= 0 (the gcd) of an integer polynomial and its
    primitive part, trailing zeros dropped; (0, []) for the zero polynomial."""
    g = gcd(*ints)
    if g == 0:
        return 0, []
    prim = [c // g for c in ints]
    while prim[-1] == 0:
        prim.pop()
    return g, prim


def horner(ints: Sequence[int], x: Rational | int) -> tuple[int, int]:
    """Integer Horner pass: (v, q^d) with v / q^d the value at x = p/q of the
    integer polynomial `ints` of degree d."""
    if not ints:
        return 0, 1
    p, q = x.numerator, x.denominator
    acc, qpow = ints[-1], 1
    for c in reversed(ints[:-1]):
        qpow *= q
        acc = acc * p + c * qpow
    return acc, qpow


class RatPoly:
    """Immutable dense polynomial content * primitive; coefficient i
    multiplies x**i.  The form is canonical, so equality and hashing compare
    the two slots; zero has content 1, no coefficients and degree -1."""

    __slots__ = ("_content", "_prim")

    def __init__(self, coeffs: Iterable[Rational | int] = ()):
        denom, ints = clear_denominators(tuple(coeffs))
        g, prim = primitive_split(ints)
        self._content = Fraction(g, denom) if prim else Fraction(1)
        self._prim = tuple(prim)

    @classmethod
    def _make(cls, content: Fraction, prim: tuple[int, ...]) -> "RatPoly":
        """Trusted constructor: content > 0, prim primitive and trimmed."""
        p = object.__new__(cls)
        p._content, p._prim = content if prim else Fraction(1), prim
        return p

    # -- construction helpers -------------------------------------------------

    @classmethod
    def zero(cls) -> "RatPoly":
        return cls()

    @classmethod
    def one(cls) -> "RatPoly":
        return cls((1,))

    @classmethod
    def x(cls) -> "RatPoly":
        return cls((0, 1))

    # -- basic queries ---------------------------------------------------------

    @property
    def content(self) -> Fraction:
        """The positive rational content."""
        return self._content

    @property
    def primitive(self) -> tuple[int, ...]:
        """The primitive integer part, carrying the sign."""
        return self._prim

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        return tuple(c * self._content for c in self._prim)

    @property
    def degree(self) -> int:
        return len(self._prim) - 1

    @property
    def leading(self) -> Fraction:
        if not self._prim:
            raise ValueError("zero polynomial has no leading coefficient")
        return self._prim[-1] * self._content

    def coeff(self, i: int) -> Fraction:
        if 0 <= i < len(self._prim):
            return self._prim[i] * self._content
        return Fraction(0)

    def is_zero(self) -> bool:
        return not self._prim

    def __bool__(self) -> bool:
        return bool(self._prim)

    # -- ring operations -------------------------------------------------------

    def __add__(self, other: "RatPoly | Rational | int") -> "RatPoly":
        other = _as_poly(other)
        # Over the common denominator d of the contents the sum is
        # (sa * prim_a + sb * prim_b) / d with integers sa, sb.
        d, (sa, sb) = clear_denominators((self._content, other._content))
        a, b = self._prim, other._prim
        out = [sa * c for c in a] + [0] * (len(b) - len(a))
        for i, c in enumerate(b):
            out[i] += sb * c
        g, prim = primitive_split(out)
        return RatPoly._make(Fraction(g, d), tuple(prim))

    __radd__ = __add__

    def __neg__(self) -> "RatPoly":
        return RatPoly._make(self._content, tuple(-c for c in self._prim))

    def __sub__(self, other: "RatPoly | Rational | int") -> "RatPoly":
        return self + (-_as_poly(other))

    def __rsub__(self, other: "RatPoly | Rational | int") -> "RatPoly":
        return _as_poly(other) + (-self)

    def __mul__(self, other: "RatPoly | Rational | int") -> "RatPoly":
        if isinstance(other, (int, Fraction)):
            if other == 0:
                return RatPoly()
            if other > 0:
                return RatPoly._make(self._content * other, self._prim)
            return RatPoly._make(self._content * -other, tuple(-c for c in self._prim))
        a, b = self._prim, other._prim
        if not a or not b:
            return RatPoly()
        # Gauss's lemma: the product of primitive parts is primitive.
        out = [0] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca == 0:
                continue
            for j, cb in enumerate(b):
                out[i + j] += ca * cb
        return RatPoly._make(self._content * other._content, tuple(out))

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "RatPoly":
        if k < 0:
            raise ValueError("negative power")
        result = RatPoly.one()
        for _ in range(k):
            result = result * self
        return result

    def shift_up(self, k: int) -> "RatPoly":
        """Multiply by x**k."""
        if k < 0:
            raise ValueError("shift must be >= 0")
        if not self._prim:
            return self
        return RatPoly._make(self._content, (0,) * k + self._prim)

    def derivative(self) -> "RatPoly":
        g, prim = primitive_split([i * c for i, c in enumerate(self._prim)][1:])
        return RatPoly._make(self._content * g, tuple(prim))

    # -- evaluation ------------------------------------------------------------

    def __call__(self, x: Rational | int) -> Fraction:
        """Exact value: an integer Horner pass and one division."""
        v, qpow = horner(self._prim, x)
        c = self._content
        return Fraction(v * c.numerator, qpow * c.denominator)

    # -- comparison / hashing / display ----------------------------------------

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)):
            other = _as_poly(other)
        if not isinstance(other, RatPoly):
            return NotImplemented
        return self._prim == other._prim and self._content == other._content

    def __hash__(self) -> int:
        return hash((self._content, self._prim))

    def __repr__(self) -> str:
        return f"RatPoly({list(self.coeffs)!r})"

    def __str__(self) -> str:
        if not self._prim:
            return "0"
        parts = []
        for i, c in reversed(list(enumerate(self.coeffs))):
            if c == 0:
                continue
            mag = -c if c < 0 else c
            if i == 0:
                term = f"{mag}"
            elif i == 1:
                term = "x" if mag == 1 else f"{mag}*x"
            else:
                term = f"x^{i}" if mag == 1 else f"{mag}*x^{i}"
            if not parts:
                parts.append(term if c > 0 else f"-{term}")
            else:
                parts.append(f"+ {term}" if c > 0 else f"- {term}")
        return " ".join(parts)


def _as_poly(v: RatPoly | Rational | int) -> RatPoly:
    if isinstance(v, RatPoly):
        return v
    return RatPoly((v,))


def poly_interpolate(points: Sequence[tuple[Rational | int, Rational | int]]) -> RatPoly:
    """Unique polynomial of degree < len(points) through the given points.

    Integer Lagrange form: with abscissae X_i / d and values Y_i / e over
    common denominators, weights w_i = prod_{j != i} (X_i - X_j) and
    L = lcm(w_i), the polynomial is sum_i Y_i (L / w_i) N(t) / (t - X_i) at
    t = d x, divided once by e L, where N(t) = prod_j (t - X_j).  Duplicate
    abscissae are a caller bug.
    """
    xs = [Fraction(x) for x, _ in points]
    if len(set(xs)) != len(xs):
        raise ValueError("duplicate abscissa in interpolation data")
    if not points:
        return RatPoly()
    d, X = clear_denominators(xs)
    e, Y = clear_denominators([y for _, y in points])
    node = [1]  # N(t), ascending powers
    for xj in X:
        node = [a - xj * b for a, b in zip([0, *node], [*node, 0])]
    weights = [prod(xi - xj for xj in X if xj != xi) for xi in X]
    scale = lcm(*weights)
    acc = [0] * len(X)
    for xi, yi, wi in zip(X, Y, weights):
        factor, q = yi * (scale // wi), 0
        for k in range(len(X), 0, -1):  # synthetic division of N by t - X_i
            q = node[k] + xi * q
            acc[k - 1] += factor * q
    g, prim = primitive_split([c * d**k for k, c in enumerate(acc)])
    return RatPoly._make(Fraction(g, e * scale), tuple(prim))
