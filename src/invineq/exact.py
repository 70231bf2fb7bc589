"""Exact scalar arithmetic: rising factorials, certified radical bounds,
a rational pi enclosure, and decimal rendering of rationals.

Everything here is exact.  Irrational values (square roots, cube roots, pi)
are only ever produced as pairs of rationals that provably bracket them, so
that downstream comparisons stay machine-checkable.

Rising factorials run over the integers: with a = p/q in lowest terms,
(a)_n = p (p+q) ... (p+(n-1)q) / q^n, one big-integer product and a single
normalisation.  Decimal rendering rounds to nearest, or in a fixed direction
so that printed enclosure endpoints stay enclosures.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt, prod

# The scalar of all exact computation.  Fraction is always stored in lowest
# terms with a positive denominator, and its arithmetic never rounds.
Rational = Fraction


def pochhammer(a: Rational | int, n: int) -> Rational:
    """Rising factorial a(a+1)...(a+n-1); equals 1 when n == 0.

    With a = p/q this is prod(p + k q, k < n) / q^n, computed over the
    integers and normalised once.
    """
    if n < 0:
        raise ValueError(f"pochhammer needs n >= 0, got {n}")
    a = Fraction(a)
    p, q = a.numerator, a.denominator
    return Fraction(prod(range(p, p + n * q, q)), q**n)


def icbrt(m: int) -> int:
    """Integer cube root: largest r with r**3 <= m (m >= 0)."""
    if m < 0:
        raise ValueError("icbrt needs m >= 0")
    if m == 0:
        return 0
    r = 1 << ((m.bit_length() + 2) // 3)
    while True:
        nr = (2 * r + m // (r * r)) // 3
        if nr >= r:
            break
        r = nr
    while r * r * r > m:
        r -= 1
    return r


def sqrt_bounds(x: Rational, tol: Rational) -> tuple[Rational, Rational]:
    """Rationals (lo, hi) with lo <= sqrt(x) <= hi and hi - lo <= tol.

    Exact square roots collapse to lo == hi.
    """
    if x < 0:
        raise ValueError("sqrt_bounds needs x >= 0")
    if tol <= 0:
        raise ValueError("sqrt_bounds needs tol > 0")
    p, q = x.numerator, x.denominator
    # sqrt(p/q) = sqrt(p*q)/q; scale by k so the 1/(k*q) grid beats tol.
    k = (1 / (tol * q)).__ceil__() + 1
    s = isqrt(p * q * k * k)
    if s * s == p * q * k * k:
        exact = Fraction(s, q * k)
        return exact, exact
    return Fraction(s, q * k), Fraction(s + 1, q * k)


def cbrt_bounds(x: Rational, tol: Rational) -> tuple[Rational, Rational]:
    """Rationals (lo, hi) with lo <= cbrt(x) <= hi and hi - lo <= tol.

    Works for negative x as well (cube root is odd).
    """
    if tol <= 0:
        raise ValueError("cbrt_bounds needs tol > 0")
    if x < 0:
        lo, hi = cbrt_bounds(-x, tol)
        return -hi, -lo
    p, q = x.numerator, x.denominator
    # cbrt(p/q) = cbrt(p*q^2)/q, scaled by k as for square roots.
    k = (1 / (tol * q)).__ceil__() + 1
    m = p * q * q * k * k * k
    r = icbrt(m)
    if r * r * r == m:
        exact = Fraction(r, q * k)
        return exact, exact
    return Fraction(r, q * k), Fraction(r + 1, q * k)


def _atan_inv_bounds(x: int, tol: Fraction) -> tuple[Fraction, Fraction]:
    """Certified bounds on arctan(1/x) from its alternating Taylor series."""
    total = Fraction(0)
    k = 0
    x2 = x * x
    power = x  # x^(2k+1)
    while True:
        term = Fraction(1, (2 * k + 1) * power)
        if term <= tol:
            # Alternating and decreasing: truncation error bounded by `term`.
            if k % 2 == 0:
                return total, total + term
            return total - term, total
        total += term if k % 2 == 0 else -term
        power *= x2
        k += 1


def pi_bounds(tol: Rational = Fraction(1, 10**40)) -> tuple[Rational, Rational]:
    """Rationals (lo, hi) with lo < pi < hi and hi - lo <= tol.

    Uses the arctangent identity pi = 16*atan(1/5) - 4*atan(1/239) with
    exact rational partial sums, so the enclosure is rigorous.
    """
    if tol <= 0:
        raise ValueError("pi_bounds needs tol > 0")
    inner = tol / 64
    lo5, hi5 = _atan_inv_bounds(5, inner)
    lo239, hi239 = _atan_inv_bounds(239, inner)
    return 16 * lo5 - 4 * hi239, 16 * hi5 - 4 * lo239


def bits_to_digits(bits: int) -> int:
    """Decimal digits carried by a binary fixed point with `bits` fraction bits."""
    return max(1, (bits * 30103) // 100000)


def format_decimal(x: Rational, digits: int, rounding: str = "nearest") -> str:
    """x, rendered by `format_ratio`."""
    return format_ratio(x.numerator, x.denominator, digits, rounding)


def format_ratio(num: int, den: int, digits: int, rounding: str = "nearest") -> str:
    """num/den, den > 0 in any terms, to `digits` decimal places: `rounding`
    "nearest" (ties away from zero), "down" (to -inf) or "up" (to +inf).  A
    value that rounds to zero prints without a sign."""
    if digits < 0:
        raise ValueError("digits must be >= 0")
    num *= 10**digits
    if rounding == "nearest":
        q = (2 * abs(num) + den) // (2 * den)
    elif rounding == "down":
        q = abs(num // den)
    elif rounding == "up":
        q = abs(-(-num // den))
    else:
        raise ValueError(f"unknown rounding {rounding!r}")
    sign = "-" if num < 0 and q else ""
    if digits == 0:
        return f"{sign}{q}"
    whole, frac = divmod(q, 10**digits)
    return f"{sign}{whole}.{frac:0{digits}d}"
