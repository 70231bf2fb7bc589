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
from math import prod

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


def iroot(m: int, k: int) -> int:
    """Integer k-th root: largest r >= 0 with r**k <= m (m >= 0, k >= 1).

    Integer Newton steps from a power of two above the root.  A step from r
    is the floor of the real Newton step, which is never below the root by
    AM-GM: so the steps decrease while r**k > m, and stop at the root.
    """
    if m < 0 or k < 1:
        raise ValueError(f"iroot needs m >= 0 and k >= 1, got m = {m}, k = {k}")
    if m == 0:
        return 0
    r = 1 << -(-m.bit_length() // k)
    while True:
        nr = ((k - 1) * r + m // r ** (k - 1)) // k
        if nr >= r:
            return r
        r = nr


def root_bounds(x: Rational, k: int, tol: Rational) -> tuple[Rational, Rational]:
    """Rationals (lo, hi) with lo <= x**(1/k) <= hi and hi - lo <= tol.

    Exact roots collapse to lo == hi.  A negative x needs an odd k, whose
    root is odd.
    """
    if tol <= 0:
        raise ValueError("root_bounds needs tol > 0")
    if x < 0:
        if k % 2 == 0:
            raise ValueError(f"root_bounds needs x >= 0 for even k = {k}")
        lo, hi = root_bounds(-x, k, tol)
        return -hi, -lo
    p, q = x.numerator, x.denominator
    # (p/q)^(1/k) = (p*q^(k-1))^(1/k) / q; scale by s so the 1/(q*s) grid beats tol.
    s = (1 / (tol * q)).__ceil__() + 1
    m = p * q ** (k - 1) * s**k
    r = iroot(m, k)
    return Fraction(r, q * s), Fraction(r if r**k == m else r + 1, q * s)


def sqrt_bounds(x: Rational, tol: Rational) -> tuple[Rational, Rational]:
    """`root_bounds` of x (x >= 0) with k = 2."""
    return root_bounds(x, 2, tol)


def cbrt_bounds(x: Rational, tol: Rational) -> tuple[Rational, Rational]:
    """`root_bounds` of x (any sign) with k = 3."""
    return root_bounds(x, 3, tol)


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
