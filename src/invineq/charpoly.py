"""The characteristic polynomial family of the reduced eigenvalue problem,
its closed-form coefficients, the determinant prefactor constants, and the
guessed inverse-column vectors with their exact verification.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import zip_longest
from math import factorial, lcm, prod
from operator import mul

from .exact import pochhammer
from .polynomial import RatPoly
from .records import Record


class CharPoly(Record):
    """Characteristic polynomial for index n: monic of degree floor(n/2),
    with strictly alternating coefficient signs."""

    __slots__ = ("n", "nu", "poly")


class IdentityReport(Record):
    """Outcome of an exact identity check; failures carry the offending
    index and the exact residual polynomial, and the check holds exactly
    when there are none."""

    __slots__ = ("failures",)

    def __init__(self, failures: tuple[tuple[int, RatPoly], ...] = ()):
        Record.__init__(self, failures)

    @property
    def ok(self) -> bool:
        return not self.failures


@lru_cache(maxsize=None)
def char_coeffs(n: int) -> tuple[Fraction, ...]:
    """Coefficient magnitudes f_0, ..., f_nu of the characteristic
    polynomial, f_j = (n-2j+1)_{4j} / (4^j (2j)!), nu = floor(n/2).

    Built in one pass over the integers from f_0 = 1 and the ratio
    f_{j+1}/f_j = (n-2j-1)(n-2j)(n+2j+1)(n+2j+2) / (4(2j+1)(2j+2)).
    Each f_j equals binom(n+2j, 4j) (4j-1)!!, an integer, so every
    division in the recurrence is exact.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    f = 1
    coeffs = [Fraction(f)]
    for j in range(n // 2):
        f = (f * (n - 2 * j - 1) * (n - 2 * j) * (n + 2 * j + 1) * (n + 2 * j + 2)
             // (4 * (2 * j + 1) * (2 * j + 2)))
        coeffs.append(Fraction(f))
    return tuple(coeffs)


def char_coeff(j: int, n: int) -> Fraction:
    """Magnitude of the lambda^(nu-j) coefficient of the characteristic
    polynomial: (n-2j+1)_{4j} / (4^j (2j)!), read from char_coeffs(n)."""
    if not 0 <= j <= n // 2:
        raise ValueError(f"need 0 <= j <= floor(n/2), got j={j}, n={n}")
    return char_coeffs(n)[j]


@lru_cache(maxsize=None)
def char_poly(n: int) -> CharPoly:
    """Monic characteristic polynomial of degree floor(n/2), built from the
    alternating closed-form coefficients.  They are integers and the
    leading one is 1, so the signed list is already the primitive part.
    Raises ArithmeticError unless the signs strictly alternate (every
    magnitude f_j positive) and the result is monic of degree floor(n/2)."""
    if n < 0:
        raise ValueError("n must be >= 0")
    nu = n // 2
    f = char_coeffs(n)
    if min(f) <= 0:
        raise ArithmeticError(f"char_poly's coefficients do not strictly alternate at n={n}")
    # The coefficient of x^(nu-j) is (-1)^j f_j.
    signed = [-c.numerator if j % 2 else c.numerator for j, c in enumerate(f)]
    if len(signed) != nu + 1 or signed[0] != 1:
        raise ArithmeticError(f"char_poly is not monic of degree {nu} at n={n}")
    signed.reverse()
    return CharPoly(n=n, nu=nu, poly=RatPoly._make(Fraction(1), tuple(signed)))


def char_poly_by_summation(n: int) -> CharPoly:
    """Independent construction of the same polynomial from the direct
    summation form sum_j (-4)^(j-nu) (2nu-2j+1)_n / (2j-2nu+n)! * x^j.

    It goes through pochhammer and never through char_coeffs, so that it
    cross-checks the ratio recurrence."""
    if n < 0:
        raise ValueError("n must be >= 0")
    nu = n // 2
    coeffs = []
    for j in range(nu + 1):
        c = (
            Fraction(-4) ** (j - nu)
            * pochhammer(2 * nu - 2 * j + 1, n)
            / factorial(2 * j - 2 * nu + n)
        )
        coeffs.append(c)
    poly = RatPoly(coeffs)
    if poly.degree != nu or poly.leading != 1:
        raise ArithmeticError(f"char_poly_by_summation is not monic of degree {nu} at n={n}")
    return CharPoly(n=n, nu=nu, poly=poly)


@lru_cache(maxsize=None)
def det_prefactor(ell: int, n: int) -> Fraction:
    """Constant prefactor of the parity-block determinant identity,
    (1/2^n) prod_{i=1..n} ((i-1)!)^2 / (i - ell + 1/2)_n; strictly positive,
    and equal to the Cauchy-type determinant of the same parity."""
    if ell not in (0, 1):
        raise ValueError("ell must be 0 or 1")
    if n < 0:
        raise ValueError("n must be >= 0")
    value = Fraction(1, 2**n)
    for i in range(1, n + 1):
        value *= Fraction(factorial(i - 1)) ** 2 / pochhammer(Fraction(2 * i - 2 * ell + 1, 2), n)
    if value <= 0:
        raise ArithmeticError(f"det_prefactor is not positive at ell={ell}, n={n}")
    return value


def parity_target(ell: int, n: int) -> RatPoly:
    """The monic degree-n polynomial of parity ell, P_{2n-ell} * x^ell: the
    last entry of the parity block times its inverse column (n >= ell)."""
    return char_poly(2 * n - ell).poly.shift_up(ell)


def inverse_column(ell: int, n: int) -> tuple[RatPoly, ...]:
    """Closed-form candidate for the last column of the inverse parity block
    of size n, scaled so that the block times it collapses to the single
    monic entry parity_target(ell, n).  With p = ell, entry j is

        4^(j-1) (4n-1-2p)!! (n+1/2-p)_{j-1} / ((n-1)! (2j-1-p)!)
        * sum_m (-1)^(j+m) x^m sum_k (2m+1-p)_{2k} / (4^(m+k) k! (2m+k-n-j+2)!)

    over the k >= 0 with 2m+k-n-j+2 >= 0 (the reciprocal factorial of a
    negative integer is zero).

    The inner sums run over the integers.  With a = 2m+1-p and
    c = 2m-n-j+2, k runs from max(0, -c) to K = 2n-2m-2, and c + K = n - j,
    so D_j = 4^(2n-2) (2n-2)! (n-j)! is a common denominator of every term
    of entry j.  The terms times D_j are integers, stepped by the term ratio
    (a+2k)(a+2k+1) / (4(k+1)(c+k+1)), whose division is exact.  The first
    term's rising factorial is a forward product, which is 0, not a division
    by 0, at a = 0 (m = 0, p = 1).  Each entry is then one Fraction, its
    prefactor over D_j, times an integer polynomial.
    """
    if ell not in (0, 1):
        raise ValueError("ell must be 0 or 1")
    if n < 1:
        raise ValueError("n must be >= 1")
    p, top = ell, 2 * n - 2
    facts = [1]
    for i in range(1, 2 * n - p):
        facts.append(facts[-1] * i)
    double_factorial = prod(range(4 * n - 1 - 2 * p, 0, -2))
    entries = []
    for j in range(1, n + 1):
        # 4^(j-1) (n+1/2-p)_{j-1} = 2^(j-1) (2n+1-2p)(2n+3-2p)...(2n+2j-3-2p)
        prefactor = (double_factorial
                     * prod(range(2 * n + 1 - 2 * p, 2 * n + 2 * j - 2 - 2 * p, 2)) << (j - 1))
        denominator = (facts[n - 1] * facts[2 * j - 1 - p]
                       * (facts[top] * facts[n - j] << 2 * top))
        coeffs = []
        for m in range(n):
            a, c = 2 * m + 1 - p, 2 * m - n - j + 2
            k = max(0, -c)
            term = (prod(range(a, a + 2 * k)) * (facts[top] // facts[k])
                    * (facts[n - j] // facts[c + k]) << 2 * (top - m - k))
            total = term
            while k < 2 * n - 2 * m - 2:
                term = term * (a + 2 * k) * (a + 2 * k + 1) // (4 * (k + 1) * (c + k + 1))
                total += term
                k += 1
            coeffs.append(-total if (j + m) % 2 else total)
        entries.append(Fraction(prefactor, denominator) * RatPoly(coeffs))
    return tuple(entries)


def verify_inverse_identity(ell: int, n: int) -> IdentityReport:
    """Check that the parity block times the candidate inverse column equals
    (0, ..., 0, parity_target(ell, n)) exactly.

    Over the integers: row i of the block is A_i / a_i + x B_i / b_i, its
    integer rows over their denominators, and the column over one common
    denominator e is the integer polynomials C_j.  With d_i = lcm(a_i, b_i),
    row i of the product is R_i / (d_i e), R_i = sum_j (d_i/a_i A_ij +
    x d_i/b_i B_ij) C_j an integer coefficient list, compared exactly with 0
    or with the target.
    Only a failing row is built as a RatPoly residual.
    """
    from .matrices import build_parity_block

    block = build_parity_block(ell, n)
    column = inverse_column(ell, n)
    target = parity_target(ell, n)
    e = lcm(*(entry.content.denominator for entry in column))
    width = max(len(entry.primitive) for entry in column)
    # by_power[m + 1][j]: the x^m coefficient of e * column[j], with zero
    # rows for x^-1 and x^width, which the slope and const parts reach.
    by_power = [[0] * n for _ in range(width + 2)]
    for j, entry in enumerate(column):
        factor = entry.content.numerator * (e // entry.content.denominator)
        for m, c in enumerate(entry.primitive):
            by_power[m + 1][j] = factor * c
    t_num, t_den = target.content.numerator, target.content.denominator
    failures = []
    for i, ((a, a_row), (b, b_row)) in enumerate(zip(block.const.rows, block.slope.rows)):
        d = lcm(a, b)
        u, v = d // a, d // b
        row = [u * sum(map(mul, a_row, by_power[m + 1])) + v * sum(map(mul, b_row, by_power[m]))
               for m in range(width + 1)]
        if i == n - 1:
            ok = all(r * t_den == t * t_num * d * e
                     for r, t in zip_longest(row, target.primitive, fillvalue=0))
        else:
            ok = not any(row)
        if not ok:
            expected = target if i == n - 1 else RatPoly()
            failures.append((i + 1, RatPoly(Fraction(r, d * e) for r in row) - expected))
    return IdentityReport(tuple(failures))


def recurrence_residual(n: int) -> RatPoly:
    """Exact residual of the even-index second-order recurrence at index n:
    (4n+3) P_{2n+4} + (4n+5)(16n^2+40n-2x+21) P_{2n+2} + (4n+7) x^2 P_{2n}.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    p0 = char_poly(2 * n).poly
    p2 = char_poly(2 * n + 2).poly
    p4 = char_poly(2 * n + 4).poly
    middle = RatPoly((16 * n * n + 40 * n + 21, -2))
    return (
        (4 * n + 3) * p4
        + (4 * n + 5) * (middle * p2)
        + (4 * n + 7) * p0.shift_up(2)
    )


def verify_recurrence(n_max: int) -> IdentityReport:
    """Check the even-index recurrence as an exact polynomial identity for
    all 0 <= n <= n_max."""
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    failures = []
    for n in range(n_max + 1):
        residual = recurrence_residual(n)
        if not residual.is_zero():
            failures.append((n, residual))
    return IdentityReport(tuple(failures))
