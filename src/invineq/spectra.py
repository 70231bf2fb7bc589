"""Certified real-spectrum machinery: maximal eigenvalues with exact
enclosures, the quadratic/cubic truncation bounds and their orderings,
root tables and asymptotic diagnostics.  The boundary eigenvalue and the
roots of the boundary factorization are computed in `determinants` and
re-exported here on first access, by a module `__getattr__`: the root
commands read the Legendre-hook continuant from `hooks` and compile neither
the matrix nor the determinant layer.

Every ordering reported here is backed by exact rational sign evidence;
floating point appears only in the optional dense-eigensolver cross-check.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache, partial
from math import lcm
from typing import Callable, Sequence

from .charpoly import char_coeff, char_coeffs, char_poly
from .exact import Rational, cbrt_bounds, pi_bounds, sqrt_bounds
from .hooks import continuant_count, continuant_rows, legendre_hook_parts
from .polynomial import RatPoly
from .records import Record
from .roots import (
    Enclosure,
    RootIsolationError,
    _Grid,
    _interlaced,
    _isolating,
    _level,
    bisect_sign_change,
    interval_eval,
    largest_root,
    refine,
    sign_at,
)

REFINEMENT_CAP = 256


class QuadraticSurd(Record):
    """Exact value u + sqrt(v) with rational u and v >= 0."""

    __slots__ = ("u", "v")

    def __init__(self, u: Fraction, v: Fraction):
        if v < 0:
            raise ValueError("negative radicand")
        Record.__init__(self, u, v)

    def compare(self, x: Rational) -> int:
        """Sign of (u + sqrt(v)) - x, decided exactly."""
        return surd_sign_of_poly(RatPoly((-x, 1)), self)

    def bounds(self, tol: Rational) -> Enclosure:
        lo, hi = sqrt_bounds(self.v, tol)
        return Enclosure(self.u + lo, self.u + hi)

    def is_rational(self) -> bool:
        lo, hi = sqrt_bounds(self.v, Fraction(1, 2))
        return lo == hi

    def __float__(self) -> float:
        return float(self.bounds(Fraction(1, 10**17)).mid)


def surd_sign_of_poly(poly: RatPoly, surd: QuadraticSurd) -> int:
    """Exact sign of poly(u + sqrt(v)), decided on integers.

    With q = lcm(den u, den v), u + sqrt(v) = (p + sqrt(r)) / q for the
    integers p = q u and r = q^2 v.  One homogenised Horner pass over the
    primitive part (whose positive content cannot change the sign) gives
    q^d poly(u + sqrt(v)) = a + b sqrt(r), and the sign of a + b sqrt(r)
    needs no division: when a and b differ in sign it is sign(a) times
    sign(a^2 - b^2 r).
    """
    u, v = surd.u, surd.v
    q = lcm(u.denominator, v.denominator)
    p = u.numerator * (q // u.denominator)
    r = v.numerator * (q // v.denominator) * q
    a = b = 0
    qk = 1
    for c in reversed(poly.primitive):
        a, b = a * p + b * r + c * qk, a + b * p
        qk *= q
    sa, sb = (a > 0) - (a < 0), (b > 0) - (b < 0)
    if sb == 0 or r == 0:
        return sa
    if sa == 0 or sa == sb:
        return sb
    d = a * a - b * b * r
    return sa * ((d > 0) - (d < 0))


def coefficient_dominance_holds(n: int) -> bool:
    """Exact check that (f1/2) * f_j > f_{j+1} for 1 <= j <= nu-1, the
    inequality behind every truncation bound used here, tested as
    f1 * f_j > 2 * f_{j+1} on the integers f_j."""
    f = char_coeffs(n)
    return all(f[1] * f[j] > 2 * f[j + 1] for j in range(1, n // 2))


@lru_cache(maxsize=None)
def bound_lower(n: int) -> QuadraticSurd:
    """Lower bound on the maximal root from the quadratic truncation:
    f1/2 + sqrt(f1^2/4 - f2).  Cached, since `bound_report` and the
    maximal-root bracket both read it."""
    if n < 2:
        raise ValueError("n must be >= 2")
    f1, f2 = (char_coeffs(n) + (0,))[1:3]  # f_j = 0 beyond the degree
    v = Fraction(f1 * f1 - 4 * f2, 4)
    if v <= 0:
        raise RootIsolationError(f"quadratic truncation radicand is not positive at n={n}")
    return QuadraticSurd(u=Fraction(f1, 2), v=v)


@lru_cache(maxsize=None)
def cubic_bound_poly(n: int) -> RatPoly:
    """Cubic truncation x^3 - f1 x^2 + f2 x - f3 whose largest real root is
    the upper bound on the maximal root.  Cached, since `bound_report` reads
    it for the enclosure, the small-n equality and the refinement."""
    if n < 2:
        raise ValueError("n must be >= 2")
    f1, f2, f3 = (char_coeffs(n) + (0, 0))[1:4]
    return RatPoly((-f3, f2, -f1, 1))


def bound_upper(n: int, tol: Rational = Fraction(1, 10**12)) -> Enclosure:
    """Certified enclosure of the cubic-truncation upper bound (the largest
    real root of cubic_bound_poly)."""
    return largest_root(cubic_bound_poly(n), Fraction(0), char_coeff(1, n),
                        Fraction(tol))


_P1_NUM = RatPoly((16200, -5130, -4733, 796, 404, 10, 8, 4, 1))
_P2_FACTOR = RatPoly((116640000, -44971200, -40140000, 9619080, 4705644,
                      -113090, -20619, 10198, -2951, -3590, -641, 42, 7))


def _radical_p1(n: int) -> Fraction:
    return _P1_NUM(n) / 4320


def _radical_p2(n: int) -> Fraction:
    quartic = Fraction((n - 3) * (n - 2) * (n + 3) * (n + 4))
    return quartic * _P2_FACTOR(n) / 597196800


def bound_upper_radical(n: int, tol: Rational = Fraction(1, 10**12)) -> Enclosure:
    """The literal radical form of the cubic upper bound,
    f1/3 + cbrt(f1 (p1 + sqrt(p2))) + cbrt(f1 (p1 - sqrt(p2))),
    as a certified enclosure.  Only meaningful where p2 >= 0."""
    if n < 2:
        raise ValueError("n must be >= 2")
    tol = Fraction(tol)
    f1 = char_coeff(1, n)
    p1, p2 = _radical_p1(n), _radical_p2(n)
    if p2 < 0:
        raise ValueError("negative discriminant: radical form is complex")
    # Budget: sqrt error enters the cbrt arguments; cube roots contract, so
    # a generous inner tolerance still meets tol after summation.
    inner = tol / 8
    s_lo, s_hi = sqrt_bounds(p2, inner)
    lo1, _ = cbrt_bounds(f1 * (p1 + s_lo), inner)
    _, hi1 = cbrt_bounds(f1 * (p1 + s_hi), inner)
    lo2, _ = cbrt_bounds(f1 * (p1 - s_hi), inner)
    _, hi2 = cbrt_bounds(f1 * (p1 - s_lo), inner)
    return Enclosure(f1 / 3 + lo1 + lo2, f1 / 3 + hi1 + hi2)


def max_root(n: int, tol: Rational = Fraction(1, 10**12)) -> Enclosure:
    """Certified enclosure of width <= tol for the maximal root of the
    characteristic polynomial of index n."""
    if n < 2:
        raise ValueError("n must be >= 2")
    tol = Fraction(tol)
    if tol <= 0:
        raise ValueError("tol must be > 0")
    coeffs = char_poly(n).poly.primitive
    # The maximal root lies in (f1/2, f1]; there is at most one root above
    # f1/2 (the roots are real and positive and sum to f1), so a sign-change
    # bracket [a0, f1], with f1/2 <= a0 <= m(n), pins it down.
    a0 = bound_lower(n).bounds(Fraction(1, 4)).lo
    s_a0 = sign_at(coeffs, a0)
    if s_a0 > 0:
        raise RootIsolationError(
            f"bracket sign check failed at n={n}: expected negative value"
        )
    return bisect_sign_change(coeffs, a0, char_coeff(1, n), tol, s_lo=s_a0)


def _narrow(coeffs: Sequence[int], enc: Enclosure, halvings: int) -> Enclosure:
    """The cell of `enc`, which brackets a sign change of the integer
    polynomial, that `halvings` more halvings reach."""
    if enc.is_exact or halvings <= 0:
        return enc
    return bisect_sign_change(coeffs, enc.lo, enc.hi, enc.width / 2**halvings)


def refine_max_root(n: int, enc: Enclosure, extra_steps: int) -> Enclosure:
    """Shrink a maximal-root enclosure to the cell that up to `extra_steps`
    more halvings reach."""
    return _narrow(char_poly(n).poly.primitive, enc, extra_steps)


# The last root table, as (n, tol, sweep) with sweep what n + 1 and n + 2 at
# the same tol reuse (_root_cells).  One slot, so a sweep's memory does not
# grow with its range.
_last = (0, None, ())


def _root_cells(n: int, tol: Rational) -> tuple[tuple[int, int, int], ...]:
    """The cells of `all_roots(n, tol)` as `Enclosure.cell` gives them:
    (lo, hi, den) for [lo/den, hi/den], unreduced.

    The one-slot cache `_last` keeps the last n's cells and, for n and n - 1,
    each root's position (b - a', b' - a') of its index cell (a, b] in the
    sweep bracket (a', b'] that certified it.  When it holds n - 1 at the
    same tol, the grid indices of n at or below the midpoints (lo + hi) /
    (2 den) of those cells separate the roots of n for `_interlaced` (they
    interlace, though the certificate does not assume it), and root k's
    refinement starts where root k of n - 2 sat in its bracket (the lower
    half counted from the bottom, the upper from the top): a hint that the
    exact signs overrule.  Otherwise, or when that certificate fails,
    `roots._isolating` cuts (0, f1] into boxes under the counts of the
    Legendre hook (`verify legendre`), and the grid indices at or below
    their right ends are the separators; the counts add no trust.  When two
    roots share a cell, so that `_interlaced` fails, each box is refined as
    `refine` refines it, finer than the grid for those two, under its own
    certificate: floor(n/2) boxes (a, b], each with P_n(b) = 0 or P_n(a)
    P_n(b) < 0, else RootIsolationError.  Every route returns the cells of
    Sturm isolation (`isolate_all`), and no route builds a Sturm chain.
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    tol = Fraction(tol)
    poly = char_poly(n).poly
    f1 = char_coeff(1, n)
    grid = _Grid(poly.primitive, 0, f1, _level(f1, tol))
    global _last
    last_n, last_tol, sweep = _last
    found, here, positions = None, (), ()
    if (last_n, last_tol) == (n - 1, tol):
        previous, positions, before = sweep
        separators = (grid.index(lo + hi, 2 * den) for lo, hi, den in previous)
        found = _interlaced(grid, n // 2, separators, before[:n // 4] + before[n // 4 - 1:])
        here = [(jb - a, b - a) for a, b, _, jb in found or ()]
    if found is None:
        rows = list(continuant_rows(*legendre_hook_parts(1 - n % 2, n // 2)))
        count = partial(continuant_count, rows)
        boxes = list(_isolating(count, Fraction(0), f1, count(f1)))[::-1]
        separators = (grid.index(*b.as_integer_ratio()) for _, b in boxes[:-1])
        found = _interlaced(grid, n // 2, separators)
    if found is None:
        coeffs = poly.primitive
        signs = [(sign_at(coeffs, a), sign_at(coeffs, b)) for a, b in boxes]
        if len(boxes) != n // 2 or any(s_b and s_a != -s_b for s_a, s_b in signs):
            raise RootIsolationError(f"the counted boxes certify no root table at n={n}")
        cells = tuple(refine(coeffs, a, b, tol).cell for a, b in boxes)
    else:
        cells = tuple(grid.cell(ja, jb) for *_, ja, jb in found)
    _last = (n, tol, (cells, here, positions))
    return cells


def all_roots(n: int, tol: Rational = Fraction(1, 10**9)) -> tuple[Enclosure, ...]:
    """Certified enclosures of the floor(n/2) real roots of the
    characteristic polynomial of index n, ascending: each the cell of the
    dyadic grid of (0, f1], cells <= tol wide, that holds it, or the root on
    that grid (`_root_cells`)."""
    return tuple(Enclosure(Fraction(lo, den), Fraction(hi, den))
                 for lo, hi, den in _root_cells(n, tol))


SMALLEST_ROOT_TOL = Fraction(1, 10**9)


@lru_cache(maxsize=None)
def smallest_root_of_index(n: int) -> Enclosure:
    """Certified enclosure of the smallest root of the characteristic
    polynomial of index n: the lowest cell of its `all_roots` table, the
    only one converted.  Cached, since `asymptotic_table` asks for 2k again
    at n = 2k + 1, when the sweep slot no longer holds 2k - 1."""
    lo, hi, den = _root_cells(n, SMALLEST_ROOT_TOL)[0]
    return Enclosure(Fraction(lo, den), Fraction(hi, den))


class OrderingFlags(Record):
    """Exactly certified orderings between the maximal root and its bounds."""

    __slots__ = ("m_le_lambda", "lambda_le_f1", "lambda_le_upper", "m_strict",
                 "f1_strict", "upper_strict", "upper_equal", "decided")

    @property
    def all_hold(self) -> bool:
        return self.m_le_lambda and self.lambda_le_f1 and self.lambda_le_upper


class BoundReport(Record):
    """Per-n record of the lower bound, maximal root, and upper bounds."""

    __slots__ = ("n", "m", "m_enclosure", "f1", "upper_enclosure", "lam", "orderings")


def _cubic_is_shifted_charpoly(n: int) -> bool:
    """True when the cubic truncation equals x^(3-nu) times the full
    characteristic polynomial, i.e. both share the same maximal root."""
    nu = n // 2
    if nu > 3:
        return False
    return cubic_bound_poly(n) == char_poly(n).poly.shift_up(3 - nu)


def bound_report(n: int, tol: Rational = Fraction(1, 10**12)) -> BoundReport:
    """Certify the ordering m(n) <= lambda_n <= f1(n) and lambda_n <= M(n),
    with exact strictness decisions."""
    if n < 2:
        raise ValueError("n must be >= 2")
    tol = Fraction(tol)
    cp = char_poly(n)
    f1 = char_coeff(1, n)
    lam = max_root(n, tol)
    surd = bound_lower(n)
    m_enc = surd.bounds(tol)
    upper = bound_upper(n, tol)

    # Lower bound: exact sign of the polynomial at u + sqrt(v).
    s_at_m = surd_sign_of_poly(cp.poly, surd)
    m_le = s_at_m <= 0
    m_strict = s_at_m < 0

    # f1: exact endpoint sign, with strictness from dominance.
    s_f1 = sign_at(cp.poly.primitive, f1)
    f1_le = s_f1 >= 0
    f1_strict = s_f1 > 0 and coefficient_dominance_holds(n)

    # Cubic upper bound: structural equality for small n, disjoint
    # enclosures otherwise.
    decided = True
    if _cubic_is_shifted_charpoly(n):
        upper_le, upper_strict, upper_eq = True, False, True
    else:
        # upper isolates the cubic's largest root: no Sturm count is needed.
        cubic = cubic_bound_poly(n).primitive
        verdict, lam, upper = ensure_disjoint(
            lam, upper, lambda e: refine_max_root(n, e, 8),
            lambda e: _narrow(cubic, e, 8), cap=REFINEMENT_CAP // 8)
        upper_le = upper_strict = verdict is True
        upper_eq = False
        decided = verdict is not None

    return BoundReport(
        n=n,
        m=surd,
        m_enclosure=m_enc,
        f1=f1,
        upper_enclosure=upper,
        lam=lam,
        orderings=OrderingFlags(
            m_le_lambda=m_le,
            lambda_le_f1=f1_le,
            lambda_le_upper=upper_le,
            m_strict=m_strict,
            f1_strict=f1_strict,
            upper_strict=upper_strict,
            upper_equal=upper_eq,
            decided=decided,
        ),
    )


class MonotoneReport(Record):
    __slots__ = ("ok", "checked", "undecided")


def ensure_disjoint(a: Enclosure, b: Enclosure,
                    refine_a: Callable[[Enclosure], Enclosure],
                    refine_b: Callable[[Enclosure], Enclosure],
                    cap: int = REFINEMENT_CAP) -> tuple[bool | None, Enclosure, Enclosure]:
    """Refine until a < b strictly (True), b < a (False), or the cap is hit
    with the enclosures still overlapping (None, never silently ordered).
    Returns the verdict with the final enclosures of a and b."""
    steps = 0
    while True:
        if a.hi < b.lo:
            return True, a, b
        if b.hi < a.lo:
            return False, a, b
        if steps >= cap:
            return None, a, b
        na, nb = refine_a(a), refine_b(b)
        if na == a and nb == b:
            return None, a, b
        a, b = na, nb
        steps += 1


def check_monotone(n_max: int, tol: Rational = Fraction(1, 10**12)) -> MonotoneReport:
    """Certify that the maximal roots strictly increase for 2 <= n < n_max."""
    if n_max < 3:
        raise ValueError("n_max must be >= 3")
    undecided = []
    ok = True
    prev = max_root(2, tol)
    for n in range(3, n_max + 1):
        cur = max_root(n, tol)
        verdict, _, _ = ensure_disjoint(
            prev, cur,
            lambda e, n=n - 1: refine_max_root(n, e, 8),
            lambda e, n=n: refine_max_root(n, e, 8),
        )
        if verdict is None:
            undecided.append(n)
        elif verdict is False:
            ok = False
        prev = cur
    return MonotoneReport(ok=ok and not undecided, checked=n_max - 2,
                          undecided=tuple(undecided))


def comparison_check(n: int, tol: Rational = Fraction(1, 10**12)) -> bool | None:
    """Certify that the next-index characteristic polynomial is strictly
    negative at the maximal root of index n.  Returns None if undecided at
    the refinement cap, False if provably violated."""
    if n < 2:
        raise ValueError("n must be >= 2")
    nxt = char_poly(n + 1).poly
    enc = max_root(n, Fraction(tol))
    for _ in range(8):
        lo, hi = interval_eval(nxt, enc)
        if hi < 0:
            return True
        if lo > 0:
            return False
        if enc.is_exact:
            # Exact root: the interval evaluation is an exact value.
            return hi < 0
        enc = refine_max_root(n, enc, 16)
    return None


class InverseConstantReport(Record):
    """The inverse-inequality constant sqrt(lambda_n) and its window."""

    __slots__ = ("n", "value", "window_low_holds", "window_high_holds")


def inverse_constant(n: int, tol: Rational = Fraction(1, 10**12)) -> InverseConstantReport:
    """Certified enclosure of sqrt(lambda_n) plus the exact sandwich
    f1/2 <= lambda_n <= f1 (equivalently the quarter-power window on the
    constant itself)."""
    tol = Fraction(tol)
    lam = max_root(n, tol)
    lo = sqrt_bounds(lam.lo, tol / 4)[0]
    hi = sqrt_bounds(lam.hi, tol / 4)[1]
    f1 = char_coeff(1, n)
    cp = char_poly(n)
    surd = bound_lower(n)
    # lambda_n >= m(n) > f1/2, certified by the exact surd sign; the upper
    # edge is the exact endpoint sign.
    low_ok = surd_sign_of_poly(cp.poly, surd) <= 0 and surd.compare(f1 / 2) > 0
    s_f1 = sign_at(cp.poly.primitive, f1)
    high_ok = s_f1 == 0 or (s_f1 > 0 and coefficient_dominance_holds(n))
    return InverseConstantReport(
        n=n, value=Enclosure(lo, hi),
        window_low_holds=low_ok, window_high_holds=high_ok,
    )


class AsymptoticRow(Record):
    """Diagnostics row comparing exact quantities against their limits."""

    __slots__ = ("n", "lambda_over_n4", "lambda_over_f1", "smallest_root_even",
                 "smallest_root_odd", "targets")


@lru_cache(maxsize=None)
def asymptotic_targets() -> dict[str, Fraction]:
    """The limits of the diagnostics, from a pi enclosure of width 1e-30;
    computed once and shared, so callers must not modify it."""
    pi_lo, pi_hi = pi_bounds(Fraction(1, 10**30))
    pi_mid = (pi_lo + pi_hi) / 2
    pi_sq = pi_mid * pi_mid
    return {
        "inv_pi_sq": 1 / pi_sq,
        "eight_inv_pi_sq": 8 / pi_sq,
        "quarter_pi_sq": pi_sq / 4,
        "pi_sq": pi_sq,
    }


def asymptotic_table(ns: Sequence[int], tol: Rational = Fraction(1, 10**12)) -> list[AsymptoticRow]:
    """Rows of limit diagnostics for each requested n."""
    tol = Fraction(tol)
    targets = asymptotic_targets()
    rows = []
    for n in ns:
        if n < 2:
            raise ValueError("each n must be >= 2")
        lam = max_root(n, tol).mid
        f1 = char_coeff(1, n)
        even_index = 2 * (n // 2)
        rows.append(
            AsymptoticRow(
                n=n,
                lambda_over_n4=lam / n**4,
                lambda_over_f1=lam / f1,
                smallest_root_even=smallest_root_of_index(even_index).mid,
                smallest_root_odd=smallest_root_of_index(even_index + 1).mid,
                targets=targets,
            )
        )
    return rows


class FloatCrossReport(Record):
    __slots__ = ("n", "float_value", "certified_value", "difference", "tol", "ok",
                 "inconclusive")


def float_eigen_crosscheck(n: int, tol: float) -> FloatCrossReport:
    """Largest generalized eigenvalue of (stiffness, mass) from a dense
    floating-point solver against the certified maximal root.

    Restricted to 2 <= n <= 4: the monomial mass matrices are too
    ill-conditioned beyond that.  Solver failure is reported as
    inconclusive, never as a hard failure.
    """
    if not 2 <= n <= 4:
        raise ValueError("n must be in 2..4")
    import numpy as np
    from scipy.linalg import eigh

    from .matrices import build_mass, build_stiffness

    mass = np.array([[float(e) for e in row] for row in build_mass(n).entries])
    stiff = np.array([[float(e) for e in row] for row in build_stiffness(n).entries])
    certified = float(max_root(n, Fraction(1, 10**14)).mid)
    try:
        eigenvalues = eigh(stiff, mass, eigvals_only=True)
    except Exception:
        return FloatCrossReport(n=n, float_value=float("nan"),
                                certified_value=certified,
                                difference=float("nan"), tol=tol,
                                ok=False, inconclusive=True)
    top = float(eigenvalues[-1])
    diff = abs(top - certified)
    return FloatCrossReport(n=n, float_value=top, certified_value=certified,
                            difference=diff, tol=tol, ok=diff <= tol,
                            inconclusive=False)


# Resolved in `determinants` on access; not imported with this module.
_REEXPORTS = ("max_boundary_eigenvalue", "boundary_factor_roots")


def __getattr__(name: str):
    if name in _REEXPORTS:
        from . import determinants

        return getattr(determinants, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
