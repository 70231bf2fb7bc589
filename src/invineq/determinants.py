"""Exact determinants of rational and polynomial matrices, and the exact
verification of every closed-form determinant identity exposed by the
assembly and charpoly layers.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .charpoly import char_poly, det_prefactor
from .exact import Rational, pochhammer
from .matrices import (
    PolyMatrix,
    RatMatrix,
    build_boundary,
    build_legendre_hook,
    build_mass,
    build_mass_1d,
    build_parity_block,
    build_pencil,
    build_stiffness,
)
from .polynomial import RatPoly, clear_denominators, poly_interpolate

IDENTITY_IDS = (
    "thm31-parity0",
    "thm31-parity1",
    "corollary-full",
    "cauchy-0",
    "cauchy-1",
    "boundary-0",
    "boundary-1",
    "boundary-full",
    "legendre-0",
    "legendre-1",
)


@dataclass(frozen=True)
class DetReport:
    """One exact determinant-identity comparison."""

    n: int
    identity: str
    lhs: RatPoly
    rhs: RatPoly

    @property
    def equal(self) -> bool:
        return (self.lhs - self.rhs).is_zero()

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "identity": self.identity,
            "lhs": self.lhs.coeff_strings(),
            "rhs": self.rhs.coeff_strings(),
            "equal": self.equal,
        }


def det_rational(matrix: RatMatrix) -> Fraction:
    """Exact determinant; the empty matrix has determinant 1.

    Rows are scaled to integers, then eliminated fraction-free (Bareiss) so
    intermediate values stay integral with exact divisions.
    """
    n = matrix.dim
    if n == 0:
        return Fraction(1)
    scale = 1
    a: list[list[int]] = []
    for row in matrix.entries:
        denom, ints = clear_denominators(row)
        scale *= denom
        a.append(ints)

    sign = 1
    prev = 1
    for k in range(n - 1):
        pivot_row = next((r for r in range(k, n) if a[r][k] != 0), None)
        if pivot_row is None:
            return Fraction(0)
        if pivot_row != k:
            a[k], a[pivot_row] = a[pivot_row], a[k]
            sign = -sign
        pivot = a[k][k]
        for i in range(k + 1, n):
            aik = a[i][k]
            row_i = a[i]
            row_k = a[k]
            for j in range(k + 1, n):
                row_i[j] = (row_i[j] * pivot - aik * row_k[j]) // prev
        prev = pivot
    return Fraction(sign * a[n - 1][n - 1], scale)


def det_poly(matrix: PolyMatrix) -> RatPoly:
    """Exact determinant polynomial of the pencil const + x*slope via
    evaluation and interpolation.

    The determinant has degree <= dim, so it is pinned down by its values at
    the dim + 1 integer abscissae 0..dim.  Each row [const_i | slope_i] is
    scaled to integers once; every evaluation of the scaled pencil is then an
    integer matrix, eliminated by `det_rational`.  The integer determinants
    are interpolated and the result divided once by the product of the row
    scales, which changes only its content.
    """
    n = matrix.dim
    if n == 0:
        return RatPoly.one()
    scale = 1
    const, slope = [], []
    for const_row, slope_row in zip(matrix.const.entries, matrix.slope.entries):
        denom, ints = clear_denominators(const_row + slope_row)
        scale *= denom
        const.append(tuple(ints[:n]))
        slope.append(tuple(ints[n:]))
    scaled = PolyMatrix(RatMatrix(tuple(const)), RatMatrix(tuple(slope)))
    dets = poly_interpolate([(x, det_rational(scaled.eval_at(x))) for x in range(n + 1)])
    return dets * Fraction(1, scale)


def _signed_prefactor(n: int, ell: int) -> Fraction:
    return (-1) ** n * det_prefactor(ell, n).value


def verify_thm31(n: int) -> list[DetReport]:
    """Parity-block determinants against their closed forms.

    Parity 0 is checked for n >= 0; parity 1 only for n >= 1 because its
    closed form references the polynomial of index -1 at n = 0.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    reports = [
        DetReport(
            n=n,
            identity="thm31-parity0",
            lhs=det_poly(build_parity_block(0, n)),
            rhs=_signed_prefactor(n, 0) * char_poly(2 * n).poly,
        )
    ]
    if n >= 1:
        reports.append(
            DetReport(
                n=n,
                identity="thm31-parity1",
                lhs=det_poly(build_parity_block(1, n)),
                rhs=_signed_prefactor(n, 1) * char_poly(2 * n - 1).poly.shift_up(1),
            )
        )
    return reports


def verify_corollary_full(n: int) -> DetReport:
    """Full pencil determinant against the factored closed form."""
    if n < 1:
        raise ValueError("n must be >= 1")
    rhs = (
        Fraction(-2) ** n
        * det_prefactor(0, n // 2).value
        * det_prefactor(1, (n + 1) // 2).value
        * (char_poly(n - 1).poly * char_poly(n).poly).shift_up(1)
    )
    return DetReport(
        n=n,
        identity="corollary-full",
        lhs=det_poly(build_pencil(n)),
        rhs=rhs,
    )


def cauchy_matrix(ell: int, n: int) -> RatMatrix:
    """Hilbert-type matrix with entries 1/(2i+2j-1) (ell=0) or 1/(2i+2j-3)."""
    if ell not in (0, 1):
        raise ValueError("ell must be 0 or 1")
    offset = 1 if ell == 0 else 3
    return RatMatrix(
        tuple(
            tuple(Fraction(1, 2 * i + 2 * j - offset) for j in range(1, n + 1))
            for i in range(1, n + 1)
        )
    )


def verify_cauchy(ell: int, n: int) -> DetReport:
    """Hilbert-type determinant against the prefactor constant."""
    if n < 0:
        raise ValueError("n must be >= 0")
    lhs = det_rational(cauchy_matrix(ell, n))
    rhs = det_prefactor(ell, n).value
    return DetReport(
        n=n,
        identity=f"cauchy-{ell}",
        lhs=RatPoly((lhs,)),
        rhs=RatPoly((rhs,)),
    )


def _boundary_parity_rhs(ell: int, n: int) -> RatPoly:
    """Closed form (-1)^n / (2^n (5/4 or 3/4)_n) * x^(n-1) (x - c_n)."""
    if n == 0:
        return RatPoly.one()
    base = Fraction(5, 4) if ell == 0 else Fraction(3, 4)
    c = 2 * n * n + 3 * n if ell == 0 else 2 * n * n + n
    scalar = Fraction((-1) ** n, 2**n) / pochhammer(base, n)
    return (scalar * RatPoly((-c, 1))).shift_up(n - 1)


def _boundary_full_rhs(n: int) -> RatPoly:
    """Closed form for the full boundary determinant, n >= 2:
    (-1)^n / (3/2)_n * x^(n-2) (x - c_even)(x - c_odd)."""
    half_lo = n // 2
    half_hi = (n + 1) // 2
    c_lo = 2 * half_lo * half_lo + 3 * half_lo
    c_hi = 2 * half_hi * half_hi + half_hi
    scalar = Fraction((-1) ** n) / pochhammer(Fraction(3, 2), n)
    return (scalar * (RatPoly((-c_lo, 1)) * RatPoly((-c_hi, 1)))).shift_up(n - 2)


def verify_boundary(n: int) -> list[DetReport]:
    """Boundary determinant identities: both parity blocks for n >= 0, and
    the full matrix for n >= 2 (below that the combined closed form needs a
    negative power of x and is treated as derived from the parity forms)."""
    if n < 0:
        raise ValueError("n must be >= 0")
    reports = [
        DetReport(
            n=n,
            identity=f"boundary-{ell}",
            lhs=det_poly(build_boundary(ell, n)),
            rhs=_boundary_parity_rhs(ell, n),
        )
        for ell in (0, 1)
    ]
    if n >= 2:
        reports.append(
            DetReport(
                n=n,
                identity="boundary-full",
                lhs=det_poly(build_boundary("full", n)),
                rhs=_boundary_full_rhs(n),
            )
        )
    return reports


def verify_legendre_hooks(n: int) -> list[DetReport]:
    """Hook-matrix determinants against their hypergeometric closed forms."""
    if n < 0:
        raise ValueError("n must be >= 0")
    reports = []
    for ell, base, shift in ((0, Fraction(5, 4), 1), (1, Fraction(3, 4), 0)):
        scalar = Fraction((-1) ** n, 2**n) / pochhammer(base, n)
        reports.append(
            DetReport(
                n=n,
                identity=f"legendre-{ell}",
                lhs=det_poly(build_legendre_hook(ell, n)),
                rhs=scalar * char_poly(2 * n + shift).poly,
            )
        )
    return reports


def verify_kron_factorization(n: int, sample: Rational | int) -> bool:
    """Check det(stiffness - s*mass) == det(mass_1d)^n * det(pencil(s))^n
    exactly at the rational sample s; sizes are capped so the n^2 x n^2
    determinant stays cheap."""
    if not 1 <= n <= 6:
        raise ValueError("n must be in 1..6")
    s = Fraction(sample)
    lhs = det_rational(PolyMatrix(build_stiffness(n), build_mass(n)).eval_at(-s))
    pencil_at_s = det_rational(build_pencil(n).eval_at(s))
    rhs = det_rational(build_mass_1d(n)) ** n * pencil_at_s**n
    return lhs == rhs
