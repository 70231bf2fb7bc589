"""Exact determinants of rational and polynomial matrices, and the exact
verification of every closed-form determinant identity exposed by the
assembly and charpoly layers.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd, isqrt, prod

from .charpoly import char_poly, det_prefactor, parity_target
from .exact import Rational, pochhammer
from .matrices import (
    IntRows,
    PolyMatrix,
    RatMatrix,
    build_boundary,
    build_legendre_hook,
    build_mass_1d,
    build_parity_block,
    build_pencil,
    gram_rows,
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


def _bareiss(a: list[list[int]]) -> int:
    """Exact determinant of a square integer matrix, given as rows that are
    overwritten; the empty matrix has determinant 1.

    Fraction-free (Bareiss) elimination: every division is exact, so the
    intermediate values stay integral.
    """
    n = len(a)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        pivot_row = next((r for r in range(k, n) if a[r][k] != 0), None)
        if pivot_row is None:
            return 0
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
    return sign * a[n - 1][n - 1]


def det_rational(matrix: RatMatrix) -> Fraction:
    """Exact determinant; the empty matrix has determinant 1.

    Each row is scaled to integers once, then `_bareiss` eliminates them and
    the result is divided by the product of the row scales.
    """
    scale = 1
    rows: list[list[int]] = []
    for row in matrix.entries:
        denom, ints = clear_denominators(row)
        scale *= denom
        rows.append(ints)
    return Fraction(_bareiss(rows), scale)


def det_poly(matrix: PolyMatrix) -> RatPoly:
    """Exact determinant polynomial of the pencil const + x*slope via
    evaluation and interpolation.

    The determinant has degree <= dim, so it is pinned down by its values at
    the dim + 1 integer abscissae 0..dim.  Each row [const_i | slope_i] is
    scaled to integers once; every evaluation of the scaled pencil is then an
    integer matrix, eliminated by `_bareiss`.  The integer determinants are
    interpolated and the result divided once by the product of the row
    scales, which changes only its content.
    """
    n = matrix.dim
    if n == 0:
        return RatPoly.one()
    scales, const, slope = matrix.scaled_rows()
    scaled = PolyMatrix(RatMatrix(const), RatMatrix(slope))
    dets = poly_interpolate([
        (x, _bareiss([list(row) for row in scaled.eval_at(x).entries]))
        for x in range(n + 1)
    ])
    return dets * Fraction(1, prod(scales))


# The Mersenne prime 2^61 - 1.  `det_diagonal_pencil` works modulo its least
# power above twice the coefficient bound.
_PRIME = 2**61 - 1


def _hessenberg_charpoly(h: list[list[int]], prime: int, modulus: int) -> list[int] | None:
    """Coefficients, constant first, of det(xI - H) modulo `modulus`, a power
    of `prime`; the rows of H, reduced modulo `modulus`, are overwritten.

    H is brought to upper Hessenberg form by similarity steps whose pivot, in
    each column, is the first entry on or below the subdiagonal that `prime`
    does not divide: a unit, so the steps keep the characteristic polynomial
    over Z/modulus.  A column that is zero on and below the subdiagonal is
    skipped; one with nonzero entries there but no unit gives None.  The polynomial is then read
    off the Hessenberg recurrence (Cohen, *A Course in Computational
    Algebraic Number Theory*, Alg. 2.2.9).
    """
    n = len(h)
    for m in range(1, n - 1):
        col = m - 1
        pivot_row = next((i for i in range(m, n) if h[i][col] % prime), None)
        if pivot_row is None:
            if any(h[i][col] for i in range(m, n)):
                return None
            continue
        if pivot_row != m:
            h[m], h[pivot_row] = h[pivot_row], h[m]
            for row in h:
                row[m], row[pivot_row] = row[pivot_row], row[m]
        row_m = h[m]
        inverse = pow(row_m[col], -1, modulus)
        factors = []
        for i in range(m + 1, n):
            u = h[i][col] * inverse % modulus
            if u:
                h[i][col:] = [(a - u * b) % modulus for a, b in zip(h[i][col:], row_m[col:])]
                factors.append((i, u))
        if factors:
            for row in h:
                row[m] = (row[m] + sum(u * row[i] for i, u in factors)) % modulus
    # polys[k] is the characteristic polynomial of the leading k x k block.
    polys = [[1]]
    for m in range(n):
        prev = polys[m]
        acc = [0, *prev]
        diag = h[m][m]
        for k, c in enumerate(prev):
            acc[k] -= diag * c
        subdiag = 1
        for i in range(1, m + 1):
            subdiag = subdiag * h[m - i + 1][m - i] % modulus
            if not subdiag:
                break
            factor = h[m - i][m] * subdiag % modulus
            if factor:
                for k, c in enumerate(polys[m - i]):
                    acc[k] -= factor * c
        polys.append([c % modulus for c in acc])
    return polys[n]


def det_diagonal_pencil(matrix: PolyMatrix) -> RatPoly:
    """Exact determinant polynomial of a pencil const + x*slope whose slope is
    diagonal with no zero on the diagonal, in O(dim^3) operations; any other
    slope raises ValueError.

    With (d, A, B) = matrix.scaled_rows() and b_i = B[i][i], the determinant
    is det(A + xB) / prod(d), and det(A + xB) = prod(b) * det(xI - C) with
    C = -B^-1 A.  The x^k coefficient of det(A + xB) is a sum over k-subsets
    S of prod_{i in S} b_i times a principal minor of A, so by Hadamard's
    bound every coefficient is at most H = prod_i (isqrt(sum_j a_ij^2) + 1 +
    |b_i|).  The characteristic polynomial of C is computed modulo the least
    power M > 2H of the prime 2^61 - 1 (`_hessenberg_charpoly`), and the
    symmetric residues of prod(b) times it are the integer coefficients.  If
    the prime divides some b_i, or the Hessenberg reduction meets a column
    without a unit pivot, the result comes from `det_poly`.
    """
    n = matrix.dim
    slope = matrix.slope.entries
    if any(v for i, row in enumerate(slope) for j, v in enumerate(row) if i != j):
        raise ValueError("slope must be diagonal")
    if not all(slope[i][i] for i in range(n)):
        raise ValueError("slope must have no zero on its diagonal")
    if n == 0:
        return RatPoly.one()
    scales, a_rows, b_rows = matrix.scaled_rows()
    b = [row[i] for i, row in enumerate(b_rows)]
    prime = _PRIME
    if any(bi % prime == 0 for bi in b):
        return det_poly(matrix)
    bound = prod(isqrt(sum(a * a for a in row)) + 1 + abs(bi) for row, bi in zip(a_rows, b))
    modulus = prime
    while modulus <= 2 * bound:
        modulus *= prime
    h = []
    for row, bi in zip(a_rows, b):
        c = -pow(bi, -1, modulus)
        h.append([c * a % modulus for a in row])
    charpoly = _hessenberg_charpoly(h, prime, modulus)
    if charpoly is None:
        return det_poly(matrix)
    det_b = prod(b) % modulus
    half = modulus // 2
    coeffs = [c * det_b % modulus for c in charpoly]
    return RatPoly(c - modulus if c > half else c for c in coeffs) * Fraction(1, prod(scales))


def _thm31_rhs(ell: int, n: int) -> RatPoly:
    """(-1)^n det_prefactor(ell, n) P_{2n-ell} x^ell, for n >= ell."""
    return (-1) ** n * det_prefactor(ell, n) * parity_target(ell, n)


def verify_thm31(n: int) -> list[DetReport]:
    """Parity-block determinants against their closed forms.

    Parity 0 is checked for n >= 0; parity 1 only for n >= 1 because its
    closed form references the polynomial of index -1 at n = 0.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    return [
        DetReport(
            n=n,
            identity=f"thm31-parity{ell}",
            lhs=det_poly(build_parity_block(ell, n)),
            rhs=_thm31_rhs(ell, n),
        )
        for ell in (0, 1)
        if n >= ell
    ]


def verify_corollary_full(n: int) -> DetReport:
    """Full pencil determinant against the product of the two parity-block
    closed forms of sizes floor(n/2) and ceil(n/2), times 2^n."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return DetReport(
        n=n,
        identity="corollary-full",
        lhs=det_poly(build_pencil(n)),
        rhs=2**n * _thm31_rhs(0, n // 2) * _thm31_rhs(1, (n + 1) // 2),
    )


def cauchy_matrix(ell: int, n: int) -> RatMatrix:
    """Hilbert-type matrix with entries 1/(2i+2j-1-2ell)."""
    if ell not in (0, 1):
        raise ValueError("ell must be 0 or 1")
    offset = 1 + 2 * ell
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
    rhs = det_prefactor(ell, n)
    return DetReport(
        n=n,
        identity=f"cauchy-{ell}",
        lhs=RatPoly((lhs,)),
        rhs=RatPoly((rhs,)),
    )


def boundary_root(ell: int, h: int) -> int:
    """h(2h+3-2ell), the nonzero root of the parity-ell boundary determinant
    of size h."""
    return h * (2 * h + 3 - 2 * ell)


def _hook_scalar(ell: int, n: int) -> Fraction:
    """(-1)^n / (2^n ((5-2ell)/4)_n), the scalar of the parity-ell boundary
    and hook closed forms."""
    return Fraction((-1) ** n, 2**n) / pochhammer(Fraction(5 - 2 * ell, 4), n)


def _boundary_parity_rhs(ell: int, n: int) -> RatPoly:
    """Closed form _hook_scalar(ell, n) * x^(n-1) (x - boundary_root(ell, n))."""
    if n == 0:
        return RatPoly.one()
    return (_hook_scalar(ell, n) * RatPoly((-boundary_root(ell, n), 1))).shift_up(n - 1)


def _boundary_full_rhs(n: int) -> RatPoly:
    """Closed form for the full boundary determinant, n >= 2: the parity-0
    form of size floor(n/2) times the parity-1 form of size ceil(n/2), that
    is (-1)^n / (3/2)_n * x^(n-2) times their two linear factors."""
    return _boundary_parity_rhs(0, n // 2) * _boundary_parity_rhs(1, (n + 1) // 2)


def verify_boundary(n: int) -> list[DetReport]:
    """Boundary determinant identities: both parity blocks for n >= 0, and
    the full matrix for n >= 2 (below that it is the parity-1 block of size
    n, already checked)."""
    if n < 0:
        raise ValueError("n must be >= 0")
    reports = [
        DetReport(
            n=n,
            identity=f"boundary-{ell}",
            lhs=det_diagonal_pencil(build_boundary(ell, n)),
            rhs=_boundary_parity_rhs(ell, n),
        )
        for ell in (0, 1)
    ]
    if n >= 2:
        reports.append(
            DetReport(
                n=n,
                identity="boundary-full",
                lhs=det_diagonal_pencil(build_boundary("full", n)),
                rhs=_boundary_full_rhs(n),
            )
        )
    return reports


def verify_legendre_hooks(n: int) -> list[DetReport]:
    """Hook-matrix determinants against their hypergeometric closed forms
    _hook_scalar(ell, n) * P_{2n+1-ell}."""
    if n < 0:
        raise ValueError("n must be >= 0")
    return [
        DetReport(
            n=n,
            identity=f"legendre-{ell}",
            lhs=det_diagonal_pencil(build_legendre_hook(ell, n)),
            rhs=_hook_scalar(ell, n) * char_poly(2 * n + 1 - ell).poly,
        )
        for ell in (0, 1)
    ]


@lru_cache(maxsize=None)
def _kron_pencil(n: int) -> tuple[Fraction, IntRows, IntRows]:
    """(scale, S, M): row i of S and M is r_i times row i of stiffness(n) and
    mass(n), and scale is the product of the r_i; built once per n, and only
    n in 1..6 reaches it.

    The rows are the integer Gram rows of `gram_rows`, each divided by the
    gcd of its stiffness and mass entries.
    """
    moment_scale, stiffness, mass = gram_rows(n)
    gcds, s_rows, m_rows = [], [], []
    for s_row, m_row in zip(stiffness, mass):
        g = gcd(*s_row, *m_row)
        gcds.append(g)
        s_rows.append(tuple(v // g for v in s_row))
        m_rows.append(tuple(v // g for v in m_row))
    return Fraction(moment_scale ** (n * n), prod(gcds)), tuple(s_rows), tuple(m_rows)


def verify_kron_factorization(n: int, sample: Rational | int) -> bool:
    """Check det(stiffness - s*mass) == det(mass_1d)^n * det(pencil(s))^n
    exactly at the rational sample s; sizes are capped so the n^2 x n^2
    determinant stays cheap.

    The left side eliminates the integer matrix q*S - p*M of `_kron_pencil`
    at s = p/q, whose determinant is scale * q^(n^2) times
    det(stiffness - s*mass); the right side goes through the 1D factors and
    `det_rational`.
    """
    if not 1 <= n <= 6:
        raise ValueError("n must be in 1..6")
    s = Fraction(sample)
    p, q = s.numerator, s.denominator
    scale, stiffness, mass = _kron_pencil(n)
    rows = [[q * a - p * b for a, b in zip(s_row, m_row)]
            for s_row, m_row in zip(stiffness, mass)]
    lhs = _bareiss(rows) / (scale * q ** (n * n))
    pencil_at_s = det_rational(build_pencil(n).eval_at(s))
    rhs = det_rational(build_mass_1d(n)) ** n * pencil_at_s**n
    return lhs == rhs
