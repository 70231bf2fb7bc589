"""Exact determinants of rational and polynomial matrices, and the exact
verification of every closed-form determinant identity exposed by the
assembly and charpoly layers.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, prod

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
    hook_pencil,
    split_parity_blocks,
)
from .polynomial import RatPoly, clear_denominators, poly_interpolate
from .records import Record, set_field

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


class DetReport(Record):
    """One exact determinant-identity comparison."""

    __slots__ = ("n", "identity", "lhs", "rhs")

    def __init__(self, n: int, identity: str, lhs: RatPoly, rhs: RatPoly):
        set_field(self, "n", n)
        set_field(self, "identity", identity)
        set_field(self, "lhs", lhs)
        set_field(self, "rhs", rhs)

    @property
    def equal(self) -> bool:
        return self.lhs == self.rhs

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
    scales, which changes only its content.  The empty pencil gives 1.
    """
    n = matrix.dim
    scales, const, slope = matrix.scaled_rows()
    scaled = PolyMatrix(RatMatrix(const), RatMatrix(slope))
    dets = poly_interpolate([
        (x, _bareiss([list(row) for row in scaled.eval_at(x).entries]))
        for x in range(n + 1)
    ])
    return dets * Fraction(1, prod(scales))


def det_hook_pencil(matrix: PolyMatrix) -> RatPoly:
    """Exact determinant polynomial of a hook pencil A + x*diag(b) with
    A[i][j] = g_min(i, j), in O(dim^2) coefficient operations; g and b are
    read off the diagonals, and a pencil other than `hook_pencil(g, b)`
    raises ValueError.  The boundary-parity and hook matrices are hook
    pencils; g and b may hold zeros and repeats.

    With L the lower-triangular all-ones matrix, A = L*diag(dg)*L^T for the
    differences dg_k = g_k - g_{k-1} (g_{-1} = 0), and det L = 1, so the
    determinant is that of the tridiagonal matrix diag(dg) + x*L^-1 diag(b)
    L^-T: diagonal dg_k + x(b_k + b_{k-1}), off-diagonal -x b_{k-1}
    (b_{-1} = 0).  That is the continuant (Muir, *A Treatise on the Theory
    of Determinants*)

        D_k = (dg_k + x(b_k + b_{k-1})) D_{k-1} - x^2 b_{k-1}^2 D_{k-2}.

    Each tridiagonal row is scaled to integers once, the recurrence runs on
    integer coefficient lists, and the result is divided once by the
    product of the row scales.
    """
    g = [row[i] for i, row in enumerate(matrix.const.entries)]
    b = [row[i] for i, row in enumerate(matrix.slope.entries)]
    hook = hook_pencil(g, b)
    if matrix.const != hook.const:
        raise ValueError("const is not constant along hooks")
    if matrix.slope != hook.slope:
        raise ValueError("slope must be diagonal")
    # prev, cur = D_{k-2}, D_{k-1}.  With s_k the scale of row k, `lower` is
    # s_k * b_{k-1} (row k, left of the diagonal) and `upper` is
    # s_{k-1} * b_{k-1} (row k - 1, right of it), each times -x.
    prev, cur = [], [1]
    scale, g_prev, b_prev, upper = 1, 0, 0, 0
    for g_k, b_k in zip(g, b):
        s, (dg, lower, b_row) = clear_denominators((g_k - g_prev, b_prev, b_k))
        scale *= s
        diag, couple = lower + b_row, upper * lower
        cur, prev = [
            dg * c0 + diag * c1 - couple * c2
            for c0, c1, c2 in zip(cur + [0], [0] + cur, [0, 0] + prev)
        ], cur
        g_prev, b_prev, upper = g_k, b_k, b_row
    return RatPoly(cur) * Fraction(1, scale)


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
    closed forms of sizes floor(n/2) and ceil(n/2), times 2^n.  The parity
    permutation makes the pencil the direct sum of its parity blocks
    (`split_parity_blocks` checks that the blocks between them are zero), so
    its determinant is the product of theirs."""
    if n < 1:
        raise ValueError("n must be >= 1")
    _, top, bottom = split_parity_blocks(build_pencil(n))
    return DetReport(
        n=n,
        identity="corollary-full",
        lhs=det_poly(top) * det_poly(bottom),
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
    n, already checked).  The parity permutation makes the full matrix the
    direct sum of its parity blocks (`split_parity_blocks` checks that the
    blocks between them are zero), so its determinant is their product."""
    if n < 0:
        raise ValueError("n must be >= 0")
    reports = [
        DetReport(
            n=n,
            identity=f"boundary-{ell}",
            lhs=det_hook_pencil(build_boundary(ell, n)),
            rhs=_boundary_parity_rhs(ell, n),
        )
        for ell in (0, 1)
    ]
    if n >= 2:
        _, top, bottom = split_parity_blocks(build_boundary("full", n))
        reports.append(
            DetReport(
                n=n,
                identity="boundary-full",
                lhs=det_hook_pencil(top) * det_hook_pencil(bottom),
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
            lhs=det_hook_pencil(build_legendre_hook(ell, n)),
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
