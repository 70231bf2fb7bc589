"""Exact determinants of rational and polynomial matrices, the exact
verification of every closed-form determinant identity exposed by the
assembly and charpoly layers, and the boundary eigenvalue.

The charpoly layer is imported only inside the three checks that read it
(`_thm31_rhs`, `verify_cauchy`, `verify_legendre_hooks`), so that the
boundary checks load no characteristic-polynomial code.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, gcd, lcm, prod
from operator import mul
from typing import Sequence

from .exact import Rational, pochhammer
from .hooks import _continuant, legendre_parts
from .matrices import (
    IntRows,
    PolyMatrix,
    RatMatrix,
    _ratio_row,
    build_boundary,
    build_legendre_hook,
    build_mass_1d,
    build_parity_block,
    build_pencil,
    gram_rows,
    split_parity_blocks,
)
from .polynomial import RatPoly, poly_interpolate
from .records import Record


class DetReport(Record):
    """One exact determinant-identity comparison."""

    __slots__ = ("n", "identity", "lhs", "rhs")

    @property
    def equal(self) -> bool:
        return self.lhs == self.rhs


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
    """Exact determinant; the empty matrix has determinant 1: `_bareiss` of
    the integer rows over the product of the row denominators."""
    return Fraction(_bareiss([list(row) for _, row in matrix.rows]),
                    prod(d for d, _ in matrix.rows))


def det_poly(matrix: PolyMatrix) -> RatPoly:
    """Exact determinant polynomial of the pencil const + x*slope via
    evaluation and interpolation: the determinant has degree <= dim, so
    `det_rational` at the dim + 1 abscissae 0..dim pins it down.  The empty
    pencil gives 1."""
    return poly_interpolate([(x, det_rational(matrix.eval_at(x)))
                             for x in range(matrix.dim + 1)])


def det_hook_pencil(matrix: PolyMatrix) -> RatPoly:
    """Exact determinant polynomial of a hook pencil A + x*diag(b) with
    A[i][j] = g_min(i, j) by `_continuant`; g and b are read off the
    diagonals.  A pencil of another shape raises ValueError: on the integer
    rows, row i of const must equal its diagonal from there on and row
    i - 1 before it, and slope must be 0 off the diagonal.  The
    boundary-parity and hook matrices are hook pencils."""
    n, const, slope = matrix.dim, matrix.const.rows, matrix.slope.rows
    for i, (d, row) in enumerate(const):
        e, prev = const[i - 1] if i else (d, row)
        left = row[:i] == prev[:i] if d == e else all(
            u * e == v * d for u, v in zip(row[:i], prev))
        if not left or row[i:].count(row[i]) != n - i:
            raise ValueError("const is not constant along hooks")
    if any(any(row[:i]) or any(row[i + 1:]) for i, (_, row) in enumerate(slope)):
        raise ValueError("slope must be diagonal")
    g, b = ([(row[i], d) for i, (d, row) in enumerate(part)] for part in (const, slope))
    return _continuant(g, b)


def _upper_congruence(rows: Sequence[Sequence[int]],
                      cols: Sequence[Sequence[int]]) -> list[list[int]]:
    """Row i of the upper triangle (columns i..n-1) of C^T W C, for the
    integer rows of W and the columns of the upper-triangular C, column m
    given by its entries 0..m; about n^3/2 multiplications."""
    n = len(cols)
    # wc[j][a] = (W C)[a][j] for a <= j, the only rows the triangle reads.
    wc = [[sum(map(mul, rows[a], col)) for a in range(j + 1)] for j, col in enumerate(cols)]
    return [[sum(map(mul, cols[i], wc[j])) for j in range(i, n)] for i in range(n)]


def det_parity_block(ell: int, block: PolyMatrix) -> RatPoly:
    """Exact determinant polynomial of a parity-ell monomial Gram pencil:
    block[i][j] = c * (int (x^k_i)' (x^k_j)' - x * int x^k_i x^k_j) over
    (-1, 1), k_m = 2m + 1 - ell (0-based m), for a scalar c; that is
    `build_parity_block(ell, n)` (c = 1/2) or the top (ell = 0) or bottom
    (ell = 1) block of `split_parity_blocks(build_pencil(n))` (c = 1).

    Let column m of the upper-triangular integer matrix C hold the monomial
    coefficients of 2^k P_k, k = k_m, P_k Legendre:

        2^k P_k = sum_j (-1)^j C(k, j) C(2k - 2j, k) x^(k - 2j).

    For (g, b) the `legendre_parts` of the k_m, int P_k' P_l' = g_l for
    l <= k of one parity and int P_k P_l = -delta_kl b_k, so C^T block C =
    c D H D with D = diag(2^k_m) and H = `hook_pencil(g, b)`.  Since P_k =
    x^k for k <= 1, c is the slope entry (0, 0) over b_0.  The congruence
    is checked exactly on the integer rows s * block, s the lcm of the row
    denominators, first their symmetry and then the upper triangles of the
    two products.  Hence

        det block = c^n 4^(sum k_m) det H / det(C)^2,

    det C = prod C(2k_m, k_m), and det H is the continuant of g and b.  A
    block that fails the congruence raises ArithmeticError naming ell and
    n: a builder is wrong.
    """
    if ell not in (0, 1):
        raise ValueError("ell must be 0 or 1")
    n = block.dim
    if n == 0:
        return RatPoly.one()
    ks = [2 * m + 1 - ell for m in range(n)]
    g, b = legendre_parts(ks)
    cols = [[(-1) ** (m - a) * comb(k, m - a) * comb(k + ks[a], k) for a in range(m + 1)]
            for m, k in enumerate(ks)]
    s = lcm(*(d for d, _ in block.const.rows))
    t = lcm(*(d for d, _ in block.slope.rows))
    const_rows = [[s // d * v for v in row] for d, row in block.const.rows]
    slope_rows = [[t // d * v for v in row] for d, row in block.slope.rows]
    c = Fraction(slope_rows[0][0] * b[0][1], t * b[0][0])
    p, q = c.numerator, c.denominator
    # c = p/q.  With g_i = gn/gd and b_i = bn/bd, multiplied through by q gd,
    # entry (i, j >= i) of C^T (s * const) C must be s p 2^(k_i + k_j) gn;
    # multiplied through by q bd, entry (i, i) of C^T (t * slope) C must be
    # t p 4^k_i bn, and the entries right of it 0.
    powers = [1 << k for k in ks]
    congruent = (
        all(rows[i][j] == rows[j][i] for rows in (const_rows, slope_rows)
            for i in range(n) for j in range(i))
        and all(q * gd * z == s * p * powers[i] * powers[i + d] * gn
                for i, ((gn, gd), row) in enumerate(zip(g, _upper_congruence(const_rows, cols)))
                for d, z in enumerate(row))
        and all(q * bd * row[0] == t * p * powers[i] ** 2 * bn and not any(row[1:])
                for i, ((bn, bd), row) in enumerate(zip(b, _upper_congruence(slope_rows, cols))))
    )
    if not congruent:
        raise ArithmeticError(
            f"the parity-{ell} block of size {n} is not congruent to its Legendre hook pencil")
    lead = prod(comb(2 * k, k) for k in ks)
    return _continuant(g, b) * (c**n * Fraction(4 ** sum(ks), lead * lead))


def _thm31_rhs(ell: int, n: int) -> RatPoly:
    """(-1)^n det_prefactor(ell, n) P_{2n-ell} x^ell, for n >= ell."""
    from .charpoly import det_prefactor, parity_target

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
            lhs=det_parity_block(ell, build_parity_block(ell, n)),
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
        lhs=det_parity_block(0, top) * det_parity_block(1, bottom),
        rhs=2**n * _thm31_rhs(0, n // 2) * _thm31_rhs(1, (n + 1) // 2),
    )


def cauchy_matrix(ell: int, n: int) -> RatMatrix:
    """Hilbert-type matrix with entries 1/(2i+2j-1-2ell)."""
    if ell not in (0, 1):
        raise ValueError("ell must be 0 or 1")
    return RatMatrix(_ratio_row([(1, 2 * i + 2 * j - 1 - 2 * ell) for j in range(1, n + 1)])
                     for i in range(1, n + 1))


def verify_cauchy(ell: int, n: int) -> DetReport:
    """Hilbert-type determinant against the prefactor constant."""
    from .charpoly import det_prefactor

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


def max_boundary_eigenvalue(n: int) -> Fraction:
    """Largest boundary-trace eigenvalue: n(n+3)/2, plus 1 when n is odd."""
    if n < 1:
        raise ValueError("n must be >= 1")
    value = Fraction(n * (n + 3), 2)
    return value + 1 if n % 2 else value


def boundary_factor_roots(n: int) -> tuple[Fraction, ...]:
    """Roots of the verified boundary determinant factorization: zero (for
    n >= 3) and the boundary_root of each parity form of size >= 1."""
    if n < 1:
        raise ValueError("n must be >= 1")
    roots = {Fraction(boundary_root(ell, h))
             for ell, h in ((0, n // 2), (1, (n + 1) // 2)) if h >= 1}
    if n >= 3:
        roots.add(Fraction(0))
    return tuple(sorted(roots))


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
    from .charpoly import char_poly

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


def _kron_blocks(n: int, stiffness: IntRows, mass: IntRows) -> tuple[tuple[IntRows, IntRows], ...]:
    """The diagonal blocks (S, M) of the n^2 x n^2 Gram rows, one for each
    class (chi mod 2, rho mod 2) of the `index_split` order, in the order
    (0, 0), (0, 1), (1, 0), (1, 1); raise ValueError if an entry between two
    classes is nonzero, so that the determinant of the pencil at any s is
    the product of its blocks'.  An odd power of x or t integrates to 0,
    which is why those entries vanish."""
    label = [2 * (chi % 2) + rho % 2 for chi, rho in (divmod(k, n) for k in range(n * n))]
    for rows in (stiffness, mass):
        if any(v for i, row in enumerate(rows) for j, v in enumerate(row) if label[i] != label[j]):
            raise ValueError("the entries between parity classes must be zero")
    classes = [[k for k in range(n * n) if label[k] == cls] for cls in range(4)]
    return tuple(
        tuple(tuple(tuple(rows[i][j] for j in members) for i in members)
              for rows in (stiffness, mass))
        for members in classes
    )


@lru_cache(maxsize=None)
def _kron_pencil(n: int) -> tuple[Fraction, tuple[tuple[IntRows, IntRows], ...]]:
    """(scale, blocks): the four parity blocks (S, M) of `_kron_blocks`,
    where row i of S and M is r_i times the same row of stiffness(n) and
    mass(n), cut to its block, and scale is the product of the r_i; built
    once per n, and only n in 1..6 reaches it.

    The rows are the integer Gram rows of `gram_rows`, each divided by the
    gcd of its stiffness and mass entries.
    """
    moment_scale, stiffness, mass = gram_rows(n)
    blocks, gcds = [], []
    for s_rows, m_rows in _kron_blocks(n, stiffness, mass):
        s_out, m_out = [], []
        for s_row, m_row in zip(s_rows, m_rows):
            g = gcd(*s_row, *m_row)
            gcds.append(g)
            s_out.append(tuple(v // g for v in s_row))
            m_out.append(tuple(v // g for v in m_row))
        blocks.append((tuple(s_out), tuple(m_out)))
    return Fraction(moment_scale ** (n * n), prod(gcds)), tuple(blocks)


def _kron_lhs(n: int, s: Fraction) -> Fraction:
    """det(stiffness(n) - s*mass(n)) as the product of the determinants of
    the four parity blocks q*S - p*M of `_kron_pencil` at s = p/q, divided
    by scale * q^(n^2); at n = 6 that is four 9 x 9 eliminations instead of
    one 36 x 36."""
    p, q = s.numerator, s.denominator
    scale, blocks = _kron_pencil(n)
    return prod(
        _bareiss([[q * a - p * b for a, b in zip(s_row, m_row)]
                  for s_row, m_row in zip(stiffness, mass)])
        for stiffness, mass in blocks
    ) / (scale * q ** (n * n))


@lru_cache(maxsize=None)
def _kron_factors(n: int) -> tuple[PolyMatrix, Fraction]:
    """(build_pencil(n), det_rational(build_mass_1d(n))), the parts of the
    right side of `verify_kron_factorization` that do not depend on s;
    built once per n, and only n in 1..6 reaches it."""
    return build_pencil(n), det_rational(build_mass_1d(n))


def verify_kron_factorization(n: int, sample: Rational | int) -> bool:
    """Check det(stiffness - s*mass) == det(mass_1d)^n * det(pencil(s))^n
    exactly at the rational sample s; sizes are capped so the n^2 x n^2
    determinant stays cheap.

    The left side is `_kron_lhs`, which never goes through the 1D factors;
    the right side goes through them (`_kron_factors`) and `det_rational`.
    """
    if not 1 <= n <= 6:
        raise ValueError("n must be in 1..6")
    s = Fraction(sample)
    pencil, mass_det = _kron_factors(n)
    rhs = mass_det**n * det_rational(pencil.eval_at(s)) ** n
    return _kron_lhs(n, s) == rhs
