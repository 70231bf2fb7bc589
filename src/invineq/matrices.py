"""Exact construction of the matrix families behind the eigenvalue problems.

Builders produce either rational matrices (mass/stiffness Gram matrices and
their one-dimensional factors) or pencils `const + x·slope` in the spectral
variable x (the 1D pencil, parity blocks, boundary matrices, hook matrices).
All entries come from closed-form integrals over (-1,1); nothing is computed
by quadrature.
A `RatMatrix` is stored once, as integer rows over positive row
denominators; the builders fill the rows with integer arithmetic and the
determinant layer reads the integers.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence

from .exact import Rational
from .hooks import Pair, legendre_hook_parts, legendre_parts
from .polynomial import RatPoly, clear_denominators
from .records import Record

IntRows = tuple[tuple[int, ...], ...]
Row = tuple[int, tuple[int, ...]]


def _ratio_row(pairs: Sequence[tuple[int, int]]) -> Row:
    """The ratios of (num, den) pairs, no den 0, over the lcm of the dens."""
    d = lcm(*[den for _, den in pairs])
    return d, tuple([num * (d // den) for num, den in pairs])


class RatMatrix(Record):
    """Immutable square matrix of exact rationals: row i of `rows` is (d_i,
    ints_i), entry (i, j) = ints_i[j] / d_i, in the canonical form of
    `RatPoly` row by row (d_i > 0, gcd(d_i, *ints_i) = 1).  Built from rows
    (d, ints), d != 0, reduced here, or from rows of ints and Fractions."""

    __slots__ = ("rows",)

    def __init__(self, rows: Iterable) -> None:
        rows = tuple(rows)
        if rows and not isinstance(rows[0][-1], tuple):
            rows = [clear_denominators(row) for row in rows]
        out = []
        for d, ints in rows:
            # d = 0 makes g = 0, and d // g raises ZeroDivisionError.
            g = gcd(d, *ints) if d > 0 else -gcd(d, *ints) if d else 0
            out.append((d, tuple(ints)) if g == 1 else (d // g, tuple([v // g for v in ints])))
        Record.__init__(self, tuple(out))

    @property
    def dim(self) -> int:
        return len(self.rows)

    @property
    def entries(self) -> tuple[tuple[Fraction, ...], ...]:
        """The entries as Fractions, row by row."""
        return tuple(tuple(map(Fraction, ints, [d] * len(ints))) for d, ints in self.rows)

    def __getitem__(self, ij: tuple[int, int]) -> Fraction:
        i, j = ij
        d, ints = self.rows[i]
        return Fraction(ints[j], d)

    def is_symmetric(self) -> bool:
        entries = self.entries
        return entries == tuple(zip(*entries))


class PolyMatrix(Record):
    """Immutable linear pencil const + x*slope: a square matrix whose entry
    (i, j) is the polynomial const[i, j] + slope[i, j]*x."""

    __slots__ = ("const", "slope")

    @property
    def dim(self) -> int:
        return self.const.dim

    def __getitem__(self, ij: tuple[int, int]) -> RatPoly:
        return RatPoly((self.const[ij], self.slope[ij]))

    def is_symmetric(self) -> bool:
        return self.const.is_symmetric() and self.slope.is_symmetric()

    def eval_at(self, x: Rational | int) -> RatMatrix:
        """The matrix at x = p/q: row i is (A q d/a + B p d/b) / (d q) for
        the rows A/a of const and B/b of slope, d = lcm(a, b)."""
        p, q = x.numerator, x.denominator
        rows = []
        for (a, const_row), (b, slope_row) in zip(self.const.rows, self.slope.rows):
            d = lcm(a, b)
            u, v = d // a * q, d // b * p
            rows.append((d * q, tuple([u * s + v * t for s, t in zip(const_row, slope_row)])))
        return RatMatrix(rows)


def _diagonal(b: Sequence[Pair]) -> RatMatrix:
    """diag(b), each row cut from one shared row of zeros."""
    zeros = (0,) * len(b)
    return RatMatrix((den, zeros[:i] + (num,) + zeros[i + 1:]) for i, (num, den) in enumerate(b))


def hook_pencil(g: Sequence[Pair], b: Sequence[Pair]) -> PolyMatrix:
    """The hook pencil A + x*diag(b), A[i][j] = g[min(i, j)], for g and b of
    one length, given as `Pair`s.  Row i of A is cut from the integers of g
    over their common denominator."""
    n = len(g)
    d, ints = _ratio_row(g)
    return PolyMatrix(RatMatrix((d, ints[:i] + ints[i:i + 1] * (n - i)) for i in range(n)),
                      _diagonal(b))


def index_split(k: int, n: int) -> tuple[int, int]:
    """Split a 1-based tensor index 1..n*n into (chi, rho), both in 0..n-1.

    The round trip is k == chi*n + rho + 1.
    """
    if not 1 <= k <= n * n:
        raise ValueError(f"index {k} out of range 1..{n * n}")
    return (k - 1) // n, (k - 1) % n


def gram_rows(n: int) -> tuple[int, IntRows, IntRows]:
    """(s, S, M): the Gram matrices of the n*n monomial basis
    x^rho * t^chi, in `index_split` order, under the x-derivative product (S)
    and the L2 product (M), times a scale s, as integer rows.

    Both read the table m[a][b] = s * I(a) * I(b) for a, b in 0..2n-2, where
    I(a), the integral of x^a over (-1, 1), is 2/(a+1) for even a, else 0.
    With L the lcm of the odd numbers up to 2n-1 the moments L * I(a) are
    integers, and s = L^2.  Stiffness entries with rho(i) + rho(j) <= 1
    vanish (a constant factor in x is differentiated away), which also
    sidesteps the 0/0 in the closed form.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    odd_lcm = lcm(*range(1, 2 * n, 2))
    moments = [2 * odd_lcm // (a + 1) if a % 2 == 0 else 0 for a in range(2 * n - 1)]
    m = [[a * b for b in moments] for a in moments]
    index = [divmod(k, n) for k in range(n * n)]
    stiffness = tuple(
        tuple(
            rho_i * rho_j * m[rho_i + rho_j - 2][chi_i + chi_j]
            if rho_i + rho_j > 1 else 0
            for chi_j, rho_j in index
        )
        for chi_i, rho_i in index
    )
    mass = tuple(
        tuple(m[rho_i + rho_j][chi_i + chi_j] for chi_j, rho_j in index)
        for chi_i, rho_i in index
    )
    return odd_lcm * odd_lcm, stiffness, mass


def build_mass(n: int) -> RatMatrix:
    """Gram matrix of the n*n monomial basis x^rho * t^chi under the L2 product."""
    scale, _, mass = gram_rows(n)
    return RatMatrix(zip([scale] * len(mass), mass))


def build_stiffness(n: int) -> RatMatrix:
    """Gram matrix of the same basis under the x-derivative product."""
    scale, stiffness, _ = gram_rows(n)
    return RatMatrix(zip([scale] * len(stiffness), stiffness))


def _gram_1d_rows(n: int, k: int, sign: int = 1) -> list[Row]:
    # sign times the Gram matrix of the k-th derivatives of 1, x, ...,
    # x^(n-1): ((i-1)(j-1))^k (1 - (-1)^(i+j-1-2k)) / (i+j-1-2k).  The parity
    # factor is tested first, so i + j == 3 at k = 1 never divides by zero.
    return [_ratio_row([(sign * 2 * ((i - 1) * (j - 1)) ** k, i + j - 1 - 2 * k)
                        if (i + j) % 2 == 0 else (0, 1) for j in range(1, n + 1)])
            for i in range(1, n + 1)]


def build_mass_1d(n: int) -> RatMatrix:
    """One-dimensional mass factor: Gram matrix of 1, x, ..., x^(n-1) on (-1,1)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return RatMatrix(_gram_1d_rows(n, 0))


def build_stiffness_1d(n: int) -> RatMatrix:
    """One-dimensional stiffness factor: Gram matrix of the derivatives."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return RatMatrix(_gram_1d_rows(n, 1))


def kronecker(x: RatMatrix, y: RatMatrix) -> RatMatrix:
    """Standard Kronecker product; dim(x) * dim(y)."""
    return RatMatrix((a * b, tuple(u * v for u in x_row for v in y_row))
                     for a, x_row in x.rows for b, y_row in y.rows)


def build_pencil(n: int) -> PolyMatrix:
    """The n x n pencil: 1D stiffness minus x times 1D mass, entrywise."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return PolyMatrix(RatMatrix(_gram_1d_rows(n, 1)), RatMatrix(_gram_1d_rows(n, 0, -1)))


def build_parity_block(parity: int, n: int) -> PolyMatrix:
    """Dimension-independent parity block of the pencil (after the even/odd
    permutation and removal of an entrywise factor 2).

    parity 0: (2i-1)(2j-1)/(2i+2j-3) - x/(2i+2j-1)
    parity 1: 4(i-1)(j-1)/(2i+2j-5) - x/(2i+2j-3)
    """
    if parity not in (0, 1):
        raise ValueError("parity must be 0 or 1")
    if n < 0:
        raise ValueError("n must be >= 0")
    # Both parities in one formula: parity 1 lowers every odd factor by 1
    # (2i-1 -> 2i-2) and every denominator by 2.
    odd = [2 * i - 1 - parity for i in range(1, n + 1)]
    const, slope = [], []
    for i, a in enumerate(odd):
        dens = [2 * (i + j) + 1 - 2 * parity for j in range(n + 1)]
        const.append(_ratio_row(list(zip([a * b for b in odd], dens))))
        slope.append(_ratio_row([(-1, den) for den in dens[1:]]))
    return PolyMatrix(RatMatrix(const), RatMatrix(slope))


def build_boundary(variant: str | int, n: int) -> PolyMatrix:
    """Boundary-trace matrices in the Legendre basis.

    variant "full": 1 + (-1)^(i+j) - delta_ij * 2x/(2i+1)
    variant 0:      2 - delta_ij * 2x/(4i+1)
    variant 1:      2 - delta_ij * 2x/(4i-1)
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if variant == "full":
        # Not a hook pencil; its parity blocks are.  Row i of 1 + (-1)^(i+j)
        # alternates 2 and 0, so every row is one of two shared rows.
        alternating = (2, 0) * n
        rows = ((1, alternating[:n]), (1, alternating[1:n + 1]))
        return PolyMatrix(RatMatrix(rows[i % 2] for i in range(n)),
                          _diagonal(legendre_parts(range(1, n + 1))[1]))
    if variant in (0, 1):
        return hook_pencil(((2, 1),) * n, legendre_hook_parts(variant, n)[1])
    raise ValueError("variant must be 'full', 0 or 1")


def build_legendre_hook(parity: int, n: int) -> PolyMatrix:
    """Legendre-basis hook matrices (constant along hooks, perturbed diagonal).

    With m = min(i, j):
    parity 0: 2m(2m+1) - delta_ij * 2x/(4i+1)
    parity 1: 2m(2m-1) - delta_ij * 2x/(4i-1)
    """
    if parity not in (0, 1):
        raise ValueError("parity must be 0 or 1")
    if n < 0:
        raise ValueError("n must be >= 0")
    return hook_pencil(*legendre_hook_parts(parity, n))


def parity_permutation(n: int) -> tuple[int, ...]:
    """0-based index map sending even-column-first order onto 1..n.

    perm[i] is the original (0-based) index placed at position i: original
    1-based columns 2, 4, 6, ... come first, then 1, 3, 5, ...
    """
    evens = list(range(1, n, 2))
    odds = list(range(0, n, 2))
    return tuple(evens + odds)


def split_parity_blocks(matrix: PolyMatrix) -> tuple[tuple[int, ...], PolyMatrix, PolyMatrix]:
    """Apply the parity permutation to rows and columns and cut out the two
    diagonal blocks; raise ValueError if an off-diagonal block of const or
    slope is nonzero, so the determinant is the product of the two blocks'.

    Returns (perm, top_left, bottom_right) where top_left is floor(n/2) wide
    and bottom_right is ceil(n/2) wide.
    """
    # The permutation lists the 0-based indices 1, 3, 5, ... and then
    # 0, 2, 4, ..., so each block takes every other row and column: row i
    # keeps the columns of its own parity, and must vanish in the others.
    halves = ([], [])
    for part in (matrix.const, matrix.slope):
        cut = ([], [])
        for i, (d, row) in enumerate(part.rows):
            if any(row[1 - i % 2::2]):
                raise ValueError("the off-diagonal parity blocks must be zero")
            cut[i % 2].append((d, row[i % 2::2]))
        for half, rows in zip(halves, cut):
            half.append(RatMatrix(rows))
    return parity_permutation(matrix.dim), PolyMatrix(*halves[1]), PolyMatrix(*halves[0])
