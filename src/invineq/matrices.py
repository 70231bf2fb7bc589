"""Exact construction of the matrix families behind the eigenvalue problems.

Builders produce either rational matrices (mass/stiffness Gram matrices and
their one-dimensional factors) or pencils `const + x·slope` in the spectral
variable x (the 1D pencil, parity blocks, boundary matrices, hook matrices).
All entries come from closed-form integrals over (-1,1); nothing is computed
by quadrature.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Callable, Sequence

from .exact import Rational
from .hooks import _hook_slope, legendre_hook_parts
from .polynomial import RatPoly, clear_denominators
from .records import Record

IntRows = tuple[tuple[int, ...], ...]
_ZERO = Fraction(0)


class RatMatrix(Record):
    """Immutable square matrix of exact rationals (Fractions or ints)."""

    __slots__ = ("entries",)

    @property
    def dim(self) -> int:
        return len(self.entries)

    def __getitem__(self, ij: tuple[int, int]) -> Fraction:
        i, j = ij
        return self.entries[i][j]

    def is_symmetric(self) -> bool:
        n = self.dim
        return all(self.entries[i][j] == self.entries[j][i] for i in range(n) for j in range(i))


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
        return RatMatrix(tuple(
            tuple(a + x * b for a, b in zip(const_row, slope_row))
            for const_row, slope_row in zip(self.const.entries, self.slope.entries)
        ))

    def scaled_rows(self) -> tuple[tuple[int, ...], IntRows, IntRows]:
        """(d, A, B): row i of const and slope scaled together by the lcm
        d_i of its denominators, so A = D*const and B = D*slope are integer
        rows, D = diag(d)."""
        n = self.dim
        scales, a_rows, b_rows = [], [], []
        for a_row, b_row in zip(self.const.entries, self.slope.entries):
            denom, ints = clear_denominators(a_row + b_row)
            scales.append(denom)
            a_rows.append(tuple(ints[:n]))
            b_rows.append(tuple(ints[n:]))
        return tuple(scales), tuple(a_rows), tuple(b_rows)


def _rat_matrix(n: int, entry: Callable[[int, int], Fraction]) -> RatMatrix:
    """Build an n x n RatMatrix from a 1-based entry formula."""
    return RatMatrix(
        tuple(tuple(entry(i, j) for j in range(1, n + 1)) for i in range(1, n + 1))
    )


def _pencil(n: int, const: Callable[[int, int], Fraction],
            slope: Callable[[int, int], Fraction]) -> PolyMatrix:
    """Build the n x n pencil const + x*slope from two 1-based entry formulas."""
    return PolyMatrix(_rat_matrix(n, const), _rat_matrix(n, slope))


def _diagonal(b: Sequence[Fraction]) -> RatMatrix:
    """diag(b), each row cut from b and one shared zero."""
    n = len(b)
    zeros = (_ZERO,) * n
    return RatMatrix(tuple(zeros[:i] + (b[i],) + zeros[i + 1:] for i in range(n)))


def hook_pencil(g: Sequence[Fraction], b: Sequence[Fraction]) -> PolyMatrix:
    """The hook pencil A + x*diag(b), A[i][j] = g[min(i, j)], for g and b of
    one length.  Each row is cut from g, or from b and one shared zero, so
    equal entries are the same object."""
    n = len(g)
    g = tuple(g)
    return PolyMatrix(RatMatrix(tuple(g[:i] + (g[i],) * (n - i) for i in range(n))),
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


def _unscaled(scale: int, rows: IntRows) -> RatMatrix:
    return RatMatrix(tuple(tuple(Fraction(v, scale) for v in row) for row in rows))


def build_mass(n: int) -> RatMatrix:
    """Gram matrix of the n*n monomial basis x^rho * t^chi under the L2 product."""
    scale, _, mass = gram_rows(n)
    return _unscaled(scale, mass)


def build_stiffness(n: int) -> RatMatrix:
    """Gram matrix of the same basis under the x-derivative product."""
    scale, stiffness, _ = gram_rows(n)
    return _unscaled(scale, stiffness)


def _mass_1d_entry(i: int, j: int) -> Fraction:
    # (1 - (-1)^(i+j-1)) / (i+j-1)
    if (i + j - 1) % 2 == 0:
        return Fraction(0)
    return Fraction(2, i + j - 1)


def _stiffness_1d_entry(i: int, j: int) -> Fraction:
    # (i-1)(j-1)(1 - (-1)^(i+j-3)) / (i+j-3); the parity factor is tested
    # first so the i+j == 3 case never divides by zero.
    if (i + j - 3) % 2 == 0:
        return Fraction(0)
    return Fraction(2 * (i - 1) * (j - 1), i + j - 3)


def build_mass_1d(n: int) -> RatMatrix:
    """One-dimensional mass factor: Gram matrix of 1, x, ..., x^(n-1) on (-1,1)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return _rat_matrix(n, _mass_1d_entry)


def build_stiffness_1d(n: int) -> RatMatrix:
    """One-dimensional stiffness factor: Gram matrix of the derivatives."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return _rat_matrix(n, _stiffness_1d_entry)


def kronecker(x: RatMatrix, y: RatMatrix) -> RatMatrix:
    """Standard Kronecker product; dim(x) * dim(y)."""
    m = y.dim
    out = []
    for p in range(x.dim):
        for q in range(m):
            row = []
            for r in range(x.dim):
                xe = x.entries[p][r]
                row.extend(xe * ye for ye in y.entries[q])
            out.append(tuple(row))
    return RatMatrix(tuple(out))


def build_pencil(n: int) -> PolyMatrix:
    """The n x n pencil: 1D stiffness minus x times 1D mass, entrywise."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return _pencil(n, _stiffness_1d_entry, lambda i, j: -_mass_1d_entry(i, j))


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
    p = parity
    return _pencil(
        n,
        lambda i, j: Fraction((2 * i - 1 - p) * (2 * j - 1 - p), 2 * i + 2 * j - 3 - 2 * p),
        lambda i, j: Fraction(-1, 2 * i + 2 * j - 1 - 2 * p),
    )


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
        # alternates 2 and 0, so every row is one of two shared tuples.
        alternating = (Fraction(2), _ZERO) * n
        rows = (alternating[:n], alternating[1:n + 1])
        return PolyMatrix(RatMatrix(tuple(rows[i % 2] for i in range(n))),
                          _diagonal([Fraction(-2, 2 * i + 1) for i in range(1, n + 1)]))
    if variant in (0, 1):
        return hook_pencil((Fraction(2),) * n, _hook_slope(variant, n))
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
    # 0, 2, 4, ..., so each block takes every other row and column.
    parts = (matrix.const, matrix.slope)

    def block(part: RatMatrix, row_start: int, col_start: int) -> tuple:
        return tuple(row[col_start::2] for row in part.entries[row_start::2])

    def cut(start: int) -> PolyMatrix:
        return PolyMatrix(*(RatMatrix(block(part, start, start)) for part in parts))

    for part in parts:
        # count compares by identity first: the builders' zeros are one _ZERO.
        if any(row.count(_ZERO) != len(row) for row in block(part, 1, 0) + block(part, 0, 1)):
            raise ValueError("the off-diagonal parity blocks must be zero")
    return parity_permutation(matrix.dim), cut(1), cut(0)
