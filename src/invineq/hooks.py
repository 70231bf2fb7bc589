"""The Legendre integrals, the hook values, and the continuant of a hook pencil.

A hook pencil is A + x*diag(b) with A[i][j] = g_min(i, j); the boundary
parity matrices and the Legendre hooks are hook pencils, their b (and the
hooks' g) the Legendre integrals of `legendre_parts`.  Its leading minors
follow a three-term (continuant) recurrence, run here on integer rows made
from g and b given as integer (numerator, denominator) pairs (`Pair`), with
no Fraction: over coefficient lists for the determinant polynomial
(`_continuant`, behind `determinants.det_hook_pencil`) and over the
integers at one rational x for a root count (`continuant_count`, behind
the separators of `spectra._root_cells`).  This module imports only
`polynomial`, so the root commands read the hooks without compiling the
matrix and determinant layers.

Each row is scaled to integers on its own: scaling all of them once by the
lcm L = lcm(1, 3, ..., 4m + 1) of the hook's denominators would make every
step of `continuant_count` carry b' = L*b, about 5.8*m bits more.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Iterator, Sequence

from .polynomial import RatPoly

# An exact rational as an integer (numerator, denominator) pair, denominator > 0.
Pair = tuple[int, int]


def legendre_parts(degrees: Sequence[int]) -> tuple[list[Pair], list[Pair]]:
    """(g, b) for the degrees k: g_k = k(k+1) = int P_k' P_l' (l <= k of one
    parity) and b_k = -2/(2k+1) = -int P_k^2 over (-1, 1); written only here."""
    return [(k * (k + 1), 1) for k in degrees], [(-2, 2 * k + 1) for k in degrees]


def legendre_hook_parts(parity: int, n: int) -> tuple[list[Pair], list[Pair]]:
    """The g and b of `build_legendre_hook(parity, n)` = `hook_pencil(g, b)`:
    the `legendre_parts` of the degrees 2m - parity, m = 1..n."""
    return legendre_parts(range(2 - parity, 2 * n + 1, 2))


def continuant_rows(g: Sequence[Pair], b: Sequence[Pair]) -> Iterator[tuple[int, int, int, int]]:
    """Integer rows (s_k, dg, diag, couple), s_k > 0, with E_k = (dg + x
    diag) E_{k-1} - x^2 couple E_{k-2} for E_k = s_1...s_k D_k, D_k the
    leading k x k minors of `hook_pencil(g, b)` = A + x*diag(b), A[i][j] =
    g_min(i, j), for g and b given as `Pair`s.  With L lower-triangular
    all-ones, A = L*diag(dg)*L^T for dg_k = g_k - g_{k-1} (g_{-1} = 0), so
    D_k are those of the tridiagonal diag(dg) + x*L^-1 diag(b) L^-T:
    diagonal dg_k + x(b_k + b_{k-1}), off-diagonal -x b_{k-1} (b_{-1} = 0),
    a continuant (Muir, *A Treatise on the Theory of Determinants*).  s_k
    is the lcm of the denominators of g_k, g_{k-1}, b_{k-1} and b_k.  g and
    b may hold zeros and repeats."""
    # `lower` is s_k b_{k-1} (row k, left of the diagonal) and `upper` is
    # s_{k-1} b_{k-1} (row k - 1, right of it), each times -x; gp/gq and
    # bp/bq are g_{k-1} and b_{k-1}.
    (gp, gq), (bp, bq), upper = (0, 1), (0, 1), 0
    for (gn, gd), (bn, bd) in zip(g, b):
        s = lcm(gd, gq, bq, bd)
        lower, b_row = bp * (s // bq), bn * (s // bd)
        yield s, gn * (s // gd) - gp * (s // gq), lower + b_row, upper * lower
        (gp, gq), (bp, bq), upper = (gn, gd), (bn, bd), b_row


def _continuant(g: Sequence[Pair], b: Sequence[Pair]) -> RatPoly:
    """Exact determinant polynomial of `hook_pencil(g, b)`, in O(dim^2)
    integer coefficient operations by `continuant_rows`."""
    prev, cur, scale = [], [1], 1  # D_{k-2}, D_{k-1}
    for s, dg, diag, couple in continuant_rows(g, b):
        scale *= s
        cur, prev = [dg * c0 + diag * c1 - couple * c2
                     for c0, c1, c2 in zip(cur + [0], [0] + cur, [0, 0] + prev)], cur
    return RatPoly(cur) * Fraction(1, scale)


def continuant_count(rows: Sequence[tuple[int, int, int, int]], x: Fraction) -> int:
    """The sign changes in E_0(x), ..., E_m(x) of `continuant_rows`, zeros
    skipped, from the integers q^k E_k(p/q).  For x > 0, dg > 0 and b < 0,
    as in the Legendre hooks, they count the negative eigenvalues of the
    tridiagonal matrix, positive definite at 0 and decreasing in x (Givens
    1954; Barth, Martin and Wilkinson, Numer. Math. 9, 1967): the roots of
    E_m in (0, x), one less than in (0, x] when x is a root."""
    (p, q), prev, cur, changes, positive = x.as_integer_ratio(), 0, 1, 0, True
    for _, dg, diag, couple in rows:
        cur, prev = (dg * q + diag * p) * cur - couple * p * p * prev, cur
        if cur and (cur > 0) != positive:
            changes, positive = changes + 1, not positive
    return changes
