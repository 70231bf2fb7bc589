"""sympy as an independent oracle for the pencil model: the determinant of
`const + x*slope` expanded symbolically, and its value at a non-integer x;
and for the closed-form characteristic polynomials P_n."""

from fractions import Fraction as F

import pytest

from invineq.charpoly import char_poly
from invineq.determinants import det_hook_pencil, det_poly
from invineq.matrices import (
    PolyMatrix,
    build_boundary,
    build_legendre_hook,
    build_mass,
    build_mass_1d,
    build_parity_block,
    build_pencil,
    build_stiffness,
    build_stiffness_1d,
    split_parity_blocks,
)

sympy = pytest.importorskip("sympy")
x = sympy.Symbol("x")

SMALL = range(0, 6)
FAMILIES = {
    "pencil": (build_pencil, range(1, 6)),
    "parity0": (lambda n: build_parity_block(0, n), SMALL),
    "parity1": (lambda n: build_parity_block(1, n), SMALL),
    "boundary-full": (lambda n: build_boundary("full", n), SMALL),
    "boundary-0": (lambda n: build_boundary(0, n), SMALL),
    "boundary-1": (lambda n: build_boundary(1, n), SMALL),
    "legendre-0": (lambda n: build_legendre_hook(0, n), SMALL),
    "legendre-1": (lambda n: build_legendre_hook(1, n), SMALL),
    # The n^2 x n^2 pencil stiffness + x*mass behind the Kronecker check.
    "kron": (lambda n: PolyMatrix(build_stiffness(n), build_mass(n)), range(1, 3)),
}
CASES = [(name, n) for name, (_, ns) in FAMILIES.items() for n in ns]
DIAGONAL = [(name, n) for name, n in CASES if name.startswith(("boundary", "legendre"))]


def rat(value: F) -> sympy.Rational:
    return sympy.Rational(value.numerator, value.denominator)


def symbolic(m: PolyMatrix) -> sympy.Matrix:
    return sympy.Matrix(m.dim, m.dim, lambda i, j: rat(m.const[i, j]) + x * rat(m.slope[i, j]))


@pytest.mark.parametrize("name,n", CASES)
def test_det_poly_matches_sympy(name, n):
    m = FAMILIES[name][0](n)
    expected = sympy.Poly(symbolic(m).det().expand(), x).all_coeffs()[::-1]
    assert [rat(c) for c in det_poly(m).coeffs] == expected


@pytest.mark.parametrize("name,n", DIAGONAL)
def test_det_diagonal_pencil_matches_sympy(name, n):
    """`det_hook_pencil`, through the parity split for the full boundary."""
    m = FAMILIES[name][0](n)
    expected = sympy.Poly(symbolic(m).det().expand(), x).all_coeffs()[::-1]
    if name == "boundary-full":
        _, top, bottom = split_parity_blocks(m)
        got = det_hook_pencil(top) * det_hook_pencil(bottom)
    else:
        got = det_hook_pencil(m)
    assert [rat(c) for c in got.coeffs] == expected


@pytest.mark.parametrize("name,n", CASES)
def test_eval_at_matches_substitution(name, n):
    m = FAMILIES[name][0](n)
    for point in (F(7, 2), F(-7, 2)):
        expected = symbolic(m).subs(x, rat(point))
        got = m.eval_at(point)
        assert [[rat(got[i, j]) for j in range(m.dim)] for i in range(m.dim)] == expected.tolist()


@pytest.mark.parametrize("n", range(1, 11))
def test_char_poly_matches_sympy_charpoly(n):
    # The monic characteristic polynomial of M1^-1 K1, the 1D mass and
    # stiffness factors of size n, is x * P_{n-1}(x) * P_n(x).
    def matrix(m):
        return sympy.Matrix(n, n, lambda i, j: rat(m[i, j]))

    def poly(p):
        return sum(rat(c) * x**i for i, c in enumerate(p.coeffs))

    expected = (matrix(build_mass_1d(n)).inv() * matrix(build_stiffness_1d(n))).charpoly(x)
    got = x * poly(char_poly(n - 1).poly) * poly(char_poly(n).poly)
    assert sympy.expand(expected.as_expr() - got) == 0
