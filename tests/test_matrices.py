import pickle
from fractions import Fraction as F
from itertools import product
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from invineq.matrices import (
    build_boundary,
    build_legendre_hook,
    build_mass,
    build_mass_1d,
    build_parity_block,
    build_pencil,
    build_stiffness,
    build_stiffness_1d,
    index_split,
    kronecker,
    parity_permutation,
    split_parity_blocks,
    PolyMatrix,
    RatMatrix,
)
from invineq.polynomial import RatPoly


def monomial_integral(p: int) -> F:
    """Oracle: integral of x**p over (-1, 1)."""
    return F(2, p + 1) if p % 2 == 0 else F(0)


class TestIndexSplit:
    def test_first_and_last(self):
        assert index_split(1, 3) == (0, 0)
        assert index_split(9, 3) == (2, 2)

    def test_middle(self):
        assert index_split(5, 3) == (1, 1)

    def test_round_trip(self):
        for n in (1, 2, 5):
            for k in range(1, n * n + 1):
                chi, rho = index_split(k, n)
                assert k == chi * n + rho + 1
                assert 0 <= chi < n and 0 <= rho < n

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            index_split(0, 3)
        with pytest.raises(ValueError):
            index_split(10, 3)


class TestMassStiffness:
    def test_n1(self):
        assert build_mass(1).entries == ((F(4),),)
        assert build_stiffness(1).entries == ((F(0),),)

    def test_n2_diagonal(self):
        m = build_mass(2)
        assert m[0, 0] == 4
        assert m[1, 1] == F(4, 3)

    def test_against_integral_oracle(self):
        # The entry formulas, one integral pair per entry, as a reference for
        # the table-driven builders.
        for n in range(1, 9):
            m = build_mass(n)
            k = build_stiffness(n)
            for i in range(1, n * n + 1):
                chi_i, rho_i = index_split(i, n)
                for j in range(1, n * n + 1):
                    chi_j, rho_j = index_split(j, n)
                    assert m[i - 1, j - 1] == (
                        monomial_integral(rho_i + rho_j) * monomial_integral(chi_i + chi_j)
                    )
                    if rho_i >= 1 and rho_j >= 1:
                        expect = (
                            rho_i * rho_j
                            * monomial_integral(rho_i + rho_j - 2)
                            * monomial_integral(chi_i + chi_j)
                        )
                    else:
                        expect = F(0)
                    assert k[i - 1, j - 1] == expect

    def test_odd_parity_entries_vanish(self):
        m = build_mass(3)
        for i in range(1, 10):
            chi_i, rho_i = index_split(i, 3)
            for j in range(1, 10):
                chi_j, rho_j = index_split(j, 3)
                if (rho_i + rho_j) % 2 == 1:
                    assert m[i - 1, j - 1] == 0

    def test_symmetry(self):
        for n in (2, 3, 4):
            assert build_mass(n).is_symmetric()
            assert build_stiffness(n).is_symmetric()


class TestOneDimensionalFactors:
    def test_small_values(self):
        assert build_mass_1d(1).entries == ((F(2),),)
        assert build_stiffness_1d(1).entries == ((F(0),),)
        assert build_mass_1d(2)[0, 1] == 0

    def test_degenerate_denominator_entry(self):
        # i + j == 3 hits a zero denominator in the raw formula; the parity
        # factor forces the entry to 0 before any division.
        b = build_stiffness_1d(3)
        assert b[0, 1] == 0 and b[1, 0] == 0
        assert b[1, 1] == 2

    def test_symmetry(self):
        for n in (2, 3, 5):
            assert build_mass_1d(n).is_symmetric()
            assert build_stiffness_1d(n).is_symmetric()


class TestKronecker:
    def test_one_by_one(self):
        assert kronecker(
            RatMatrix(((F(2),),)), RatMatrix(((F(2),),))
        ).entries == ((F(4),),)

    def test_mass_factorization(self):
        for n in range(1, 7):
            a = build_mass_1d(n)
            assert kronecker(a, a) == build_mass(n)

    def test_stiffness_factorization(self):
        for n in range(1, 7):
            a = build_mass_1d(n)
            b = build_stiffness_1d(n)
            assert kronecker(a, b) == build_stiffness(n)


class TestPencil:
    def test_n1(self):
        assert build_pencil(1)[0, 0] == RatPoly((0, -2))

    def test_parity_zeros(self):
        p = build_pencil(4)
        for i in range(4):
            for j in range(4):
                if (i + j) % 2 == 1:  # 1-based i+j odd
                    assert p[i, j].is_zero()

    def test_n2_diagonal_entry(self):
        assert build_pencil(2)[1, 1] == RatPoly((2, F(-2, 3)))

    def test_symmetry(self):
        for n in (2, 3, 6):
            assert build_pencil(n).is_symmetric()


class TestParityBlocks:
    def test_displayed_entries(self):
        assert build_parity_block(0, 1)[0, 0] == RatPoly((1, F(-1, 3)))
        assert build_parity_block(1, 1)[0, 0] == RatPoly((0, -1))
        assert build_parity_block(0, 2)[1, 1] == RatPoly((F(9, 5), F(-1, 7)))
        assert build_parity_block(1, 2)[1, 1] == RatPoly((F(4, 3), F(-1, 5)))

    def test_block_decomposition(self):
        for n in range(1, 8):
            pencil = build_pencil(n)
            perm, top, bottom = split_parity_blocks(pencil)
            assert sorted(perm) == list(range(n))
            half = n // 2
            expect_top = build_parity_block(0, half)
            expect_bottom = build_parity_block(1, n - half)
            for i in range(half):
                for j in range(half):
                    assert top[i, j] == 2 * expect_top[i, j]
            for i in range(n - half):
                for j in range(n - half):
                    assert bottom[i, j] == 2 * expect_bottom[i, j]
            # off-diagonal blocks vanish under the permutation
            for i in range(half):
                for j in range(half, n):
                    assert pencil[perm[i], perm[j]].is_zero()

    def test_permutation_order(self):
        assert parity_permutation(5) == (1, 3, 0, 2, 4)


class TestBoundary:
    def test_full_n1(self):
        assert build_boundary("full", 1)[0, 0] == RatPoly((2, F(-2, 3)))

    def test_parity0_n1(self):
        assert build_boundary(0, 1)[0, 0] == RatPoly((2, F(-2, 5)))

    def test_offdiagonal_constant(self):
        c0 = build_boundary(0, 3)
        for i in range(3):
            for j in range(3):
                if i != j:
                    assert c0[i, j] == RatPoly((2,))

    def test_full_parity_pattern(self):
        c = build_boundary("full", 4)
        for i in range(4):
            for j in range(4):
                if (i + j) % 2 == 1:  # 1-based i+j odd: constant part vanishes
                    assert c[i, j].coeff(0) == 0

    def test_boundary_block_decomposition(self):
        for n in range(1, 8):
            full = build_boundary("full", n)
            perm, top, bottom = split_parity_blocks(full)
            half = n // 2
            assert top == build_boundary(0, half)
            assert bottom == build_boundary(1, n - half)

    def test_split_rejects_cross_parity_entry(self):
        full = build_boundary("full", 5)
        # 0-based (1, 2) and (2, 1): an even row and an odd column, and back.
        for part, (i, j) in product(("const", "slope"), ((1, 2), (2, 1))):
            rows = [list(row) for row in getattr(full, part).entries]
            rows[i][j] = F(1, 3)
            parts = {"const": full.const, "slope": full.slope,
                     part: RatMatrix(tuple(map(tuple, rows)))}
            broken = PolyMatrix(**parts)
            with pytest.raises(ValueError, match="off-diagonal"):
                split_parity_blocks(broken)


def _assert_canonical(matrix: RatMatrix) -> None:
    """Every row is (d, ints): d > 0, gcd(d, *ints) = 1, dim integers."""
    for d, ints in matrix.rows:
        assert type(d) is int and d > 0
        assert type(ints) is tuple and len(ints) == matrix.dim
        assert all(type(v) is int for v in ints)
        assert gcd(d, *ints) == 1


def _assert_formula(part, formula, n):
    """`part` holds the 1-based entry formula on canonical integer rows;
    `entries` and `part[i, j]` read it back as Fractions."""
    assert part.dim == n
    _assert_canonical(part)
    expected = [[F(formula(i, j)) for j in range(1, n + 1)] for i in range(1, n + 1)]
    assert [list(row) for row in part.entries] == expected
    assert [[part[i, j] for j in range(n)] for i in range(n)] == expected
    assert all(type(e) is F for row in part.entries for e in row)


def _assert_entries(matrix, const, slope, n):
    """The pencil's parts equal the 1-based entry formulas."""
    _assert_formula(matrix.const, const, n)
    _assert_formula(matrix.slope, slope, n)


def _diag(i, j, value):
    return value if i == j else 0


def _mass_1d(i, j):
    return F(2, i + j - 1) if (i + j) % 2 == 0 else F(0)


def _stiffness_1d(i, j):
    return F(2 * (i - 1) * (j - 1), i + j - 3) if (i + j) % 2 == 0 else F(0)


def _block(p):
    return (lambda i, j: F((2 * i - 1 - p) * (2 * j - 1 - p), 2 * i + 2 * j - 3 - 2 * p),
            lambda i, j: F(-1, 2 * i + 2 * j - 1 - 2 * p))


class TestDocstringFormulas:
    @pytest.mark.parametrize("n", range(13))
    def test_boundary(self, n):
        _assert_entries(build_boundary("full", n), lambda i, j: 1 + (-1) ** (i + j),
                        lambda i, j: _diag(i, j, F(-2, 2 * i + 1)), n)
        _assert_entries(build_boundary(0, n), lambda i, j: 2,
                        lambda i, j: _diag(i, j, F(-2, 4 * i + 1)), n)
        _assert_entries(build_boundary(1, n), lambda i, j: 2,
                        lambda i, j: _diag(i, j, F(-2, 4 * i - 1)), n)

    @pytest.mark.parametrize("n", range(13))
    def test_legendre_hook(self, n):
        _assert_entries(build_legendre_hook(0, n),
                        lambda i, j: 2 * min(i, j) * (2 * min(i, j) + 1),
                        lambda i, j: _diag(i, j, F(-2, 4 * i + 1)), n)
        _assert_entries(build_legendre_hook(1, n),
                        lambda i, j: 2 * min(i, j) * (2 * min(i, j) - 1),
                        lambda i, j: _diag(i, j, F(-2, 4 * i - 1)), n)


    @pytest.mark.parametrize("n", range(13))
    def test_parity_block(self, n):
        for p in (0, 1):
            _assert_entries(build_parity_block(p, n), *_block(p), n)

    @pytest.mark.parametrize("n", range(1, 13))
    def test_pencil_and_its_factors(self, n):
        _assert_entries(build_pencil(n), _stiffness_1d, lambda i, j: -_mass_1d(i, j), n)
        _assert_formula(build_mass_1d(n), _mass_1d, n)
        _assert_formula(build_stiffness_1d(n), _stiffness_1d, n)


class TestLegendreHooks:
    def test_displayed_matrix_parity1(self):
        h = build_legendre_hook(1, 2)
        assert h[0, 0] == RatPoly((2, F(-2, 3)))
        assert h[0, 1] == RatPoly((2,))
        assert h[1, 1] == RatPoly((12, F(-2, 7)))

    def test_parity0_first_entry(self):
        assert build_legendre_hook(0, 1)[0, 0] == RatPoly((6, F(-2, 5)))

    def test_symmetry(self):
        for parity in (0, 1):
            assert build_legendre_hook(parity, 5).is_symmetric()



PENCILS = (
    build_pencil,
    lambda n: build_parity_block(0, n),
    lambda n: build_parity_block(1, n),
    lambda n: build_boundary("full", n),
    lambda n: build_boundary(1, n),
    lambda n: build_legendre_hook(0, n),
)


class TestRepresentation:
    """A RatMatrix is stored once, as canonical integer rows over positive
    row denominators (the builders' rows are checked in
    TestDocstringFormulas)."""

    @pytest.mark.parametrize("n", range(1, 5))
    def test_gram_matrices_and_kronecker_are_canonical(self, n):
        for matrix in (build_mass(n), build_stiffness(n),
                       kronecker(build_mass_1d(n), build_stiffness_1d(n))):
            _assert_canonical(matrix)

    @pytest.mark.parametrize("n", range(1, 13))
    def test_parity_blocks_of_the_pencil_are_canonical(self, n):
        _, top, bottom = split_parity_blocks(build_pencil(n))
        for part in (top.const, top.slope, bottom.const, bottom.slope):
            _assert_canonical(part)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 12), st.fractions(min_value=-20, max_value=20, max_denominator=30))
    def test_eval_at_matches_entrywise_evaluation(self, n, x):
        for build in PENCILS:
            matrix = build(n)
            value = matrix.eval_at(x)
            _assert_canonical(value)
            assert value.entries == tuple(
                tuple(c + x * s for c, s in zip(const_row, slope_row))
                for const_row, slope_row in zip(matrix.const.entries, matrix.slope.entries))

    @given(st.lists(st.lists(st.fractions(max_denominator=20), min_size=3, max_size=3),
                    min_size=3, max_size=3))
    def test_rows_and_entries_construct_the_same_matrix(self, values):
        matrix = RatMatrix(tuple(map(tuple, values)))
        _assert_canonical(matrix)
        assert [list(row) for row in matrix.entries] == values
        # Unreduced rows, over a negative denominator too, are reduced.
        scaled = RatMatrix((-6 * d, tuple(-6 * v for v in ints)) for d, ints in matrix.rows)
        assert scaled == matrix and scaled.rows == matrix.rows
        assert hash(scaled) == hash(matrix)
        assert RatMatrix(matrix.rows) == matrix
        copy = pickle.loads(pickle.dumps(matrix))
        assert copy == matrix and copy.rows == matrix.rows
        changed = [list(row) for row in values]
        changed[1][2] += 1
        assert RatMatrix(tuple(map(tuple, changed))) != matrix

    def test_zero_rows_are_over_one(self):
        assert RatMatrix(((F(0), F(0)), (F(1, 2), F(0)))).rows == ((1, (0, 0)), (2, (1, 0)))
        assert RatMatrix(((7, (0, 0)), (4, (2, 0)))).rows == ((1, (0, 0)), (2, (1, 0)))
        assert RatMatrix(()).rows == () and RatMatrix(()).dim == 0

    def test_a_zero_denominator_is_refused(self):
        with pytest.raises(ZeroDivisionError):
            RatMatrix(((0, (1,)),))
