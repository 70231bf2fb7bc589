import json
import random
from fractions import Fraction as F
from functools import lru_cache
from math import comb, gcd, lcm, prod
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from invineq.charpoly import char_coeff, char_poly, det_prefactor
from invineq.cli import KRON_SAMPLES, _json_encoder, _report_rows
from invineq.determinants import (
    _bareiss,
    _kron_blocks,
    _kron_factors,
    _kron_lhs,
    _kron_pencil,
    cauchy_matrix,
    det_hook_pencil,
    det_parity_block,
    det_poly,
    det_rational,
    verify_boundary,
    verify_cauchy,
    verify_corollary_full,
    verify_kron_factorization,
    verify_legendre_hooks,
    verify_thm31,
)
from invineq.matrices import (
    PolyMatrix,
    RatMatrix,
    build_boundary,
    build_legendre_hook,
    build_mass,
    build_mass_1d,
    build_parity_block,
    build_pencil,
    build_stiffness,
    gram_rows,
    split_parity_blocks,
)
from invineq.hooks import (
    _continuant,
    continuant_count,
    continuant_rows,
    legendre_hook_parts,
    legendre_parts,
)
from invineq.matrices import hook_pencil as build_hook_pencil
from invineq.polynomial import RatPoly
from invineq.roots import count_roots, int_coeffs, sign_at, sturm_chain


def cofactor_det(rows: list[list[RatPoly]]) -> RatPoly:
    """Oracle: direct cofactor expansion of nested lists of polynomials,
    exponential but exact."""
    if not rows:
        return RatPoly.one()
    total = RatPoly()
    for j, entry in enumerate(rows[0]):
        minor = [row[:j] + row[j + 1:] for row in rows[1:]]
        term = entry * cofactor_det(minor)
        total = total + term if j % 2 == 0 else total - term
    return total


def poly_rows(m: PolyMatrix) -> list[list[RatPoly]]:
    return [[m[i, j] for j in range(m.dim)] for i in range(m.dim)]


class TestDetRational:
    def test_empty_matrix(self):
        assert det_rational(RatMatrix(())) == 1

    def test_one_by_one(self):
        assert det_rational(RatMatrix(((F(1, 3),),))) == F(1, 3)

    def test_textbook(self):
        m = RatMatrix(((F(1), F(2)), (F(3), F(4))))
        assert det_rational(m) == -2

    def test_singular(self):
        m = RatMatrix(((F(1), F(2)), (F(2), F(4))))
        assert det_rational(m) == 0

    def test_row_swap_sign(self):
        m = RatMatrix(((F(0), F(1)), (F(1), F(0))))
        assert det_rational(m) == -1

    def test_hilbert_4(self):
        h = RatMatrix(
            tuple(tuple(F(1, i + j - 1) for j in range(1, 5)) for i in range(1, 5))
        )
        assert det_rational(h) == F(1, 6048000)


@st.composite
def structured_matrices(draw) -> list[list[F]]:
    """Random rational matrices of dim 0..7, often with a structure that the
    elimination has to handle: a zero pivot at step k (the leading
    (k+1)-block is made singular, which forces a row swap there), a zero
    column, a zero row or a duplicated row (all singular)."""
    dim = draw(st.integers(0, 7))
    entry = st.builds(F, st.integers(-9, 9), st.integers(1, 6))
    rows = [[draw(entry) for _ in range(dim)] for _ in range(dim)]
    kind = draw(st.sampled_from(["plain", "zero-pivot", "zero-column", "zero-row",
                                 "duplicate-row"]))
    if dim >= 2 and kind == "zero-pivot":
        k = draw(st.integers(0, dim - 2))
        if k == 0:
            rows[0][0] = F(0)
        else:
            rows[k][:k + 1] = rows[0][:k + 1]
    elif dim >= 1 and kind == "zero-column":
        j = draw(st.integers(0, dim - 1))
        for row in rows:
            row[j] = F(0)
    elif dim >= 1 and kind == "zero-row":
        rows[draw(st.integers(0, dim - 1))] = [F(0)] * dim
    elif dim >= 2 and kind == "duplicate-row":
        i, k = draw(st.lists(st.integers(0, dim - 1), min_size=2, max_size=2, unique=True))
        rows[k] = list(rows[i])
    return rows


def fraction_det(rows: list[list[F]]) -> F:
    """Oracle: Gaussian elimination on Fractions, swapping in the first
    nonzero pivot."""
    a = [list(row) for row in rows]
    det = F(1)
    for k in range(len(a)):
        pivot = next((r for r in range(k, len(a)) if a[r][k]), None)
        if pivot is None:
            return F(0)
        if pivot != k:
            a[k], a[pivot] = a[pivot], a[k]
            det = -det
        det *= a[k][k]
        for i in range(k + 1, len(a)):
            factor = a[i][k] / a[k][k]
            a[i] = [x - factor * y for x, y in zip(a[i], a[k])]
    return det


class TestDetRationalProperty:
    @settings(max_examples=200, deadline=None)
    @given(structured_matrices())
    def test_matches_fraction_elimination(self, rows):
        assert det_rational(RatMatrix(tuple(map(tuple, rows)))) == fraction_det(rows)

    @settings(max_examples=300, deadline=None)
    @given(structured_matrices())
    def test_matches_sympy(self, rows):
        sympy = pytest.importorskip("sympy")
        dim = len(rows)
        expected = sympy.Matrix(dim, dim, lambda i, j: sympy.Rational(
            rows[i][j].numerator, rows[i][j].denominator)).det()
        got = det_rational(RatMatrix(tuple(tuple(row) for row in rows)))
        assert sympy.Rational(got.numerator, got.denominator) == expected


class TestDetPoly:
    def test_one_by_one(self):
        assert det_poly(build_parity_block(0, 1)) == RatPoly((1, F(-1, 3)))
        assert det_poly(build_pencil(1)) == RatPoly((0, -2))

    def test_against_cofactor_oracle(self):
        rng = random.Random(7)
        for dim in (2, 3, 4):
            for _ in range(3):
                pairs = [
                    [
                        (F(rng.randint(-4, 4)), F(rng.randint(-4, 4), rng.randint(1, 3)))
                        for _ in range(dim)
                    ]
                    for _ in range(dim)
                ]
                m = PolyMatrix(
                    RatMatrix(tuple(tuple(a for a, _ in row) for row in pairs)),
                    RatMatrix(tuple(tuple(b for _, b in row) for row in pairs)),
                )
                assert det_poly(m) == cofactor_det(poly_rows(m))

    def test_parity_block_degree_and_leading(self):
        # Degree n with leading coefficient (-1)^n times the prefactor.
        for ell in (0, 1):
            for n in range(1, 6):
                d = det_poly(build_parity_block(ell, n))
                assert d.degree == n
                assert d.leading == (-1) ** n * det_prefactor(ell, n)


HOOK_FAMILIES = {
    "boundary-0": lambda n: build_boundary(0, n),
    "boundary-1": lambda n: build_boundary(1, n),
    "boundary-full": lambda n: build_boundary("full", n),
    "legendre-0": lambda n: build_legendre_hook(0, n),
    "legendre-1": lambda n: build_legendre_hook(1, n),
}


def hook_pencil(g: list[F], b: list[F]) -> PolyMatrix:
    """The pencil g_min(i, j) + x*diag(b)."""
    dim = len(g)
    return PolyMatrix(
        RatMatrix(tuple(tuple(g[min(i, j)] for j in range(dim)) for i in range(dim))),
        RatMatrix(tuple(tuple(b[i] if i == j else F(0) for j in range(dim)) for i in range(dim))),
    )


@st.composite
def hook_values(draw, min_dim: int = 0) -> tuple[list[F], list[F]]:
    """(g, b) of one length in min_dim..9, rational, each value drawn afresh,
    zero, or a repeat of the one before (a zero difference of g)."""
    dim = draw(st.integers(min_dim, 9))
    entry = st.builds(F, st.integers(-9, 9), st.integers(1, 6))

    def values() -> list[F]:
        out: list[F] = []
        for _ in range(dim):
            kind = draw(st.sampled_from(["plain", "zero", "repeat"]))
            out.append(F(0) if kind == "zero" else out[-1] if kind == "repeat" and out
                       else draw(entry))
        return out

    return values(), values()


def as_pairs(values: tuple[list[F], list[F]]) -> tuple[list[tuple[int, int]], ...]:
    """(g, b) as the integer (numerator, denominator) pairs the builders take."""
    return tuple([v.as_integer_ratio() for v in part] for part in values)


def hook_pencils() -> st.SearchStrategy[PolyMatrix]:
    """Hook pencils of dim 0..9 made by the min formula from `hook_values`."""
    return hook_values().map(lambda gb: hook_pencil(*gb))


def perturbed(part: RatMatrix, i: int, j: int) -> RatMatrix:
    """`part` with 1 added to entry (i, j)."""
    rows = [list(row) for row in part.entries]
    rows[i][j] += 1
    return RatMatrix(tuple(map(tuple, rows)))


def off_cell(dim: int, allowed) -> st.SearchStrategy[tuple[int, int]]:
    """A cell (i, j) of a dim x dim matrix for which allowed(i, j) holds."""
    index = st.integers(0, dim - 1)
    return st.tuples(index, index).filter(lambda ij: allowed(*ij))


class TestDetHookPencil:
    @pytest.mark.parametrize("family", sorted(HOOK_FAMILIES))
    def test_matches_det_poly_on_families(self, family):
        for n in range(0, 25):
            m = HOOK_FAMILIES[family](n)
            if family == "boundary-full":
                _, top, bottom = split_parity_blocks(m)
                got = det_hook_pencil(top) * det_hook_pencil(bottom)
            else:
                got = det_hook_pencil(m)
            assert got == det_poly(m), (family, n)

    @settings(max_examples=200, deadline=None)
    @given(hook_pencils())
    @example(hook_pencil([F(1), F(1)], [F(1), F(0)]))
    @example(hook_pencil([F(0), F(0), F(0)], [F(0), F(0), F(0)]))
    def test_matches_det_poly_on_random_pencils(self, m):
        assert det_hook_pencil(m) == det_poly(m)

    @given(hook_values(min_dim=2), st.data())
    def test_rejects_perturbed_hook_const(self, values, data):
        """A change to any const entry but the last on the diagonal breaks the
        hook structure; that one only changes g_{n-1}."""
        m = build_legendre_hook(1, 4)
        for i in range(4):
            for j in range(4):
                changed = PolyMatrix(perturbed(m.const, i, j), m.slope)
                if (i, j) == (3, 3):
                    assert det_hook_pencil(changed) == det_poly(changed)
                else:
                    with pytest.raises(ValueError, match="hooks"):
                        det_hook_pencil(changed)
        m = build_hook_pencil(*as_pairs(values))
        last = m.dim - 1
        i, j = data.draw(off_cell(m.dim, lambda i, j: (i, j) != (last, last)))
        with pytest.raises(ValueError, match="hooks"):
            det_hook_pencil(PolyMatrix(perturbed(m.const, i, j), m.slope))

    @given(hook_values(min_dim=2), st.data())
    def test_rejects_off_diagonal_slope(self, values, data):
        const = RatMatrix(((F(1), F(1)), (F(1), F(4))))
        for slope in (((F(1), F(0)), (F(1, 2), F(1))), ((F(1), F(1, 2)), (F(0), F(1)))):
            with pytest.raises(ValueError, match="diagonal"):
                det_hook_pencil(PolyMatrix(const, RatMatrix(slope)))
        m = build_hook_pencil(*as_pairs(values))
        i, j = data.draw(off_cell(m.dim, lambda i, j: i != j))
        with pytest.raises(ValueError, match="diagonal"):
            det_hook_pencil(PolyMatrix(m.const, perturbed(m.slope, i, j)))

    @given(hook_values())
    @example(([F(0), F(0), F(0)], [F(0), F(0), F(0)]))
    @example(([F(2), F(2)], [F(1), F(1)]))
    def test_builder_matches_the_min_formula(self, values):
        assert build_hook_pencil(*as_pairs(values)) == hook_pencil(*values)

    def test_zero_on_the_diagonal(self):
        m = hook_pencil([F(1), F(4)], [F(1), F(0)])
        assert det_hook_pencil(m) == det_poly(m) == RatPoly((3, 4))


class TestContinuantRows:
    """`continuant_rows` on integer pairs against the Fraction recurrence
    D_k = (dg_k + x(b_k + b_{k-1})) D_{k-1} - x^2 b_{k-1}^2 D_{k-2} of the
    leading minors D_k of the hook pencil."""

    @settings(max_examples=200, deadline=None)
    @given(hook_values())
    @example(([F(-3, 2), F(-3, 2), F(0), F(7, 6)], [F(0), F(-5, 4), F(-5, 4), F(2)]))
    @example(([F(2), F(2), F(4)], [F(-2, 5), F(-2, 9), F(-2, 13)]))
    def test_rows_follow_the_fraction_recurrence(self, values):
        g, b = values
        rows = list(continuant_rows(*as_pairs(values)))
        assert len(rows) == len(g)
        x2 = RatPoly((0, 0, 1))
        prev, cur = RatPoly(), RatPoly.one()
        g_prev, b_prev, s_prev = F(0), F(0), 1
        for (s, dg, diag, couple), g_k, b_k in zip(rows, g, b):
            assert s == lcm(*(v.denominator for v in (g_k, g_prev, b_prev, b_k)))
            assert (dg, diag, couple) == (s * (g_k - g_prev), s * (b_k + b_prev),
                                          s * s_prev * b_prev**2)
            prev, cur = cur, RatPoly((g_k - g_prev, b_k + b_prev)) * cur - x2 * prev * b_prev**2
            g_prev, b_prev, s_prev = g_k, b_k, s
        assert _continuant(*as_pairs(values)) == cur


def legendre_coeffs(top: int) -> list[list[F]]:
    """Monomial coefficients of P_0 .. P_top by Bonnet's recurrence
    (k + 1) P_{k+1} = (2k + 1) x P_k - k P_{k-1}."""
    polys = [[F(1)], [F(0), F(1)]]
    for k in range(1, top):
        shifted = [F(0)] + [(2 * k + 1) * c for c in polys[k]]
        lower = [k * c for c in polys[k - 1]] + [F(0), F(0)]
        polys.append([(u - v) / (k + 1) for u, v in zip(shifted, lower)])
    return polys[:top + 1]


def integral(p: list[F], q: list[F]) -> F:
    """The integral of p q over (-1, 1): x^j integrates to 2/(j + 1) for
    even j and to 0 for odd j."""
    return sum((u * v * F(2, i + j + 1) for i, u in enumerate(p) for j, v in enumerate(q)
                if (i + j) % 2 == 0), F(0))


class TestLegendreParts:
    """`legendre_parts` against Legendre polynomials built and integrated
    here, exactly, for the degrees 0..12."""

    TOP = 12

    def test_the_parts_are_the_legendre_integrals(self):
        polys = legendre_coeffs(self.TOP)
        assert [p[-1] for p in polys[:3]] == [1, 1, F(3, 2)]
        assert all(sum(p) == 1 for p in polys)  # P_k(1) = 1
        derivs = [[i * c for i, c in enumerate(p)][1:] for p in polys]
        g, b = legendre_parts(range(self.TOP + 1))
        for k in range(self.TOP + 1):
            assert -integral(polys[k], polys[k]) == F(*b[k])
            for l in range(k % 2, self.TOP + 1, 2):
                assert integral(derivs[k], derivs[l]) == F(*g[min(k, l)])
                assert l == k or integral(polys[k], polys[l]) == 0

    def test_parts_of_a_list_of_degrees(self):
        degrees = [5, 0, 3, 3]
        assert legendre_parts(degrees) == tuple(
            [part[k] for k in degrees] for part in legendre_parts(range(6)))
        assert legendre_parts([]) == ([], [])

    @pytest.mark.parametrize("parity", [0, 1])
    def test_hook_parts_are_the_parts_of_the_degrees_2m_minus_parity(self, parity):
        for n in range(8):
            degrees = [2 * m - parity for m in range(1, n + 1)]
            assert legendre_hook_parts(parity, n) == legendre_parts(degrees)


class TestLargeN:
    """The continuant reaches n = 100 in well under a second; the right-hand
    sides come from `char_poly` and the closed forms."""

    def test_legendre_hooks_100(self):
        assert all(rep.equal for rep in verify_legendre_hooks(100))

    def test_boundary_100(self):
        reports = verify_boundary(100)
        assert [rep.identity for rep in reports] == ["boundary-0", "boundary-1", "boundary-full"]
        assert all(rep.equal for rep in reports)


class TestDetParityBlock:
    """The Legendre congruence route against the `det_poly` oracle."""

    @pytest.mark.parametrize("ell", [0, 1])
    def test_matches_det_poly_on_parity_blocks(self, ell):
        for n in range(0, 13):
            block = build_parity_block(ell, n)
            assert det_parity_block(ell, block) == det_poly(block), (ell, n)

    def test_matches_det_poly_on_corollary_halves(self):
        for n in range(1, 17):
            _, top, bottom = split_parity_blocks(build_pencil(n))
            assert det_parity_block(0, top) == det_poly(top), n
            assert det_parity_block(1, bottom) == det_poly(bottom), n

    @pytest.mark.parametrize("ell", [0, 1])
    @pytest.mark.parametrize("part", ["const", "slope"])
    def test_rejects_every_changed_entry(self, ell, part):
        """One changed entry, and one changed symmetric pair, which keeps
        the block symmetric."""
        block = build_parity_block(ell, 4)
        cell_sets = [[(i, j)] for i in range(4) for j in range(4)]
        cell_sets += [[(i, j), (j, i)] for i in range(4) for j in range(i + 1, 4)]
        for cells in cell_sets:
            const, slope = block.const, block.slope
            for cell in cells:
                if part == "const":
                    const = perturbed(const, *cell)
                else:
                    slope = perturbed(slope, *cell)
            with pytest.raises(ArithmeticError, match=f"parity-{ell} block of size 4"):
                det_parity_block(ell, PolyMatrix(const, slope))

    @pytest.mark.parametrize("ell", [0, 1])
    @pytest.mark.parametrize("part", ["const", "slope"])
    @pytest.mark.parametrize("symmetric", [False, True])
    def test_rejects_a_change_only_one_comparison_sees(self, ell, part, symmetric):
        """Adding u v^T, with C^T u = e_1 and C^T v = e_0, changes only entry
        (1, 0) of C^T X C, below the diagonal: only the symmetry check sees
        it.  Adding u v^T + v u^T changes only (1, 0) and (0, 1), no diagonal
        entry: only the off-diagonal comparison sees it."""
        n = 4
        ks = [2 * m + 1 - ell for m in range(n)]
        # Column m of C: the monomial coefficients of 2^k P_k, k = ks[m].
        c = [[F((-1) ** (m - a) * comb(k, m - a) * comb(k + ks[a], k)) if a <= m else F(0)
              for m, k in enumerate(ks)] for a in range(n)]

        def solve_ct(e: int) -> list[F]:
            u: list[F] = []
            for m in range(n):
                rest = sum((c[a][m] * u[a] for a in range(m)), F(0))
                u.append((F(m == e) - rest) / c[m][m])
            return u

        u, v = solve_ct(1), solve_ct(0)
        block = build_parity_block(ell, n)
        old = getattr(block, part)
        new = RatMatrix(tuple(
            tuple(x + u[i] * v[j] + (v[i] * u[j] if symmetric else 0)
                  for j, x in enumerate(row))
            for i, row in enumerate(old.entries)))
        changed = PolyMatrix(**{"const": block.const, "slope": block.slope, part: new})
        with pytest.raises(ArithmeticError, match=f"parity-{ell} block of size 4"):
            det_parity_block(ell, changed)

    def test_rejects_the_other_parity(self):
        with pytest.raises(ArithmeticError, match="parity-1 block of size 3"):
            det_parity_block(1, build_parity_block(0, 3))

    def test_unknown_parity(self):
        with pytest.raises(ValueError):
            det_parity_block(2, build_parity_block(0, 3))

    def test_large_n_matches_closed_form(self):
        # The closed forms are the second route; det_poly takes seconds here.
        for rep in verify_thm31(40):
            assert rep.equal, rep.identity
        assert verify_corollary_full(60).equal


class TestParityIdentity:
    def test_n0(self):
        reports = verify_thm31(0)
        assert len(reports) == 1  # index -1 is undefined for parity 1
        assert reports[0].lhs == RatPoly((1,))
        assert reports[0].equal

    def test_n1_both_parities(self):
        rep0, rep1 = verify_thm31(1)
        assert rep0.lhs == RatPoly((1, F(-1, 3))) and rep0.equal
        assert rep1.lhs == RatPoly((0, -1)) and rep1.equal

    @pytest.mark.parametrize("n", range(2, 9))
    def test_range(self, n):
        for rep in verify_thm31(n):
            assert rep.equal, (n, rep.identity)

    def test_report_serialization(self):
        row = _report_rows(verify_thm31(1))[0]
        assert _json_encoder().encode(row) == json.dumps({
            "n": 1,
            "identity": "thm31-parity0",
            "lhs": ["1", "-1/3"],
            "rhs": ["1", "-1/3"],
            "equal": True,
        })


class TestFullPencilIdentity:
    def test_n1(self):
        rep = verify_corollary_full(1)
        assert rep.lhs == RatPoly((0, -2)) and rep.equal

    def test_n2(self):
        rep = verify_corollary_full(2)
        assert rep.lhs == RatPoly((0, -4, F(4, 3))) and rep.equal

    @pytest.mark.parametrize("n", range(3, 8))
    def test_range(self, n):
        assert verify_corollary_full(n).equal


class TestCauchy:
    def test_small(self):
        assert cauchy_matrix(0, 1).entries == ((F(1, 3),),)
        assert cauchy_matrix(1, 1).entries == ((F(1),),)
        assert verify_cauchy(0, 1).equal
        assert verify_cauchy(1, 1).equal

    @pytest.mark.parametrize("ell", [0, 1])
    def test_rows_are_the_formula_over_canonical_denominators(self, ell):
        for n in range(13):
            m = cauchy_matrix(ell, n)
            assert all(d > 0 and gcd(d, *ints) == 1 for d, ints in m.rows)
            assert m.entries == tuple(
                tuple(F(1, 2 * i + 2 * j - 1 - 2 * ell) for j in range(1, n + 1))
                for i in range(1, n + 1))

    @pytest.mark.parametrize("ell", [0, 1])
    @pytest.mark.parametrize("n", range(0, 9))
    def test_range(self, ell, n):
        assert verify_cauchy(ell, n).equal


class TestBoundaryIdentities:
    def test_parity0_n1(self):
        reports = verify_boundary(1)
        by_id = {r.identity: r for r in reports}
        assert by_id["boundary-0"].lhs == RatPoly((2, F(-2, 5)))
        assert by_id["boundary-0"].equal
        assert "boundary-full" not in by_id  # combined form starts at n=2

    def test_full_from_n2(self):
        reports = verify_boundary(2)
        by_id = {r.identity: r for r in reports}
        assert by_id["boundary-full"].equal

    @pytest.mark.parametrize("n", range(0, 9))
    def test_range(self, n):
        for rep in verify_boundary(n):
            assert rep.equal, (n, rep.identity)


class TestLegendreHookIdentities:
    def test_n1_values(self):
        rep0, rep1 = verify_legendre_hooks(1)
        assert rep0.lhs == RatPoly((6, F(-2, 5))) and rep0.equal
        assert rep1.lhs == RatPoly((2, F(-2, 3))) and rep1.equal

    @pytest.mark.parametrize("n", range(0, 8))
    def test_range(self, n):
        for rep in verify_legendre_hooks(n):
            assert rep.equal, (n, rep.identity)


@lru_cache(maxsize=None)
def hook_rows_and_chain(N: int):
    """The continuant rows of P_N's Legendre hook (parity 1 - N % 2, size
    N // 2) and the Sturm chain of P_N."""
    rows = list(continuant_rows(*legendre_hook_parts(1 - N % 2, N // 2)))
    return rows, sturm_chain(int_coeffs(char_poly(N).poly))


class TestContinuantCount:
    """Sign changes of the Legendre-hook continuant, plus one at a root,
    count the roots of P_N in (0, x], as the Sturm chain of P_N counts
    them."""

    @settings(max_examples=400, deadline=None)
    @given(st.sampled_from([2, 3, 5, 8, 13, 20, 31, 40]),
           st.one_of(st.fractions(0, 1, max_denominator=10**6),
                     st.fractions(0, F(1, 10**4), max_denominator=10**9))
           .filter(lambda t: t > 0))
    def test_count_is_the_sturm_count(self, N, t):
        # x in (0, f1], often among the lowest roots, where they lie closest.
        rows, chain = hook_rows_and_chain(N)
        x = t * char_coeff(1, N)
        assert continuant_count(rows, x) == count_roots(chain, 0, x)

    @pytest.mark.parametrize("N", [2, 3])
    def test_a_root_at_x_is_counted(self, N):
        # P_2 and P_3 are linear, with their one root at f1.
        rows, chain = hook_rows_and_chain(N)
        f1 = char_coeff(1, N)
        assert sign_at(chain[0], f1) == 0 and count_roots(chain, 0, f1) == 1
        assert continuant_count(rows, f1) == 1
        assert continuant_count(rows, f1 * F(999, 1000)) == 0
        assert continuant_count(rows, f1 * F(1001, 1000)) == 1


# The identity strings of the determinant reports: the "identity" field of
# the verify rows, which the canonical JSON pins.
IDENTITY_IDS = {
    "thm31-parity0", "thm31-parity1", "corollary-full", "cauchy-0", "cauchy-1",
    "boundary-0", "boundary-1", "boundary-full", "legendre-0", "legendre-1",
}


class TestIdentityWireEnum:
    def test_report_identities_stay_in_enum(self):
        produced = set()
        for rep in verify_thm31(3):
            produced.add(rep.identity)
        produced.add(verify_corollary_full(3).identity)
        produced.add(verify_cauchy(0, 3).identity)
        produced.add(verify_cauchy(1, 3).identity)
        for rep in verify_boundary(3):
            produced.add(rep.identity)
        for rep in verify_legendre_hooks(3):
            produced.add(rep.identity)
        assert produced == IDENTITY_IDS


class TestKroneckerFactorization:
    def test_trivial_n1(self):
        assert verify_kron_factorization(1, 0)

    def test_specific_samples(self):
        assert verify_kron_factorization(2, 1)
        assert verify_kron_factorization(3, F(7, 2))

    def test_samples(self):
        rng = random.Random(20240612)
        for n in range(1, 5):
            for _ in range(3):
                sample = F(rng.randint(-40, 40), rng.randint(1, 9))
                assert verify_kron_factorization(n, sample)

    def test_dimension_cap(self):
        with pytest.raises(ValueError):
            verify_kron_factorization(7, 1)

    def test_the_samples_of_one_n_share_its_factors(self):
        _kron_factors.cache_clear()
        try:
            with mock.patch("invineq.determinants.build_pencil", wraps=build_pencil) as pencil, \
                    mock.patch("invineq.determinants.build_mass_1d",
                               wraps=build_mass_1d) as mass:
                for n in (2, 3):
                    for sample in KRON_SAMPLES:
                        assert verify_kron_factorization(n, sample)
            assert pencil.call_args_list == [mock.call(2), mock.call(3)]
            assert mass.call_args_list == [mock.call(2), mock.call(3)]
        finally:
            _kron_factors.cache_clear()


def kron_lhs(n: int, s: F) -> F:
    """det(stiffness - s*mass) by `det_rational` on the Fraction pencil."""
    return det_rational(PolyMatrix(build_stiffness(n), build_mass(n)).eval_at(-s))


def kron_rhs(n: int, s: F) -> F:
    """det(mass_1d)^n * det(pencil(s))^n."""
    return det_rational(build_mass_1d(n)) ** n * det_rational(build_pencil(n).eval_at(s)) ** n


class TestKroneckerSamples:
    """`verify_kron_factorization` eliminates the integer rows q*S - p*M at
    s = p/q; the Fraction route above must give the same verdict, which
    checks the q^(n^2) scale and the sign of s."""

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 4), st.builds(F, st.integers(-60, 60), st.integers(1, 12)))
    @example(1, F(-3, 5))
    @example(2, F(11, 7))
    @example(3, F(-3, 5))
    @example(4, F(7, 2))
    def test_matches_fraction_route(self, n, s):
        lhs = kron_lhs(n, s)
        assert verify_kron_factorization(n, s) == (lhs == kron_rhs(n, s))
        # The two sides are not equal at every sample pair, so a wrong
        # left side could make the check return False: det(S - sM) has
        # degree n^2 in s, so it differs from rhs(s') for one of n^2 + 1
        # distinct s'.
        assert any(lhs != kron_rhs(n, s + k) for k in range(1, n * n + 2))


def kron_classes(n: int) -> list[list[int]]:
    """The 0-based indices of each (chi mod 2, rho mod 2) class, in the
    order (0, 0), (0, 1), (1, 0), (1, 1)."""
    return [[k for k in range(n * n) if (k // n % 2, k % n % 2) == cls]
            for cls in ((0, 0), (0, 1), (1, 0), (1, 1))]


@pytest.mark.parametrize("n", range(1, 7))
def test_kron_pencil_rows_are_scaled_gram_rows(n):
    """Each integer row of a `_kron_pencil` block is one positive rational
    r_i times the same row of build_stiffness / build_mass, cut to the
    block's class, the rows are primitive, and the scale is the product of
    the r_i over all blocks."""
    scale, blocks = _kron_pencil(n)
    stiff_fracs, mass_fracs = build_stiffness(n).entries, build_mass(n).entries
    ratios = []
    for members, (stiffness, mass) in zip(kron_classes(n), blocks):
        assert len(stiffness) == len(mass) == len(members)
        for pos, (i, s_row, m_row) in enumerate(zip(members, stiffness, mass)):
            fracs = tuple(stiff_fracs[i][j] for j in members) + tuple(
                mass_fracs[i][j] for j in members)
            ints = s_row + m_row
            r = ints[pos + len(members)] / fracs[pos + len(members)]  # the mass diagonal
            assert r > 0
            assert all(v == r * f for v, f in zip(ints, fracs))
            assert gcd(*ints) == 1
            ratios.append(r)
    assert len(ratios) == n * n
    assert scale == prod(ratios)


def dense_kron_lhs(n: int, s: F) -> F:
    """det(stiffness - s*mass) by one n^2 x n^2 `_bareiss` on the Gram rows."""
    moment_scale, stiffness, mass = gram_rows(n)
    p, q = s.numerator, s.denominator
    rows = [[q * a - p * b for a, b in zip(s_row, m_row)]
            for s_row, m_row in zip(stiffness, mass)]
    return F(_bareiss(rows), (moment_scale * q) ** (n * n))


@pytest.mark.parametrize("n", range(1, 7))
def test_kron_block_lhs_matches_the_dense_elimination(n):
    for s in (*KRON_SAMPLES, F(-3, 7), F(11)):
        assert _kron_lhs(n, s) == dense_kron_lhs(n, s), (n, s)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_kron_blocks_reject_a_cross_parity_entry(n):
    _, stiffness, mass = gram_rows(n)
    classes = kron_classes(n)
    for rows, which in ((stiffness, 0), (mass, 1)):
        for i, j in ((classes[0][0], classes[3][0]), (classes[1][-1], classes[2][0])):
            planted = [list(row) for row in rows]
            planted[i][j] = 1
            planted = tuple(map(tuple, planted))
            parts = (planted, mass) if which == 0 else (stiffness, planted)
            with pytest.raises(ValueError, match="between parity classes"):
                _kron_blocks(n, *parts)
    assert len(_kron_blocks(n, stiffness, mass)) == 4
