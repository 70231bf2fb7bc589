from fractions import Fraction as F
from functools import lru_cache
from math import gcd
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

try:
    from mpmath import iv
except ImportError:  # _interval_surd_sign is then the exact oracle alone
    iv = None

import invineq.roots as roots
import invineq.spectra as spectra
from invineq.cli import EXIT_INTERNAL, main
from invineq.determinants import det_poly
from invineq.matrices import build_boundary
from invineq.charpoly import char_coeff, char_coeffs, char_poly
from invineq.polynomial import RatPoly
from invineq.roots import Enclosure, RootIsolationError, int_coeffs, isolate_all, smallest_root
from invineq.spectra import (
    QuadraticSurd,
    all_roots,
    asymptotic_table,
    bound_lower,
    bound_report,
    bound_upper,
    bound_upper_radical,
    boundary_factor_roots,
    check_monotone,
    coefficient_dominance_holds,
    comparison_check,
    cubic_bound_poly,
    ensure_disjoint,
    float_eigen_crosscheck,
    inverse_constant,
    max_boundary_eigenvalue,
    max_root,
    smallest_root_of_index,
    surd_sign_of_poly,
    _radical_p2,
)
from test_roots import evaluated_points, isolate_interlaced

TOL = F(1, 10**12)
NON_SQUARES = (2, 3, 5, 6, 7, 10, 11, 13, 14, 15)
COPRIME_NON_SQUARES = tuple((a, b) for a in NON_SQUARES for b in NON_SQUARES if gcd(a, b) == 1)


@st.composite
def _coprime_to(draw, d: int, lo: int, hi: int) -> int:
    """An integer in [lo, hi] coprime to d: a unit residue mod d plus a
    multiple of d."""
    r = draw(st.sampled_from([k for k in range(d) if gcd(k, d) == 1]))
    return r + d * draw(st.integers(min_value=-((r - lo) // d), max_value=(hi - r) // d))


@st.composite
def _lowest_terms_surd(draw) -> tuple[int, int, int, int]:
    """(un, ud, vn, vd) with un/ud and vn/vd in lowest terms, un in
    [-10^4, 10^4], vn in [1, 10^5], and ud, vd coprime non-squares."""
    ud, vd = draw(st.sampled_from(COPRIME_NON_SQUARES))
    return draw(_coprime_to(ud, -10**4, 10**4)), ud, draw(_coprime_to(vd, 1, 10**5)), vd


def _fraction_surd_sign(poly: RatPoly, surd: QuadraticSurd) -> int:
    """Oracle: Horner in Q[sqrt(v)] on Fractions, then a comparison with
    the point t = u - a/b on Fractions alone, no `invineq` code."""
    a, b = F(0), F(0)  # value = a + b*sqrt(v)
    for c in reversed(poly.primitive):
        a, b = a * surd.u + b * surd.v + c, a + b * surd.u
    if b == 0 or surd.v == 0:
        return (a > 0) - (a < 0)
    # a + b*sqrt(v) = b * ((u + sqrt(v)) - t) = b * (sqrt(v) - w), w = t - u;
    # sqrt(v) - w > 0 when w < 0, and otherwise has the sign of v - w^2.
    w = -a / b
    side = 1 if w < 0 else (surd.v > w * w) - (surd.v < w * w)
    return (1 if b > 0 else -1) * side


IV_PREC_CAP = 4096


def _interval_surd_sign(poly: RatPoly, surd: QuadraticSurd) -> int:
    """Oracle: Horner in mpmath.iv interval arithmetic, which rounds every
    operation outwards, from 64 bits, doubling the precision while the
    enclosure of the value contains 0.  An exact zero, or a value still
    undecided at IV_PREC_CAP bits, is left to `_fraction_surd_sign`, as is
    every point when mpmath is missing."""
    if iv is None:
        return _fraction_surd_sign(poly, surd)
    saved, prec = iv.prec, 64
    try:
        while prec <= IV_PREC_CAP:
            iv.prec = prec
            x = iv.mpf(surd.u.numerator) / surd.u.denominator + iv.sqrt(
                iv.mpf(surd.v.numerator) / surd.v.denominator)
            value = iv.mpf(0)
            for c in reversed(poly.primitive):
                value = value * x + c
            if value.a > 0:
                return 1
            if value.b < 0:
                return -1
            prec *= 2
    finally:
        iv.prec = saved
    return _fraction_surd_sign(poly, surd)


def _sympy_sign(poly: RatPoly, u: F, v: F) -> int:
    sympy = pytest.importorskip("sympy")
    x = sympy.Rational(u.numerator, u.denominator) + sympy.sqrt(
        sympy.Rational(v.numerator, v.denominator))
    value = sum(sympy.Rational(c.numerator, c.denominator) * x**i
                for i, c in enumerate(poly.coeffs))
    return int(sympy.sign(sympy.expand(value)))


class TestQuadraticSurd:
    def test_compare(self):
        s = QuadraticSurd(F(0), F(2))  # sqrt(2)
        assert s.compare(F(1)) == 1
        assert s.compare(F(2)) == -1
        assert s.compare(F(141421356, 10**8)) == 1

    def test_exact_rational(self):
        s = QuadraticSurd(F(3, 2), F(9, 4))
        assert s.compare(F(3)) == 0
        assert s.is_rational()

    def test_bounds(self):
        s = QuadraticSurd(F(1), F(2))
        enc = s.bounds(F(1, 10**9))
        assert enc.width <= F(1, 10**9)
        assert (enc.lo - 1) ** 2 <= 2 <= (enc.hi - 1) ** 2

    @settings(max_examples=200, deadline=None)
    @given(
        coeffs=st.lists(st.fractions(min_value=-100, max_value=100, max_denominator=50),
                        min_size=1, max_size=6),
        u=st.fractions(min_value=-20, max_value=20, max_denominator=30),
        v=st.fractions(min_value=0, max_value=50, max_denominator=30),
        planted=st.booleans(),
    )
    def test_sign_of_poly_matches_sympy(self, coeffs, u, v, planted):
        p = RatPoly(coeffs)
        if planted:  # make u + sqrt(v) a root: multiply by (x - u)^2 - v
            p = p * RatPoly((u * u - v, -2 * u, 1))
        if p.is_zero():
            return
        assert surd_sign_of_poly(p, QuadraticSurd(u, v)) == _sympy_sign(p, u, v)

    @settings(max_examples=200, deadline=None)
    @given(
        coeffs=st.lists(st.integers(min_value=-10**6, max_value=10**6), min_size=1, max_size=8),
        surd=_lowest_terms_surd(),
        planted=st.booleans(),
    )
    def test_sign_of_poly_coprime_non_square_denominators(self, coeffs, surd, planted):
        # q = lcm(den u, den v) = den u * den v, and r = q^2 v is not a square.
        un, ud, vn, vd = surd
        u, v = F(un, ud), F(vn, vd)
        assert (u.denominator, v.denominator) == (ud, vd)
        p = RatPoly(coeffs)
        if planted:
            p = p * RatPoly((u * u - v, -2 * u, 1))
        if p.is_zero():
            return
        assert surd_sign_of_poly(p, QuadraticSurd(u, v)) == _sympy_sign(p, u, v)

    @settings(max_examples=200, deadline=None)
    @given(
        coeffs=st.lists(st.fractions(min_value=-100, max_value=100, max_denominator=50),
                        min_size=1, max_size=6),
        u=st.fractions(min_value=-20, max_value=20, max_denominator=30),
        w=st.fractions(min_value=0, max_value=20, max_denominator=30),
        plus=st.booleans(),
        minus=st.booleans(),
    )
    def test_sign_of_poly_at_rational_square_and_zero(self, coeffs, u, w, plus, minus):
        # v = w^2 makes u + sqrt(v) = u + w rational (u itself at w = 0).
        # The planted factors vanish at u + w and at u - w, which is the
        # surd (u - 2w) + sqrt(v).
        v = w * w
        p = RatPoly(coeffs)
        if plus:
            p = p * RatPoly((-(u + w), 1))
        if minus:
            p = p * RatPoly((-(u - w), 1))
        if p.is_zero():
            return
        for surd in (QuadraticSurd(u, v), QuadraticSurd(u - 2 * w, v), QuadraticSurd(u, F(0))):
            expected = _sympy_sign(p, surd.u, surd.v)
            assert _fraction_surd_sign(p, surd) == expected
            assert surd_sign_of_poly(p, surd) == expected
        if plus:
            assert surd_sign_of_poly(p, QuadraticSurd(u, v)) == 0
        if minus:
            assert surd_sign_of_poly(p, QuadraticSurd(u - 2 * w, v)) == 0

    def test_sign_of_poly_matches_fraction_horner_at_the_lower_bound(self):
        # At m(n) itself and at m(n) moved by 1e-30 either way, for every n
        # up to 300, where r and the Horner integers run to thousands of bits.
        # The interval oracle decides almost every point at 64 or 128 bits;
        # the exact zeros (m(n) is a root of P_n for n <= 5) fall back to
        # the Fraction oracle.
        nudge = F(1, 10**30)
        for n in range(2, 301):
            poly, surd = char_poly(n).poly, bound_lower(n)
            for du in (0, nudge, -nudge):
                moved = QuadraticSurd(surd.u + du, surd.v)
                assert surd_sign_of_poly(poly, moved) == _interval_surd_sign(poly, moved), \
                    (n, du)

    def test_interval_oracle_agrees_with_the_fraction_oracle(self):
        # Both signs and 0, decided in interval arithmetic or by the fallback.
        nudge = F(1, 10**30)
        for n in (2, 5, 6, 40):
            poly, surd = char_poly(n).poly, bound_lower(n)
            for du in (0, nudge, -nudge):
                moved = QuadraticSurd(surd.u + du, surd.v)
                assert _interval_surd_sign(poly, moved) == _fraction_surd_sign(poly, moved)

    def test_sign_of_poly(self):
        # p(x) = x^2 - 2 at sqrt(2) is exactly 0
        p = RatPoly((-2, 0, 1))
        assert surd_sign_of_poly(p, QuadraticSurd(F(0), F(2))) == 0
        assert surd_sign_of_poly(p, QuadraticSurd(F(1), F(2))) == 1
        assert surd_sign_of_poly(p, QuadraticSurd(F(0), F(1))) == -1


class TestLowerBound:
    def test_n2(self):
        s = bound_lower(2)
        assert (s.u, s.v) == (F(3, 2), F(9, 4))
        assert s.compare(F(3)) == 0  # collapses to f1 exactly

    def test_n4(self):
        s = bound_lower(4)
        assert (s.u, s.v) == (F(45, 2), F(1605, 4))

    def test_n6_value(self):
        s = bound_lower(6)
        assert (s.u, s.v) == (F(105), F(6300))
        assert abs(float(s) - 184.3725) < 1e-3

    def test_domain(self):
        with pytest.raises(ValueError):
            bound_lower(1)

    def test_non_positive_radicand_raises(self, monkeypatch):
        # f2 >= f1^2/4 would make the quadratic truncation's roots complex.
        f = char_coeffs(12)
        monkeypatch.setattr(spectra, "char_coeffs", lambda n: f[:2] + (f[1] ** 2,) + f[3:])
        with pytest.raises(spectra.RootIsolationError, match="n=12"):
            bound_lower.__wrapped__(12)


class TestCoefficientDominance:
    def test_matches_fraction_oracle(self):
        for n in range(2, 401):
            f = char_coeffs(n)
            half_f1 = F(f[1], 2)
            expected = all(half_f1 * f[j] > f[j + 1] for j in range(1, n // 2))
            assert coefficient_dominance_holds(n) is expected, n

    def test_failing_pair_is_seen(self, monkeypatch):
        # f1 f_j == 2 f_{j+1} is not strict dominance.
        f = list(char_coeffs(12))
        f[4] = f[1] * f[3] // 2
        monkeypatch.setattr(spectra, "char_coeffs", lambda n: tuple(f))
        assert not coefficient_dominance_holds(12)


class TestUpperBound:
    def test_n2_equals_lambda(self):
        enc = bound_upper(2)
        assert enc.is_exact and enc.lo == 3

    def test_n6_cubic(self):
        assert cubic_bound_poly(6) == RatPoly((-10395, 4725, -210, 1))
        enc = bound_upper(6)
        assert 184 < enc.lo and enc.hi < 185
        # consistent with a sign change of the characteristic polynomial
        p = char_poly(6).poly
        assert p(F(184)) < 0 < p(F(185))

    def test_radical_discriminant_vanishes_at_2(self):
        assert _radical_p2(2) == 0

    @pytest.mark.parametrize("n", [10, 11, 15, 20, 40])
    def test_radical_form_agrees_with_cubic_root(self, n):
        # Positive discriminant from n >= 10: the literal radical expression
        # must match the isolated largest cubic root.
        assert _radical_p2(n) > 0
        lit = bound_upper_radical(n, TOL)
        cub = bound_upper(n, TOL)
        assert lit.overlaps(cub)


class TestMaxRoot:
    def test_exact_small(self):
        assert max_root(2) == Enclosure(F(3), F(3))
        assert max_root(3) == Enclosure(F(15), F(15))

    def test_bracket_sign_check(self, monkeypatch):
        # A lower end at f1, where P_n > 0, is no bracket of the maximal root.
        monkeypatch.setattr(spectra, "bound_lower",
                            lambda n: QuadraticSurd(char_coeff(1, n), F(0)))
        with pytest.raises(spectra.RootIsolationError, match="n=10"):
            max_root(10)

    def test_n4_surd(self):
        enc = max_root(4)
        s = QuadraticSurd(F(45, 2), F(1605, 4))  # (45+sqrt(1605))/2
        assert s.compare(enc.lo) >= 0 and s.compare(enc.hi) <= 0
        assert enc.width <= TOL

    def test_tolerance_respected(self):
        enc = max_root(8, F(1, 10**6))
        assert enc.width <= F(1, 10**6)

    def test_agrees_with_full_isolation(self):
        for n in range(2, 13):
            assert max_root(n).overlaps(all_roots(n)[-1])

    def test_domain(self):
        with pytest.raises(ValueError):
            max_root(1)


class TestAllRoots:
    def test_counts(self):
        for n in range(2, 16):
            assert len(all_roots(n)) == n // 2

    def test_positive_and_sorted(self):
        roots = all_roots(12)
        assert roots[0].lo > 0
        for a, b in zip(roots, roots[1:]):
            assert a.hi < b.lo

    def test_n4_roots(self):
        roots = all_roots(4)
        lo_surd = QuadraticSurd(F(45, 2), F(1605, 4))
        hi_root = roots[1]
        assert lo_surd.compare(hi_root.lo) >= 0 and lo_surd.compare(hi_root.hi) <= 0
        assert abs(float(roots[0].mid) - 2.46877) < 1e-4


@lru_cache(maxsize=None)
def sturm_table(n, tol):
    return tuple(isolate_all(char_poly(n).poly, F(0), char_coeff(1, n), tol,
                             expected=n // 2))


# The n-set that seed 1 of the benchmark's figure-roots workload draws: it
# skips 3, 16, 29 and 41, so 4, 17, 30 and 42 find no table of n - 1.
SEED1_FIGURE_NS = [2, *range(4, 16), *range(17, 29), *range(30, 41), *range(42, 55)]


class TestInterlacedRoots:
    """The Sturm-free route of `all_roots` against the Sturm route."""

    @pytest.mark.parametrize("tol", [F(1, 10**3), F(1, 10**12), F(1, 10**24)])
    def test_separators_certify_the_sturm_enclosures(self, tol):
        previous = ()
        sturm = {}
        for n in range(2, 61):
            poly, f1 = char_poly(n).poly, char_coeff(1, n)
            sturm[n] = tuple(isolate_all(poly, F(0), f1, tol, expected=n // 2))
            interlaced = isolate_interlaced(int_coeffs(poly), F(0), f1, tol,
                                            [enc.mid for enc in previous])
            assert interlaced is not None, f"no certificate at n={n}"
            assert tuple(interlaced) == sturm[n]
            previous = sturm[n]
        # A sweep reads the table of n - 1 and never falls back to Sturm.
        spectra._last = (0, None, ())
        assert all_roots(2, tol) == sturm[2]
        with mock.patch.object(roots, "sturm_chain", side_effect=AssertionError):
            for n in range(3, 61):
                assert all_roots(n, tol) == sturm[n]
        # A lone n, with a cold cache, agrees: n = 2, 3 certify on the one
        # bracket (0, f1], a larger n on separators from continuant counts.
        for n in (2, 3, 4, 17, 60):
            spectra._last = (0, None, ())
            assert all_roots(n, tol) == sturm[n]

    def test_sweep_reuses_the_tables(self):
        # Separators on the integers and starts predicted from n - 2 cut the
        # full-scale grid evaluations of a sweep (4,620 with neither).
        spectra._last = (0, None, ())
        with evaluated_points() as log:
            for n in range(2, 51):
                all_roots(n, TOL)
        assert len(log) <= 3300
        # A point next to the one before it needs no derivative: 623 of the
        # 2,922 points go without one.
        assert sum(kind == "at" for kind, _ in log) <= 2299
        # The integer separators are the grid indices of n at or below the
        # midpoints of the cells of n - 1, index for index.
        interlaced = spectra._interlaced

        def spy(grid, degree, separators, hints=()):
            seen[n] = grid.top.bit_length() - 1, list(separators)
            return interlaced(grid, degree, seen[n][1], hints)

        for tol in (F(1, 10**3), TOL, F(1, 10**24)):
            spectra._last = (0, None, ())
            seen, table = {}, {}
            with mock.patch.object(spectra, "_interlaced", side_effect=spy):
                for n in range(2, 151):
                    table[n] = all_roots(n, tol)
            assert sorted(seen) == list(range(2, 151)) and seen[2][1] == []
            for n in range(3, 151):
                level, separators = seen[n]
                f1 = char_coeff(1, n)
                assert f1 / 2**level <= tol < f1 / 2**(level - 1)
                assert separators == [enc.mid * 2**level // f1 for enc in table[n - 1]]

    def test_sweep_through_sturm_fallbacks(self):
        # At tol 100 two roots share a cell of the grid at n = 4 and from
        # n = 6 on, so each of those tables is refined box by box from the
        # counted descent, and each next n maps such a table onto its own
        # grid.  No table builds a Sturm chain.
        tol = F(100)
        expected = {n: sturm_table(n, tol) for n in range(2, 41)}
        box_refine = mock.Mock(side_effect=spectra.refine)
        fell_back = []
        spectra._last = (0, None, ())
        with mock.patch.object(spectra, "refine", box_refine), \
                mock.patch.object(roots, "sturm_chain", side_effect=AssertionError):
            for n in range(2, 41):
                calls = box_refine.call_count
                assert all_roots(n, tol) == expected[n]
                if box_refine.call_count > calls:
                    fell_back.append(n)
        assert fell_back == [4, *range(6, 41)]

    @pytest.mark.parametrize("calls", [
        [(n, None) for n in range(2, 31) if n not in (3, 9, 17)],
        [(n, None) for n in range(2, 16)] + [(n, F(1, 10**6)) for n in range(16, 24)]
        + [(n, None) for n in range(24, 31)],
        [(n, None) for n in range(30, 1, -1)],
        [(n, None) for n in (4, 17, 60, 120)],
        [(n, None) for n in SEED1_FIGURE_NS],
    ], ids=["gaps", "tol-change", "descending", "lone", "figure-seed1"])
    def test_missing_hints_never_move_a_cell(self, calls):
        # Every n without the table of n - 1 at its tol (after a gap, at a
        # tol change, each n of "descending" and "lone") certifies on
        # separators from continuant counts, with no Sturm fallback.
        for base in (F(1, 10**3), TOL, F(1, 10**24)):
            expected = [sturm_table(n, tol or base) for n, tol in calls]
            spectra._last = (0, None, ())
            with mock.patch.object(roots, "sturm_chain", side_effect=AssertionError):
                assert [all_roots(n, tol or base) for n, tol in calls] == expected

    def test_wrong_hints_never_move_a_cell(self):
        # Mirror every kept position in its bracket before the next call, so
        # each refinement starts far from its root, and keep one position
        # too few for n - 1, so n + 1 gets a table of hints of the wrong size
        # at every odd n.
        spectra._last = (0, None, ())
        for n in range(2, 41):
            assert all_roots(n, TOL) == sturm_table(n, TOL)
            last_n, tol, (table, here, _) = spectra._last
            mirror = [(w - u, w) for u, w in here]
            spectra._last = (last_n, tol, (table, mirror, mirror[1:]))

    def test_counted_brackets_give_no_hints(self):
        # Starts are positions in sweep brackets: a table certified on
        # counted brackets hands none to n + 2, a swept one does.
        seen = {}
        interlaced = spectra._interlaced

        def spy(grid, degree, separators, hints=()):
            seen[n] = list(hints)
            return interlaced(grid, degree, separators, hints)

        spectra._last = (0, None, ())
        with mock.patch.object(spectra, "_interlaced", side_effect=spy):
            for n in range(17, 22):
                all_roots(n, TOL)
        assert seen[17] == seen[18] == seen[19] == []
        assert len(seen[20]) == len(seen[21]) == 10

    @pytest.mark.parametrize("fault", ["rootless", "one-short"])
    def test_a_false_counted_box_raises(self, capsys, fault):
        # The counted descent yields its top box's rootless half, or one box
        # too few, at n = 10 and tol 100, where two roots share a cell, so
        # the boxes themselves must certify the table.  They do not: the
        # table raises, and figure exits 4.
        isolating = spectra._isolating

        def faulty(count, lo, hi, total):
            (a, b), *rest = isolating(count, lo, hi, total)  # the real descent
            if fault == "one-short":
                return rest
            mid = (a + b) / 2
            return [(a, mid) if count(b) > count(mid) else (mid, b), *rest]

        with mock.patch.object(spectra, "_isolating", faulty):
            spectra._last = (0, None, ())
            with pytest.raises(RootIsolationError, match=r"at n=10$"):
                spectra._root_cells(10, F(100))
            spectra._last = (0, None, ())
            with pytest.raises(SystemExit) as exc:
                main(["figure", "--tol", "100", "--range", "10", "--jobs", "1",
                      "--format", "json"])
        assert exc.value.code == EXIT_INTERNAL
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: internal: RootIsolationError: ")
        assert err.endswith("at n=10\n") and err.count("\n") == 1

    def test_figure_builds_no_sturm_chain(self, capsys):
        # At tol 100 two roots share a cell from n = 6 on, and those tables
        # are refined box by box from the counted descent.
        for argv, rows in ((["--range", "120"], 60),
                           (["--tol", "100", "--range", "2..40"], 400),
                           (["--tol", "100", "--range", "120"], 60)):
            spectra._last = (0, None, ())
            with mock.patch.object(roots, "sturm_chain", side_effect=AssertionError):
                assert main(["figure", *argv, "--jobs", "1", "--format", "json"]) == 0
            assert len(capsys.readouterr().out.splitlines()) == rows

    def test_cache_holds_one_table(self):
        for n in range(2, 9):
            all_roots(n, TOL)
        assert spectra._last[:2] == (8, TOL)
        all_roots(5, F(1, 10**6))
        assert spectra._last[:2] == (5, F(1, 10**6))


class TestBoundReport:
    def test_orderings_hold(self):
        for n in range(2, 30):
            rep = bound_report(n)
            assert rep.orderings.all_hold and rep.orderings.decided

    def test_strictness_thresholds(self):
        for n in range(2, 30):
            fl = bound_report(n).orderings
            assert fl.m_strict == (n >= 6)
            assert fl.f1_strict == (n >= 4)
            assert fl.upper_strict == (n >= 8)
            assert fl.upper_equal == (n <= 7)

    def test_builds_each_bound_once(self):
        bound_lower.cache_clear()
        cubic_bound_poly.cache_clear()
        bound_report(23, F(1, 10**12 + 1))  # a tolerance no other test uses
        assert bound_lower.cache_info().misses == 1
        assert cubic_bound_poly.cache_info().misses == 1

    def test_enclosure_relations(self):
        rep = bound_report(10)
        assert rep.m_enclosure.lo <= rep.lam.hi
        assert rep.lam.lo <= rep.f1
        assert rep.lam.hi < rep.upper_enclosure.lo  # strict for n >= 8

    # Coarse tolerances leave lambda_n and M(n) overlapping, so the
    # refine-until-disjoint step runs (at 1e-12 it never does for n <= 66).
    @pytest.mark.parametrize("tol", [F(1, 2), F(10), F(1000)])
    def test_coarse_tolerances_refine_to_a_decision(self, tol):
        for n in range(2, 80):
            flags = bound_report(n, tol).orderings
            assert flags.decided and flags.all_hold, n

    def test_refined_enclosures_are_unchanged(self):
        rep = bound_report(8, F(10))
        assert rep.lam == Enclosure(F(1406072721, 2621440), F(2812145931, 5242880))
        assert rep.upper_enclosure == Enclosure(F(1124891145, 2097152),
                                                F(281222865, 524288))

    def test_certified_violation_is_decided(self, monkeypatch):
        # An upper bound provably below lambda_n is a decided failure of
        # lambda <= M, not an undecided ordering.
        lam = max_root(10, TOL)
        below = Enclosure(lam.lo - 2, lam.lo - 1)
        monkeypatch.setattr(spectra, "bound_upper", lambda n, tol: below)
        flags = bound_report(10, TOL).orderings
        assert flags.decided
        assert not flags.lambda_le_upper and not flags.upper_strict
        assert not flags.all_hold


class TestMonotone:
    def test_small_range(self):
        rep = check_monotone(12)
        assert rep.ok and rep.undecided == () and rep.checked == 10

    def test_domain(self):
        with pytest.raises(ValueError):
            check_monotone(2)


class TestEnsureDisjoint:
    def test_already_disjoint(self):
        a, b = Enclosure(F(1), F(2)), Enclosure(F(3), F(4))
        assert ensure_disjoint(a, b, lambda e: e, lambda e: e)[0] is True
        assert ensure_disjoint(b, a, lambda e: e, lambda e: e)[0] is False

    def test_undecided_when_refiners_stall(self):
        a = Enclosure(F(1), F(2))
        b = Enclosure(F(3, 2), F(5, 2))
        assert ensure_disjoint(a, b, lambda e: e, lambda e: e, cap=4)[0] is None

    def test_refinement_resolves(self):
        a = Enclosure(F(0), F(2))
        b = Enclosure(F(1), F(3))

        def shrink_down(e: Enclosure) -> Enclosure:
            return Enclosure(e.lo, max(e.lo, e.hi - F(1, 2)))

        def shrink_up(e: Enclosure) -> Enclosure:
            return Enclosure(min(e.hi, e.lo + F(1, 2)), e.hi)

        assert ensure_disjoint(a, b, shrink_down, shrink_up)[0] is True


class TestComparison:
    def test_exact_values(self):
        # next-index polynomial at the exact roots 3 and 15
        assert char_poly(3).poly(F(3)) == -12
        assert char_poly(4).poly(F(15)) == -345
        assert comparison_check(2) is True
        assert comparison_check(3) is True

    @pytest.mark.parametrize("n", range(4, 12))
    def test_range(self, n):
        assert comparison_check(n) is True


class TestInverseConstant:
    def test_n2_is_sqrt3(self):
        rep = inverse_constant(2)
        assert rep.value.lo**2 <= 3 <= rep.value.hi**2
        assert rep.window_low_holds and rep.window_high_holds

    def test_n6(self):
        rep = inverse_constant(6)
        assert abs(float(rep.value.mid) - 13.59) < 0.01
        assert rep.window_low_holds and rep.window_high_holds

    def test_high_edge_needs_dominance_only_off_the_root(self, monkeypatch):
        # lambda_2 = f1 exactly (a zero sign at f1); lambda_6 < f1 (a positive
        # sign), where the upper edge rests on coefficient dominance.
        monkeypatch.setattr(spectra, "coefficient_dominance_holds", lambda n: False)
        assert inverse_constant(2).window_high_holds
        assert not inverse_constant(6).window_high_holds


class TestBoundaryEigenvalue:
    def test_closed_form_values(self):
        assert [max_boundary_eigenvalue(n) for n in range(1, 11)] == [
            3, 5, 10, 14, 21, 27, 36, 44, 55, 65,
        ]

    def test_matches_factor_roots(self):
        for n in range(1, 51):
            assert max_boundary_eigenvalue(n) == max(boundary_factor_roots(n))

    def test_n1_has_single_root(self):
        assert boundary_factor_roots(1) == (F(3),)

    def test_zero_root_from_n3(self):
        assert F(0) in boundary_factor_roots(3)
        assert F(0) not in boundary_factor_roots(2)

    @pytest.mark.parametrize("n", range(1, 21))
    def test_factor_roots_are_roots_of_the_computed_determinant(self, n):
        # The full matrix from n = 2; at n = 1 the parity blocks of sizes 0 and 1.
        if n >= 2:
            det = det_poly(build_boundary("full", n))
        else:
            det = det_poly(build_boundary(0, 0)) * det_poly(build_boundary(1, 1))
        assert not det.is_zero()
        assert all(det(root) == 0 for root in boundary_factor_roots(n))


class TestAsymptotics:
    def test_n2_ratio_is_one(self):
        (row,) = asymptotic_table([2])
        assert row.lambda_over_f1 == 1

    def test_smallest_root_even_near_target(self):
        enc = smallest_root_of_index(2)
        assert enc.lo == enc.hi == 3  # the single root of index 2

    def test_smallest_root_of_index_is_the_sturm_smallest_root(self):
        tol = F(1, 10**9)
        sturm = {n: smallest_root(char_poly(n).poly, F(0), char_coeff(1, n), tol)
                 for n in range(2, 61)}
        # An ascending sweep reads each lowest cell off the root table of
        # all_roots, which never falls back to Sturm.
        spectra._last = (0, None, ())
        smallest_root_of_index.cache_clear()
        with mock.patch.object(roots, "sturm_chain", side_effect=AssertionError):
            for n in range(2, 61):
                assert smallest_root_of_index(n) == sturm[n]
        # A lone n, with cold caches, agrees.
        for n in range(2, 61):
            spectra._last = (0, None, ())
            smallest_root_of_index.cache_clear()
            assert smallest_root_of_index(n) == sturm[n]

    def test_targets_present(self):
        (row,) = asymptotic_table([4])
        assert set(row.targets) == {
            "inv_pi_sq", "eight_inv_pi_sq", "quarter_pi_sq", "pi_sq",
        }
        assert abs(float(row.targets["pi_sq"]) - 9.8696044) < 1e-6


class TestFloatCrossCheck:
    def test_n2(self):
        rep = float_eigen_crosscheck(2, 1e-8)
        assert rep.ok and not rep.inconclusive
        assert rep.certified_value == pytest.approx(3.0)

    def test_n3(self):
        assert float_eigen_crosscheck(3, 1e-6).ok

    def test_n4(self):
        assert float_eigen_crosscheck(4, 1e-4).ok

    def test_domain(self):
        with pytest.raises(ValueError):
            float_eigen_crosscheck(5, 1e-4)
