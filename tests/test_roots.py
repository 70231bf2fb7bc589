from contextlib import contextmanager
from fractions import Fraction as F
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from invineq import roots
from invineq.exact import format_decimal, format_ratio, sqrt_bounds
from invineq.polynomial import RatPoly
from invineq.roots import (
    Enclosure,
    RootIsolationError,
    _exact_div,
    _pdiv,
    bisect_sign_change,
    count_roots,
    int_coeffs,
    interval_eval,
    isolate_all,
    largest_root,
    refine,
    sign_at,
    smallest_root,
    sturm_chain,
)

TOL = F(1, 10**12)


def poly_from_roots(*roots) -> RatPoly:
    p = RatPoly.one()
    for r in roots:
        p = p * RatPoly((-F(r), 1))
    return p


class TestIntCoeffs:
    def test_clears_denominators(self):
        p = RatPoly((F(1, 3), F(-1, 6), 1))
        assert int_coeffs(p) == [2, -1, 6]

    def test_primitive(self):
        assert int_coeffs(RatPoly((4, 8))) == [1, 2]


class TestSignAt:
    def test_signs(self):
        c = int_coeffs(RatPoly((-3, 1)))  # x - 3
        assert sign_at(c, F(2)) == -1
        assert sign_at(c, F(3)) == 0
        assert sign_at(c, F(7, 2)) == 1


class TestSturmChain:
    def test_count_simple(self):
        p = poly_from_roots(1, 2, 5)
        chain = sturm_chain(int_coeffs(p))
        assert count_roots(chain, F(0), F(10)) == 3
        assert count_roots(chain, F(0), F(2)) == 2  # half-open: includes 2
        assert count_roots(chain, F(2), F(10)) == 1
        assert count_roots(chain, F(3), F(4)) == 0

    def test_no_real_roots(self):
        chain = sturm_chain(int_coeffs(RatPoly((1, 0, 1))))  # x^2 + 1
        assert count_roots(chain, F(-10), F(10)) == 0

    def test_repeated_root_squarefree_fallback(self):
        # x^3 - 3x^2 = x^2 (x - 3): double root at 0, simple at 3
        chain = sturm_chain([0, 0, -3, 1])
        assert count_roots(chain, F(0), F(10)) == 1
        assert count_roots(chain, F(-1), F(10)) == 2

    def test_negative_leading_coefficient(self):
        p = -poly_from_roots(1, 4)
        chain = sturm_chain(int_coeffs(p))
        assert count_roots(chain, F(0), F(10)) == 2


class TestIsolateAll:
    def test_well_separated(self):
        p = poly_from_roots(1, 2, 5)
        roots = isolate_all(p, F(0), F(10), TOL, expected=3)
        assert len(roots) == 3
        for enc, true in zip(roots, (1, 2, 5)):
            assert enc.lo <= true <= enc.hi
            assert enc.width <= TOL

    def test_clustered(self):
        p = poly_from_roots(F(1), F(1001, 1000), 3)
        roots = isolate_all(p, F(0), F(10), F(1, 10**6), expected=3)
        assert [float(e.mid) for e in roots] == pytest.approx([1.0, 1.001, 3.0])

    def test_expected_mismatch_raises(self):
        p = poly_from_roots(1, 2)
        with pytest.raises(RootIsolationError):
            isolate_all(p, F(0), F(10), TOL, expected=3)

    def test_rational_root_on_grid_is_exact(self):
        p = poly_from_roots(3)
        (enc,) = isolate_all(p, F(0), F(3), TOL)  # root at the endpoint
        assert enc.is_exact and enc.lo == 3
        (enc,) = isolate_all(p, F(0), F(12), TOL)  # root on the dyadic grid
        assert enc.is_exact and enc.lo == 3


class TestExtremeRoots:
    def test_largest(self):
        p = poly_from_roots(1, 2, 5)
        enc = largest_root(p, F(0), F(10), TOL)
        assert enc.lo <= 5 <= enc.hi and enc.width <= TOL

    def test_smallest(self):
        p = poly_from_roots(1, 2, 5)
        enc = smallest_root(p, F(0), F(10), TOL)
        assert enc.lo <= 1 <= enc.hi

    def test_irrational(self):
        p = RatPoly((-2, 0, 1))  # x^2 - 2
        enc = largest_root(p, F(0), F(2), TOL)
        assert enc.lo**2 <= 2 <= enc.hi**2

    def test_no_roots_raises(self):
        with pytest.raises(RootIsolationError):
            largest_root(RatPoly((1, 0, 1)), F(0), F(10), TOL)


class TestRefineAndBisect:
    def test_refine_width(self):
        p = int_coeffs(RatPoly((-2, 0, 1)))
        enc = refine(p, F(1), F(2), F(1, 10**9))
        assert enc.width <= F(1, 10**9)
        assert enc.lo**2 <= 2 <= enc.hi**2

    def test_bisect_sign_change(self):
        p = int_coeffs(RatPoly((-2, 0, 1)))
        enc = bisect_sign_change(p, F(1), F(2), TOL)
        assert enc.lo**2 <= 2 <= enc.hi**2

    def test_bisect_exact_endpoint(self):
        p = int_coeffs(RatPoly((-3, 1)))
        enc = bisect_sign_change(p, F(1), F(3), TOL)
        assert enc.is_exact and enc.lo == 3

    def test_bisect_requires_sign_change(self):
        p = int_coeffs(RatPoly((-3, 1)))
        with pytest.raises(RootIsolationError):
            bisect_sign_change(p, F(4), F(5), TOL)


class TestEnclosure:
    def test_invariants(self):
        e = Enclosure(F(1), F(2))
        assert e.width == 1 and e.mid == F(3, 2) and not e.is_exact
        with pytest.raises(ValueError):
            Enclosure(F(2), F(1))

    def test_overlaps(self):
        assert Enclosure(F(1), F(2)).overlaps(Enclosure(F(2), F(3)))
        assert not Enclosure(F(1), F(2)).overlaps(Enclosure(F(5, 2), F(3)))


class TestIntervalEval:
    def test_contains_range(self):
        p = RatPoly((-2, 0, 1))  # x^2 - 2
        lo, hi = interval_eval(p, Enclosure(F(0), F(2)))
        # true range on [0,2] is [-2, 2]
        assert lo <= -2 and hi >= 2

    def test_point_interval_is_exact(self):
        p = RatPoly((105, -45, 1))
        lo, hi = interval_eval(p, Enclosure(F(3), F(3)))
        assert lo == hi == p(F(3))

    def test_sign_certificate(self):
        p = RatPoly((-3, 1))
        lo, hi = interval_eval(p, Enclosure(F(1), F(2)))
        assert hi < 0


# -- properties over polynomials with planted roots ---------------------------

LO, HI = F(-8), F(8)

# Planted roots: points of the dyadic grid that halving (LO, HI] visits, the
# interval ends themselves, and general rationals inside and just outside.
planted_root = st.one_of(
    st.builds(lambda k, e: F(k, 2**e), st.integers(-64, 64), st.integers(0, 3)),
    st.sampled_from([LO, HI, F(0), F(4), F(-4)]),
    st.fractions(min_value=F(-9), max_value=F(9), max_denominator=40),
)
tolerances = st.one_of(
    st.builds(lambda e: F(1, 2**e), st.integers(0, 40)),
    st.builds(lambda e: F(1, 10**e), st.integers(0, 12)),
)


@st.composite
def planted_polys(draw):
    """(poly, distinct planted roots): a product of (x - r)^mult over the
    planted roots (perhaps with a near-double pair), times an optional
    factor with no real roots and a nonzero scale of either sign."""
    roots = draw(st.lists(st.tuples(planted_root, st.integers(1, 3)),
                          min_size=0, max_size=5))
    if draw(st.booleans()):
        # A near-double pair: two simple roots 10^-3 .. 10^-12 apart.
        r = draw(planted_root)
        roots += [(r, 1), (r + F(1, 10 ** draw(st.integers(3, 12))), 1)]
    poly = RatPoly.one()
    for r, mult in roots:
        for _ in range(mult):
            poly = poly * RatPoly((-r, 1))
    if draw(st.booleans()):
        poly = poly * RatPoly((draw(st.integers(1, 20)), 0, 1))
    scale = draw(st.fractions(min_value=F(-50), max_value=F(50), max_denominator=9)
                 .filter(lambda c: c != 0))
    return poly * RatPoly((scale,)), sorted({r for r, _ in roots})


def _inside(roots):
    return [r for r in roots if LO < r <= HI]


class TestPlantedRoots:
    @settings(max_examples=150, deadline=None)
    @given(planted_polys(), tolerances)
    def test_isolate_all_encloses_exactly_the_planted_set(self, planted, tol):
        poly, roots = planted
        encs = isolate_all(poly, LO, HI, tol)
        assert len(encs) == len(_inside(roots))
        for enc, r in zip(encs, _inside(roots)):
            assert enc.lo <= r <= enc.hi and enc.width <= tol
            assert LO <= enc.lo and enc.hi <= HI

    @settings(max_examples=150, deadline=None)
    @given(planted_polys(), tolerances)
    def test_extreme_roots(self, planted, tol):
        poly, roots = planted
        inside = _inside(roots)
        if not inside:
            for extreme in (largest_root, smallest_root):
                with pytest.raises(RootIsolationError):
                    extreme(poly, LO, HI, tol)
            return
        for extreme, r in ((largest_root, inside[-1]), (smallest_root, inside[0])):
            enc = extreme(poly, LO, HI, tol)
            assert enc.lo <= r <= enc.hi and enc.width <= tol

    @settings(max_examples=150, deadline=None)
    @given(planted_polys(), tolerances, planted_root, planted_root)
    def test_bisect_sign_change(self, planted, tol, a, b):
        poly, roots = planted
        lo, hi = min(a, b), max(a, b)
        coeffs = int_coeffs(poly)
        s_lo, s_hi = sign_at(coeffs, lo), sign_at(coeffs, hi)
        if s_lo != 0 and s_lo == s_hi:
            with pytest.raises(RootIsolationError):
                bisect_sign_change(coeffs, lo, hi, tol)
            return
        enc = bisect_sign_change(coeffs, lo, hi, tol)
        assert lo <= enc.lo and enc.hi <= hi and enc.width <= tol
        if enc.is_exact:
            assert enc.lo in roots
        else:
            # A strict sign change across the enclosure: it holds a root of
            # odd multiplicity, which is one of the planted roots.
            assert sign_at(coeffs, enc.lo) * sign_at(coeffs, enc.hi) < 0
            assert any(enc.lo < r < enc.hi for r in roots)
        if s_lo == 0:
            assert enc == Enclosure(lo, lo)
        elif s_hi == 0:
            assert enc == Enclosure(hi, hi)


int_polys = st.lists(st.integers(-10**6, 10**6), min_size=1, max_size=9).filter(
    lambda c: c[-1] != 0)


class TestPseudoDivision:
    @settings(max_examples=300, deadline=None)
    @given(int_polys, int_polys)
    @example([0, 0, -3, 1], [3, -2])  # negative leading coefficient of b
    @example([1, 2, 1], [1, 1])  # exact division, remainder 0
    @example([5], [1, 2])  # deg a < deg b: no step
    def test_identity(self, a, b):
        q, r, k = _pdiv(a, b)
        assert RatPoly(q) * RatPoly(b) + RatPoly(r) == RatPoly(a) * b[-1] ** k
        assert len(r) < len(b)
        assert k <= max(len(a) - len(b) + 1, 0)

    def test_exact_div_keeps_the_quotient_sign(self):
        # lc(b) < 0 with an odd step count: the pseudo-quotient carries the
        # opposite sign until it is corrected.
        assert _exact_div([0, -3, 1], [0, 3, -1]) == [-1]
        assert _exact_div([0, 0, -3, 1], [0, 0, 2]) == [-3, 1]

    def test_inexact_division_raises(self):
        with pytest.raises(RootIsolationError, match="inexact"):
            _exact_div([1, 0, 1], [1, 1])


# -- the grid kernel against a Fraction bisection oracle -----------------------


def bisect_oracle(coeffs, lo, hi, s_hi, tol):
    """Halve (lo, hi] on Fraction midpoints to width <= tol, given the sign
    s_hi != 0 at hi and the opposite sign just right of lo; a midpoint root
    is returned exactly.  The refinement loop the grid kernel replaces."""
    while hi - lo > tol:
        mid = (lo + hi) / 2
        s_mid = sign_at(coeffs, mid)
        if s_mid == 0:
            return Enclosure(mid, mid)
        if s_mid == s_hi:
            hi = mid
        else:
            lo = mid
    return Enclosure(lo, hi)


def with_oracle(fn, *args):
    """`fn(*args)` with the bisection oracle in place of the grid kernel:
    neither `_level` nor `_Grid` is used on the oracle's side."""
    with mock.patch.object(roots, "_halve", bisect_oracle):
        return fn(*args)


def index_oracle(coeffs, grid, jlo, jhi, s_hi):
    """Halve the index bracket (jlo, jhi] to one cell (j - 1, j], reading
    signs with `sign_at` at `grid.point(j)`; a root on the grid point j
    comes back as (j, j).  The loop `_grid_refine` replaces, for brackets
    whose length is not a power of two."""
    while jhi - jlo > 1:
        j = (jlo + jhi) >> 1
        s = sign_at(coeffs, grid.point(j))
        if s == 0:
            return j, j
        if s == s_hi:
            jhi = j
        else:
            jlo = j
    return jlo, jhi


def grid_level(lo, hi, tol):
    m = 0
    while (hi - lo) / 2**m > tol:
        m += 1
    return m


# Interval ends: dyadic, with denominators 3 and 7, lower square-root bounds
# (like the maximal-root bracket's a0) and general rationals.
interval_end = st.one_of(
    st.builds(lambda k, e: F(k, 2**e), st.integers(-64, 64), st.integers(0, 4)),
    st.builds(lambda k, d: F(k, d), st.integers(-60, 60), st.sampled_from([3, 7, 21])),
    st.builds(lambda q, e: sqrt_bounds(F(q), F(1, 2**e))[0] - 4,
              st.integers(1, 60), st.integers(1, 30)),
    st.fractions(min_value=F(-9), max_value=F(9), max_denominator=50),
)
grid_tolerances = st.one_of(
    tolerances,
    st.builds(lambda k, e: F(k, 10**e), st.integers(1, 99), st.integers(0, 14)),
    st.fractions(min_value=F(1, 1000), max_value=F(20), max_denominator=1000),
)


@st.composite
def isolating_cases(draw):
    """(poly, lo, hi, tol): (lo, hi] holds exactly one distinct root r of
    poly.  r sits on a grid point of level < m, of level exactly m, at hi or
    anywhere inside; other roots lie outside, one perhaps exactly at lo."""
    lo, hi = sorted(draw(st.lists(interval_end, min_size=2, max_size=2, unique=True)))
    tol = draw(grid_tolerances)
    m = grid_level(lo, hi, tol)
    place = draw(st.sampled_from(["coarse", "level_m", "hi", "inside", "inside"]))
    if place == "coarse" and m > 1:
        e = draw(st.integers(1, m - 1))
        u = F(2 * draw(st.integers(0, 2 ** (e - 1) - 1)) + 1, 2**e)
    elif place == "level_m" and m > 0:
        u = F(2 * draw(st.integers(0, 2 ** (m - 1) - 1)) + 1, 2**m)
    elif place == "hi":
        u = F(1)
    else:
        u = draw(st.fractions(min_value=0, max_value=1, max_denominator=10**6)
                 .filter(lambda f: 0 < f))
    width = hi - lo
    outside = draw(st.lists(st.one_of(
        st.just(lo),
        st.builds(lambda f: lo - f * (width + 1), st.fractions(0, 3, max_denominator=97)),
        st.builds(lambda f: hi + f * (width + 1),
                  st.fractions(0, 3, max_denominator=97).filter(lambda f: f > 0)),
    ), max_size=3))
    poly = RatPoly.one()
    for r in [lo + u * width, *outside]:
        for _ in range(draw(st.integers(1, 3))):
            poly = poly * RatPoly((-r, 1))
    if draw(st.booleans()):
        poly = poly * RatPoly((draw(st.integers(1, 20)), 0, 1))
    sign = draw(st.sampled_from([1, -1]))  # both signs of s_hi
    return poly * RatPoly((sign,)), lo, hi, tol


class TestGridKernel:
    """The kernel returns exactly the enclosure of Fraction bisection on
    isolating intervals, through every caller."""

    @settings(max_examples=400, deadline=None)
    @given(isolating_cases())
    @example((RatPoly((-F(1, 3), 1)), F(0), F(1), F(1)))  # width <= tol: m = 0
    @example((RatPoly((-F(3, 8), 1)), F(0), F(1), F(1, 8)))  # root on level m = 3
    @example((RatPoly((-F(1, 2), 1)), F(0), F(1), F(1, 10**6)))  # level 1 < m
    @example((poly_from_roots(F(1, 3), F(1, 2)), F(1, 3), F(5, 7),
              F(3, 1000)))  # p(lo) = 0 with lo outside (lo, hi]
    def test_refine_and_bisect_sign_change(self, case):
        poly, lo, hi, tol = case
        squarefree = sturm_chain(int_coeffs(poly))[0]
        assert count_roots(sturm_chain(squarefree), lo, hi) == 1
        got = refine(squarefree, lo, hi, tol)
        assert got == with_oracle(refine, squarefree, lo, hi, tol)
        assert got.width <= tol and lo <= got.lo and got.hi <= hi
        coeffs = int_coeffs(poly)
        try:
            expected = with_oracle(bisect_sign_change, coeffs, lo, hi, tol)
        except RootIsolationError:  # a root of even multiplicity
            with pytest.raises(RootIsolationError):
                bisect_sign_change(coeffs, lo, hi, tol)
            return
        assert bisect_sign_change(coeffs, lo, hi, tol) == expected

    @settings(max_examples=150, deadline=None)
    @given(planted_polys(), grid_tolerances)
    def test_isolating_callers(self, planted, tol):
        poly, _ = planted
        encs = isolate_all(poly, LO, HI, tol)
        assert encs == with_oracle(isolate_all, poly, LO, HI, tol)
        if encs:
            for extreme in (largest_root, smallest_root):
                assert extreme(poly, LO, HI, tol) == with_oracle(extreme, poly, LO, HI, tol)

    def test_triple_root_deep_tolerance(self):
        # Newton converges only linearly at a triple root: the halving
        # safeguard has to carry the refinement to 200 levels.
        coeffs = int_coeffs(poly_from_roots(F(1, 3), F(1, 3), F(1, 3)))
        tol = F(1, 2**200)
        for lo, hi in ((F(0), F(1)), (F(1, 7), F(3, 4))):
            enc = bisect_sign_change(coeffs, lo, hi, tol)
            assert enc == with_oracle(bisect_sign_change, coeffs, lo, hi, tol)
            assert enc.lo < F(1, 3) < enc.hi and enc.width <= tol

    def test_known_signs_are_not_evaluated_again(self):
        # With the sign at lo passed in, the only sign evaluated is at hi.
        coeffs = int_coeffs(RatPoly((-2, 0, 1)))
        with mock.patch.object(roots, "sign_at", wraps=roots.sign_at) as spy:
            enc = bisect_sign_change(coeffs, F(1), F(2), TOL, s_lo=-1)
        spy.assert_called_once_with(coeffs, F(2))
        assert enc == bisect_sign_change(coeffs, F(1), F(2), TOL)


@st.composite
def index_cases(draw):
    """(coeffs, grid, jlo, jhi): an index bracket of any length on a rising
    grid, holding one distinct root of odd multiplicity strictly inside, on
    a grid point or between two; other roots lie outside, one perhaps at
    the point jlo."""
    base, step = draw(interval_end), draw(interval_end.filter(lambda f: f > 0))
    level = draw(st.integers(0, 12))
    jlo = draw(st.integers(-20, 1 << level))
    jhi = jlo + draw(st.integers(2, 600))
    if draw(st.booleans()):
        u = F(draw(st.integers(jlo + 1, jhi - 1)))
    else:
        u = draw(st.fractions(jlo, jhi, max_denominator=10**4)
                 .filter(lambda f: jlo < f < jhi and f.denominator > 1))
    outside = draw(st.lists(st.one_of(
        st.just(F(jlo)),
        st.fractions(jlo - 50, jlo, max_denominator=97),
        st.fractions(jhi, jhi + 50, max_denominator=97).filter(lambda f: f > jhi),
    ), max_size=3))
    poly = RatPoly.one()
    for k, v in enumerate([u, *outside]):
        for _ in range(draw(st.sampled_from([1, 3])) if k == 0 else draw(st.integers(1, 2))):
            poly = poly * RatPoly((-(base + v * step / 2**level), 1))
    poly = poly * RatPoly((draw(st.sampled_from([1, -1])),))
    coeffs = int_coeffs(poly)
    return coeffs, roots._Grid(coeffs, base, step, level), jlo, jhi


@contextmanager
def evaluated_points():
    """Every point the refinement kernel evaluates, in order: a list that
    collects ("at", j) for each `_Grid.at` call and ("value", j) for each
    `_Grid.value` call made inside `_grid_refine`, not the bracket ends that
    `_interlaced` reads."""
    log, depth = [], [0]
    at, value, refine = roots._Grid.at, roots._Grid.value, roots._grid_refine

    def spy_at(grid, j):
        log.append(("at", j))
        return at(grid, j)

    def spy_value(grid, j):
        if depth[0]:
            log.append(("value", j))
        return value(grid, j)

    def spy_refine(*args):
        depth[0] += 1
        try:
            return refine(*args)
        finally:
            depth[0] -= 1

    with mock.patch.object(roots._Grid, "at", spy_at), \
            mock.patch.object(roots._Grid, "value", spy_value), \
            mock.patch.object(roots, "_grid_refine", spy_refine):
        yield log


class TestGridIndexBrackets:
    """On an index bracket whose length need not be a power of two, as
    `_interlaced` passes it, the kernel returns the cell or grid
    point that halving the indices under `sign_at` ends in."""

    @settings(max_examples=300, deadline=None)
    @given(index_cases())
    def test_matches_index_halving(self, case):
        coeffs, grid, jlo, jhi = case
        s_hi = sign_at(coeffs, grid.point(jhi))
        got = roots._grid_refine(grid, jlo, jhi, s_hi)
        assert got == index_oracle(coeffs, grid, jlo, jhi, s_hi)

    @settings(max_examples=300, deadline=None)
    @given(index_cases(), st.data())
    def test_a_start_is_only_a_hint(self, case, data):
        # A start strictly inside the bracket is the first point evaluated;
        # one at an end or outside is ignored.  Either way the cell is the
        # oracle's, and at most 2h points are evaluated, with or without
        # their derivative.
        coeffs, grid, jlo, jhi = case
        start = data.draw(st.one_of(st.integers(jlo + 1, jhi - 1),
                                    st.sampled_from([jlo, jhi]),
                                    st.integers(jlo - 40, jlo), st.integers(jhi, jhi + 40)))
        s_hi = sign_at(coeffs, grid.point(jhi))
        with evaluated_points() as log:
            got = roots._grid_refine(grid, jlo, jhi, s_hi, start)
            started = list(log)
            log.clear()
            plain = roots._grid_refine(grid, jlo, jhi, s_hi)
        points, plain_points = [j for _, j in started], [j for _, j in log]
        assert got == plain == index_oracle(coeffs, grid, jlo, jhi, s_hi)
        assert len(points) <= 2 * (jhi - jlo - 1).bit_length()
        if jlo < start < jhi:
            assert points[0] == start
        else:
            assert points == plain_points
        # Only a point next to the one before it (jhi before the first) goes
        # without its derivative.
        for run in (started, log):
            for (kind, j), (_, before) in zip(run, [("end", jhi), *run]):
                assert (kind == "value") == (abs(j - before) == 1)


class TestGridValues:
    """At grid point j = N / M the scaled Horner pass gives M^d p and, as
    its derivative in N, M^(d-1) p'."""

    @settings(max_examples=200, deadline=None)
    @given(planted_polys(), interval_end, interval_end, st.integers(0, 12),
           st.integers(-20, 4200))
    def test_values_and_derivative(self, planted, base, step, level, j):
        poly, _ = planted
        if step == 0 or not poly.primitive:
            return
        coeffs = int_coeffs(poly)
        grid = roots._Grid(coeffs, base, step, level)
        x = grid.point(j)
        assert x == base + j * step / 2**level
        v, dv = grid.at(j)
        degree = len(coeffs) - 1
        assert F(v, grid.scale**degree) == RatPoly(coeffs)(x)
        if degree > 0:
            assert F(dv, grid.scale ** (degree - 1)) == RatPoly(coeffs).derivative()(x)


class TestGridIndex:
    """`_Grid.index` inverts `point`: for a positive step it returns the grid
    point at or below x, on the grid's integers."""

    @settings(max_examples=300, deadline=None)
    @given(interval_end, interval_end.filter(lambda f: f > 0), st.integers(0, 12),
           st.integers(-40, 4200), st.one_of(
               st.just(F(0)),
               st.builds(lambda k, e: F(k, 10**e), st.sampled_from([1, -1]),
                         st.integers(1, 30)),
               st.fractions(min_value=F(-60), max_value=F(60), max_denominator=10**6)))
    def test_index_brackets_x(self, base, step, level, j, offset):
        grid = roots._Grid([1], base, step, level)
        assert grid.index(grid.point(j).numerator, grid.point(j).denominator) == j
        x = grid.point(j) + offset
        k = grid.index(x.numerator, x.denominator)
        assert grid.point(k) <= x < grid.point(k + 1)
        assert k == (x - base) * 2**level // step

    @settings(max_examples=100, deadline=None)
    @given(interval_end, interval_end.filter(lambda f: f > 0), st.integers(0, 12),
           st.fractions(min_value=F(-60), max_value=F(60), max_denominator=10**6),
           st.integers(1, 10**6))
    def test_index_reads_an_unreduced_ratio(self, base, step, level, x, k):
        grid = roots._Grid([1], base, step, level)
        assert (grid.index(k * x.numerator, k * x.denominator)
                == grid.index(x.numerator, x.denominator))


@st.composite
def table_cells(draw):
    """((lo, hi, den), enclosure): a root table's cell and the `Enclosure` it
    stands for, either a cell or point of a grid, as `_Grid.cell` gives it,
    or the cell of a dyadic enclosure, as the Sturm route's."""
    if draw(st.booleans()):
        grid = roots._Grid([1], draw(interval_end), draw(interval_end.filter(lambda f: f > 0)),
                           draw(st.integers(0, 40)))
        ja = draw(st.integers(-40, grid.top))
        jb = ja + draw(st.integers(0, 1))
        return grid.cell(ja, jb), Enclosure(grid.point(ja), grid.point(jb))
    dyadic = st.builds(lambda k, e: F(k, 2**e), st.integers(-10**6, 10**6), st.integers(0, 60))
    enc = Enclosure(*sorted(draw(st.lists(dyadic, min_size=2, max_size=2))))
    return enc.cell, enc


class TestTableCells:
    """A root table's cell (lo, hi, den) prints the midpoint that its
    `Enclosure` prints, and gives the next n's grid the separator that the
    enclosure's midpoint gives."""

    @settings(max_examples=300, deadline=None)
    @given(table_cells(), st.integers(1, 40), interval_end,
           interval_end.filter(lambda f: f > 0), st.integers(0, 40))
    def test_midpoint_and_separator(self, case, digits, base, step, level):
        (lo, hi, den), enc = case
        assert den > 0 and (F(lo, den), F(hi, den)) == (enc.lo, enc.hi)
        assert format_ratio(lo + hi, 2 * den, digits) == format_decimal(enc.mid, digits)
        grid, mid = roots._Grid([1], base, step, level), enc.mid
        assert grid.index(lo + hi, 2 * den) == grid.index(mid.numerator, mid.denominator)


# -- the Sturm-free route against the Sturm route ------------------------------


def isolate_interlaced(coeffs, lo, hi, tol, separators):
    """`_interlaced` on the grid of (lo, hi] with cells of width <= tol, each
    `Fraction` separator moved to the grid point at or below it: the
    enclosures, or None when the separators do not certify the roots."""
    grid = roots._Grid(coeffs, lo, hi - lo, roots._level(hi - lo, tol))
    found = roots._interlaced(grid, len(coeffs) - 1,
                              (grid.index(s.numerator, s.denominator) for s in separators))
    return None if found is None else [Enclosure(grid.point(ja), grid.point(jb))
                                       for *_, ja, jb in found]


rarely = st.sampled_from([False, False, False, True])


@st.composite
def interlaced_cases(draw):
    """(poly, lo, hi, tol, separators) on a grid of 2^level cells.  Roots sit
    in distinct cells, on grid points (hi among them) or inside; rarely two
    share a cell, one lies outside (lo, hi] or a factor without real roots
    joins.  Each gap between roots gets a separator at its middle, on or
    next to one of its roots; rarely a stray separator joins anywhere in the
    order."""
    lo, hi = sorted(draw(st.lists(interval_end, min_size=2, max_size=2, unique=True)))
    level = draw(st.one_of(st.integers(4, 9), st.integers(0, 3)))
    top = 2**level
    cell = (hi - lo) / top
    # Any tol in [cell, 2 cell) gives this grid.
    tol = cell * draw(st.fractions(1, 2, max_denominator=9).filter(lambda f: f < 2))
    # Roots in distinct cells (j - 1, j], on the grid point j or inside.
    offsets = st.one_of(st.just(F(0)), st.fractions(0, 1, max_denominator=10**4)
                        .filter(lambda f: 0 < f < 1))
    cells = draw(st.lists(st.integers(1, top), min_size=1, max_size=5, unique=True))
    us = [j - draw(offsets) for j in cells]
    if draw(rarely):  # a second root in one of those cells
        us.append(draw(st.sampled_from(cells)) - draw(offsets) / 2)
    if draw(rarely):
        us.append(draw(st.sampled_from([F(0), F(-1, 3), F(top + 1)])))
    us = sorted(set(us))
    separators = []
    for a, b in zip(us, us[1:]):
        tiny = F(1, 10 ** draw(st.integers(1, 6)))
        near = draw(rarely)
        separators.append(draw(st.sampled_from([a, b, a + tiny, b - tiny])) if near
                          else (a + b) / 2)
    if draw(rarely):
        separators.insert(draw(st.integers(0, len(separators))),
                          draw(st.fractions(-1, top + 1, max_denominator=50)))
    poly = RatPoly.one()
    for u in us:
        for _ in range(2 if draw(rarely) else 1):
            poly = poly * RatPoly((-(lo + u * cell), 1))
    if draw(rarely):
        poly = poly * RatPoly((draw(st.integers(1, 20)), 0, 1))
    sign = draw(st.sampled_from([1, -1]))
    return poly * RatPoly((sign,)), lo, hi, tol, [lo + u * cell for u in separators]


class TestInterlaced:
    """`_interlaced` returns the Sturm route's enclosures or None, never
    anything else."""

    @settings(max_examples=400, deadline=None)
    @given(interlaced_cases())
    def test_certified_or_none(self, case):
        poly, lo, hi, tol, separators = case
        got = isolate_interlaced(int_coeffs(poly), lo, hi, tol, separators)
        if got is not None:
            assert len(got) == poly.degree
            assert got == with_oracle(isolate_all, poly, lo, hi, tol)

    def test_roots_on_grid_points(self):
        p = poly_from_roots(F(1, 4), F(3, 4))
        got = isolate_interlaced(int_coeffs(p), F(0), F(1), F(1, 8), [F(1, 2)])
        assert got == [Enclosure(F(1, 4), F(1, 4)), Enclosure(F(3, 4), F(3, 4))]
        assert got == with_oracle(isolate_all, p, F(0), F(1), F(1, 8))

    def test_root_at_hi_and_on_a_separator(self):
        # The brackets (0, 1/2], (1/2, 5/8], (5/8, 1]: the first ends on a
        # root and the last at hi on another; the middle one has 0 at its
        # left end, so it certifies nothing.
        p = poly_from_roots(F(1, 2), F(1))
        got = isolate_interlaced(int_coeffs(p), F(0), F(1), F(1, 8), [F(1, 2), F(5, 8)])
        assert got == [Enclosure(F(1, 2), F(1, 2)), Enclosure(F(1), F(1))]
        assert got == with_oracle(isolate_all, p, F(0), F(1), F(1, 8))

    def test_separator_moves_down_onto_the_grid(self):
        # 0.3 moves to the grid point 1/4, below the root 0.26.
        p = poly_from_roots(F(26, 100), F(7, 10))
        args = (int_coeffs(p), F(0), F(1), F(1, 8))
        assert isolate_interlaced(*args, [F(3, 10)]) is None
        assert isolate_interlaced(*args, [F(4, 10)]) == with_oracle(isolate_all, p, *args[1:])

    def test_failures_report_none(self):
        args = (F(0), F(1), F(1, 8))
        pair = int_coeffs(poly_from_roots(F(1, 3), F(34, 100)))  # one cell
        assert isolate_interlaced(pair, *args, [F(1, 3) + F(1, 200)]) is None
        triple = int_coeffs(poly_from_roots(F(1, 8), F(1, 2), F(3, 4)))
        # 1/8 and 1/2 share the bracket that ends on the root 1/2.
        assert isolate_interlaced(triple, *args, [F(1, 2), F(5, 8)]) is None
        assert isolate_interlaced(triple, *args, [F(1, 4), F(5, 8)]) is not None
        for bad in ([F(5, 8), F(1, 4)], [F(1, 4), F(9, 32)], [F(0), F(5, 8)],
                    [F(1, 4), F(1)]):
            assert isolate_interlaced(triple, *args, bad) is None
        assert isolate_interlaced(triple, *args, [F(1, 4)]) is None  # too few
        complex_pair = int_coeffs(RatPoly((1, 0, 1)) * poly_from_roots(F(1, 2)))
        assert isolate_interlaced(complex_pair, *args, [F(1, 4)]) is None
