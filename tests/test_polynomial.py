from fractions import Fraction as F
from math import gcd

import pytest
from hypothesis import given, strategies as st

from invineq.cli import _exact
from invineq.polynomial import RatPoly, poly_interpolate
from invineq.roots import int_coeffs

coeff = st.fractions(min_value=F(-20), max_value=F(20), max_denominator=12)
small_polys = st.lists(coeff, max_size=9).map(RatPoly)


class TestRatPolyBasics:
    def test_trailing_zeros_trimmed(self):
        assert RatPoly((1, 2, 0, 0)).coeffs == (F(1), F(2))
        assert RatPoly((0, 0)).is_zero()
        assert RatPoly().degree == -1

    def test_degree_and_leading(self):
        p = RatPoly((105, -45, 1))
        assert p.degree == 2
        assert p.leading == 1
        assert p.coeff(5) == 0

    def test_arithmetic(self):
        x = RatPoly.x()
        p = (x - 3) * (x - 5)
        assert p == RatPoly((15, -8, 1))
        assert p - p == RatPoly.zero()
        assert 2 * x == RatPoly((0, 2))
        assert (x + 1) ** 2 == RatPoly((1, 2, 1))

    def test_shift_up(self):
        assert RatPoly((1, 2)).shift_up(2) == RatPoly((0, 0, 1, 2))

    def test_derivative(self):
        assert RatPoly((105, -45, 1)).derivative() == RatPoly((-45, 2))

    def test_str(self):
        assert str(RatPoly((105, -45, 1))) == "x^2 - 45*x + 105"
        assert str(RatPoly()) == "0"


class TestEvaluation:
    def test_root_of_linear(self):
        assert RatPoly((-3, 1))(F(3)) == 0

    def test_zero_polynomial(self):
        assert RatPoly()(F(7)) == 0

    def test_quadratic_constant_term(self):
        assert RatPoly((105, -45, 1))(F(0)) == 105

    @given(small_polys, coeff)
    def test_horner_matches_power_sum(self, p, x):
        direct = sum(c * x**i for i, c in enumerate(p.coeffs))
        assert p(x) == direct


class TestInterpolation:
    def test_constant_data(self):
        assert poly_interpolate([(0, 1), (1, 1)]) == RatPoly((1,))

    def test_linear(self):
        assert poly_interpolate([(0, -3), (1, -2), (2, -1)]) == RatPoly((-3, 1))

    def test_quadratic_consistency(self):
        # Four samples of the same quadratic: any three determine it and the
        # fourth must be consistent.
        pts = [(0, 105), (1, 61), (2, 19), (-1, 151)]
        p = poly_interpolate(pts[:3])
        assert p == RatPoly((105, -45, 1))
        assert p(F(-1)) == 151
        assert poly_interpolate(pts) == p

    def test_duplicate_abscissa_rejected(self):
        with pytest.raises(ValueError):
            poly_interpolate([(1, 2), (1, 3)])

    def test_empty(self):
        assert poly_interpolate([]) == RatPoly()

    @given(small_polys)
    def test_round_trip(self, p):
        points = [(F(x), p(F(x))) for x in range(max(p.degree + 1, 1))]
        assert poly_interpolate(points) == p

    @given(st.lists(coeff, min_size=1, max_size=9, unique=True), st.data())
    def test_matches_newton_divided_differences(self, xs, data):
        ys = data.draw(st.lists(coeff, min_size=len(xs), max_size=len(xs)))
        points = list(zip(xs, ys))
        assert poly_interpolate(points) == ref_newton_interpolate(points)


def ref_newton_interpolate(points):
    """Newton divided differences on Fractions: the earlier implementation
    of poly_interpolate, kept as an independent oracle."""
    xs = [F(x) for x, _ in points]
    dd = [F(y) for _, y in points]
    for level in range(1, len(xs)):
        for i in range(len(xs) - 1, level - 1, -1):
            dd[i] = (dd[i] - dd[i - 1]) / (xs[i] - xs[i - level])
    result = RatPoly((dd[-1],))
    for i in range(len(xs) - 2, -1, -1):
        result = result * RatPoly((-xs[i], 1)) + dd[i]
    return result


# Reference semantics on plain Fraction lists, independent of RatPoly's
# content/primitive representation.
def ref_trim(cs):
    cs = [F(c) for c in cs]
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def ref_add(a, b):
    n = max(len(a), len(b))
    return ref_trim([(a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0)
                     for i in range(n)])


def ref_mul(a, b):
    out = [F(0)] * max(len(a) + len(b) - 1, 0)
    for i, ca in enumerate(a):
        for j, cb in enumerate(b):
            out[i + j] += ca * cb
    return ref_trim(out)


def ref_eval(a, x):
    acc = F(0)
    for c in reversed(a):
        acc = acc * x + c
    return acc


def assert_canonical(p):
    assert p.content > 0
    if p.primitive:
        assert gcd(*p.primitive) == 1
        assert p.primitive[-1] != 0
    else:
        assert p.content == 1
    assert all(isinstance(c, int) for c in p.primitive)


coeff_lists = st.lists(coeff, max_size=9)


class TestIntegerRepresentation:
    @given(coeff_lists, coeff_lists, coeff, coeff)
    def test_ring_operations_match_fraction_reference(self, a, b, s, x):
        p, q = RatPoly(a), RatPoly(b)
        ta, tb = ref_trim(a), ref_trim(b)
        assert p.coeffs == ta
        assert (p + q).coeffs == ref_add(ta, tb)
        assert (p - q).coeffs == ref_add(ta, tuple(-c for c in tb))
        assert (p * q).coeffs == ref_mul(ta, tb)
        assert (p * s).coeffs == ref_trim(c * s for c in ta)
        assert (s * p).coeffs == ref_trim(c * s for c in ta)
        assert p.derivative().coeffs == ref_trim([i * c for i, c in enumerate(ta)][1:])
        assert p.shift_up(3).coeffs == ref_trim((0, 0, 0) + ta)
        assert p(x) == ref_eval(ta, x)
        for r in (p, q, p + q, p - q, p * q, p * s, -p, p.derivative(), p.shift_up(2)):
            assert_canonical(r)

    @given(coeff_lists, coeff)
    def test_equal_polynomials_hash_equal(self, a, s):
        p = RatPoly(a)
        if s != 0:
            scaled = RatPoly([c * s for c in a]) * (1 / s)
            assert scaled == p
            assert hash(scaled) == hash(p)
        assert (p + RatPoly(a)) - p == p
        assert hash((p + RatPoly(a)) - p) == hash(p)
        assert p - p == RatPoly()
        assert hash(p - p) == hash(RatPoly())

    @given(coeff_lists)
    def test_int_coeffs_is_the_primitive_part(self, a):
        p = RatPoly(a)
        assert int_coeffs(p) == list(p.primitive)
        assert tuple(c * p.content for c in p.primitive) == p.coeffs

    def test_sign_lives_in_the_primitive_part(self):
        p = RatPoly((F(-1, 3), F(2, 9)))
        assert p.content == F(1, 9)
        assert p.primitive == (-3, 2)
        assert (-p).primitive == (3, -2)
        assert (p * F(-3, 2)).content == F(1, 6)


@given(st.lists(st.fractions(max_denominator=10**6), max_size=8),
       st.sampled_from([F(1), F(3), F(-1), F(1, 7), F(-5, 12), F(10**20, 3)]))
def test_exact_prints_coeffs_as_str_of_fraction(coeffs, scale):
    """Negative coefficients, integer and fractional content, the zero
    polynomial: the rendered coefficients are those of `str(Fraction)`."""
    p = RatPoly(coeffs) * scale
    assert _exact(p) == [str(c) for c in p.coeffs]
    assert _exact(RatPoly()) == []
    assert _exact(RatPoly((0, F(-3), F(4, 2)))) == ["0", "-3", "2"]
