from fractions import Fraction as F
from math import isqrt

import pytest
from hypothesis import example, given, strategies as st

from invineq.exact import (
    bits_to_digits,
    cbrt_bounds,
    format_decimal,
    format_ratio,
    iroot,
    pi_bounds,
    pochhammer,
    root_bounds,
    sqrt_bounds,
)

rationals = st.fractions(
    min_value=F(-100), max_value=F(100), max_denominator=50
)


class TestPochhammer:
    def test_single_factor(self):
        assert pochhammer(F(3, 2), 1) == F(3, 2)

    def test_empty_product_is_one(self):
        assert pochhammer(5, 0) == 1

    def test_direct_product(self):
        # 3 * 4 * 5 * 6
        assert pochhammer(3, 4) == 360

    def test_half_integer(self):
        assert pochhammer(F(1, 2), 3) == F(1, 2) * F(3, 2) * F(5, 2)

    def test_negative_length_rejected(self):
        with pytest.raises(ValueError):
            pochhammer(1, -1)

    @given(rationals, st.integers(0, 8), st.integers(0, 8))
    def test_addition_law(self, a, m, n):
        assert pochhammer(a, m + n) == pochhammer(a, m) * pochhammer(a + m, n)

    @given(st.integers(-60, 60), st.integers(1, 12), st.integers(0, 40))
    @example(-5, 1, 9)  # crosses zero: a factor vanishes
    @example(-7, 2, 9)  # crosses zero between -1/2 and 1/2
    @example(-3, 4, 0)
    def test_matches_fraction_loop(self, p, q, n):
        expected = F(1)
        term = F(p, q)
        for _ in range(n):
            expected *= term
            term += 1
        assert pochhammer(F(p, q), n) == expected


class TestExactness:
    @given(rationals, rationals)
    def test_add_sub_round_trip(self, a, b):
        assert (a + b) - b == a

    @given(rationals, rationals.filter(lambda b: b != 0))
    def test_mul_div_round_trip(self, a, b):
        assert (a * b) / b == a


class TestRadicalBounds:
    def test_sqrt_exact_square(self):
        lo, hi = sqrt_bounds(F(9, 4), F(1, 1000))
        assert lo == hi == F(3, 2)

    def test_sqrt_brackets(self):
        lo, hi = sqrt_bounds(F(2), F(1, 10**12))
        assert lo * lo <= 2 <= hi * hi
        assert hi - lo <= F(1, 10**12)

    def test_sqrt_rejects_negative(self):
        with pytest.raises(ValueError):
            sqrt_bounds(F(-1), F(1, 10))

    @pytest.mark.parametrize("k", range(1, 7))
    def test_iroot_at_powers(self, k):
        assert iroot(0, k) == 0
        assert iroot(1, k) == 1
        for r in (2, 3, 7, 10**20 + 3, 2**130 - 1):
            assert iroot(r**k, k) == r
            assert iroot(r**k - 1, k) == r - 1

    @given(st.integers(0, 2**400), st.integers(1, 6))
    @example(10**60 + 12345, 3)
    def test_iroot_brackets(self, m, k):
        r = iroot(m, k)
        assert r >= 0 and r**k <= m < (r + 1) ** k

    @given(st.integers(0, 2**400))
    def test_iroot_is_isqrt(self, m):
        assert iroot(m, 2) == isqrt(m)

    def test_iroot_rejects_its_domain(self):
        for m, k in ((-1, 2), (4, 0)):
            with pytest.raises(ValueError):
                iroot(m, k)

    def test_cbrt_brackets(self):
        lo, hi = cbrt_bounds(F(10), F(1, 10**9))
        assert lo**3 <= 10 <= hi**3
        assert hi - lo <= F(1, 10**9)

    def test_cbrt_negative(self):
        lo, hi = cbrt_bounds(F(-8), F(1, 1000))
        assert lo == hi == -2

    @given(st.fractions(min_value=F(0), max_value=F(10**6), max_denominator=1000))
    def test_sqrt_bound_property(self, x):
        lo, hi = sqrt_bounds(x, F(1, 10**6))
        assert lo * lo <= x <= hi * hi
        assert 0 <= hi - lo <= F(1, 10**6)

    tolerances = st.fractions(min_value=F(1, 10**30), max_value=F(10),
                              max_denominator=10**30)

    @given(st.fractions(min_value=F(0), max_value=F(10**9), max_denominator=10**6),
           st.integers(2, 6), tolerances)
    def test_root_bounds_bracket(self, x, k, tol):
        lo, hi = root_bounds(x, k, tol)
        assert lo**k <= x <= hi**k
        assert 0 <= hi - lo <= tol
        if k % 2:
            assert root_bounds(-x, k, tol) == (-hi, -lo)

    @given(st.fractions(min_value=F(0), max_value=F(1000), max_denominator=1000),
           st.integers(2, 6), tolerances)
    def test_root_bounds_exact_power(self, y, k, tol):
        assert root_bounds(y**k, k, tol) == (y, y)
        if k % 2:
            assert root_bounds(-(y**k), k, tol) == (-y, -y)

    @pytest.mark.parametrize("k", range(2, 7))
    def test_root_bounds_domain(self, k):
        with pytest.raises(ValueError):
            root_bounds(F(2), k, F(0))
        with pytest.raises(ValueError):
            root_bounds(F(2), k, F(-1, 10))
        if k % 2 == 0:
            with pytest.raises(ValueError):
                root_bounds(F(-2), k, F(1, 10))
        else:
            lo, hi = root_bounds(F(-2), k, F(1, 10))
            assert lo**k <= -2 <= hi**k


class TestPi:
    def test_enclosure_width(self):
        lo, hi = pi_bounds(F(1, 10**40))
        assert hi - lo <= F(1, 10**40)

    def test_known_digits(self):
        lo, hi = pi_bounds(F(1, 10**30))
        # 3.14159265358979323846... brackets the classical value
        assert lo < F(314159265358979323847, 10**20)
        assert hi > F(314159265358979323846, 10**20)


class TestFormatting:
    def test_format_simple(self):
        assert format_decimal(F(1, 4), 3) == "0.250"
        assert format_decimal(F(-1, 3), 4) == "-0.3333"
        assert format_decimal(F(5), 0) == "5"

    def test_rounding(self):
        assert format_decimal(F(2, 3), 2) == "0.67"
        assert format_decimal(F(-1, 200), 2) == "-0.01"
        assert format_decimal(F(-1, 1000), 2) == "0.00"

    def test_directed_rounding(self):
        assert format_decimal(F(2, 3), 2, "down") == "0.66"
        assert format_decimal(F(1, 3), 2, "up") == "0.34"
        assert format_decimal(F(-2, 3), 2, "down") == "-0.67"
        assert format_decimal(F(-2, 3), 2, "up") == "-0.66"
        assert format_decimal(F(-1, 3), 0, "up") == "0"
        assert format_decimal(F(-1, 3), 0, "down") == "-1"
        assert format_decimal(F(1, 4), 2, "down") == format_decimal(F(1, 4), 2, "up") == "0.25"
        with pytest.raises(ValueError):
            format_decimal(F(1, 3), 2, "sideways")

    @given(rationals, st.integers(0, 6))
    def test_directed_rounding_brackets(self, x, digits):
        lo = F(format_decimal(x, digits, "down"))
        hi = F(format_decimal(x, digits, "up"))
        near = F(format_decimal(x, digits))
        assert lo <= x <= hi
        assert hi - lo <= F(1, 10**digits)
        assert near in (lo, hi)

    @given(rationals, st.integers(0, 12), st.integers(1, 10**6),
           st.sampled_from(["nearest", "down", "up"]))
    def test_ratio_in_any_terms(self, x, digits, k, rounding):
        # Nearest rounds half away from zero; the integer core reads an
        # unreduced ratio as its value.
        text = format_ratio(k * x.numerator, k * x.denominator, digits, rounding)
        assert text == format_decimal(x, digits, rounding)
        if rounding == "nearest":
            q = (abs(x) * 10**digits + F(1, 2)).__floor__()
            assert F(text) == (q if x >= 0 else -q) / F(10**digits)

    def test_bits_to_digits(self):
        assert bits_to_digits(128) == 38
        assert bits_to_digits(64) == 19
