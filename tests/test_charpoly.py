from fractions import Fraction as F
from math import factorial

import pytest

import invineq.charpoly as charpoly
import invineq.cli as cli
from invineq.charpoly import (
    char_coeff,
    char_coeffs,
    char_poly,
    char_poly_by_summation,
    det_prefactor,
    inverse_column,
    parity_target,
    recurrence_residual,
    verify_inverse_identity,
    verify_recurrence,
)
from invineq.exact import pochhammer
from invineq.matrices import build_parity_block
from invineq.polynomial import RatPoly


class TestCharCoeff:
    def test_f1_small(self):
        assert char_coeff(1, 2) == 3
        # closed form n(n-1)(n+1)(n+2)/8
        for n in range(2, 30):
            assert char_coeff(1, n) == F(n * (n - 1) * (n + 1) * (n + 2), 8)

    def test_f0_is_one(self):
        for n in (0, 1, 5, 40):
            assert char_coeff(0, n) == 1

    def test_f2_of_4(self):
        assert char_coeff(2, 4) == 105

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            char_coeff(2, 3)
        with pytest.raises(ValueError):
            char_coeff(-1, 3)
        for n in (0, 1, 7, 40):
            with pytest.raises(ValueError):
                char_coeff(n // 2 + 1, n)
        with pytest.raises(ValueError):
            char_coeffs(-1)

    def test_recurrence_matches_closed_form(self):
        for n in range(0, 201):
            coeffs = char_coeffs(n)
            assert len(coeffs) == n // 2 + 1
            for j, f in enumerate(coeffs):
                assert f == pochhammer(n - 2 * j + 1, 4 * j) / (4**j * factorial(2 * j))
                assert char_coeff(j, n) == f


class TestCharPoly:
    def test_small_instances(self):
        assert char_poly(0).poly == RatPoly((1,))
        assert char_poly(1).poly == RatPoly((1,))
        assert char_poly(2).poly == RatPoly((-3, 1))
        assert char_poly(3).poly == RatPoly((-15, 1))
        assert char_poly(4).poly == RatPoly((105, -45, 1))
        assert char_poly(6).poly == RatPoly((-10395, 4725, -210, 1))

    def test_monic_degree(self):
        for n in range(0, 40):
            cp = char_poly(n)
            assert cp.nu == n // 2
            assert cp.poly.degree == cp.nu
            assert cp.poly.leading == 1

    def test_two_routes_agree(self):
        for n in range(0, 101):
            assert char_poly(n).poly == char_poly_by_summation(n).poly

    def test_summation_route_is_independent(self, monkeypatch):
        def forbidden(*args):
            raise AssertionError("summation route read the closed-form coefficients")

        monkeypatch.setattr(charpoly, "char_coeffs", forbidden)
        monkeypatch.setattr(charpoly, "char_coeff", forbidden)
        assert char_poly_by_summation(12).poly.degree == 6

    def test_sign_alternation(self):
        for n in range(2, 60):
            poly = char_poly(n).poly
            nu = poly.degree
            for j in range(nu + 1):
                assert (-1) ** j * poly.coeff(nu - j) > 0

    def test_integer_coefficients(self):
        for n in range(0, 50):
            assert all(c.denominator == 1 for c in char_poly(n).poly.coeffs)

    def test_trusted_build_is_canonical(self):
        # The signed integer list goes in as the primitive part unchecked;
        # the canonical constructor must give the same content and tuple.
        for n in range(0, 301):
            poly = char_poly(n).poly
            canonical = RatPoly(reversed([(-1) ** j * f for j, f in enumerate(char_coeffs(n))]))
            assert poly.content == canonical.content == 1
            assert poly.primitive == canonical.primitive
            assert hash(poly) == hash(canonical) and poly == canonical

    @pytest.mark.parametrize("broken", [
        lambda f: (F(2),) + f[1:],   # leading coefficient 2
        lambda f: f + (F(1),),       # one coefficient too many
        lambda f: f[:-1],            # one coefficient too few
    ])
    def test_not_monic_of_degree_nu_raises(self, monkeypatch, broken):
        f = char_coeffs(10)
        monkeypatch.setattr(charpoly, "char_coeffs", lambda n: broken(f))
        with pytest.raises(ArithmeticError, match="n=10"):
            char_poly.__wrapped__(10)

    @pytest.mark.parametrize("broken", [
        lambda f: f[:2] + (F(0),) + f[3:],   # f_2 = 0
        lambda f: f[:3] + (-f[3],) + f[4:],  # f_3 < 0
    ])
    def test_not_alternating_raises(self, monkeypatch, broken):
        f = char_coeffs(10)
        monkeypatch.setattr(charpoly, "char_coeffs", lambda n: broken(f))
        with pytest.raises(ArithmeticError, match="alternate at n=10"):
            char_poly.__wrapped__(10)

    def test_summation_not_monic_raises(self, monkeypatch):
        monkeypatch.setattr(charpoly, "pochhammer", lambda a, k: 2 * pochhammer(a, k))
        with pytest.raises(ArithmeticError, match="n=9"):
            char_poly_by_summation(9)


class TestCoefficientDominance:
    def test_exact_dominance(self):
        # (f1/2) f_j > f_{j+1} for 1 <= j <= nu-1
        for n in range(2, 201):
            half_f1 = char_coeff(1, n) / 2
            for j in range(1, n // 2):
                assert half_f1 * char_coeff(j, n) > char_coeff(j + 1, n)


class TestPrefactor:
    def test_values(self):
        assert det_prefactor(0, 1) == F(1, 3)
        assert det_prefactor(1, 1) == 1
        assert det_prefactor(0, 0) == 1
        assert det_prefactor(1, 0) == 1

    def test_positive(self):
        for ell in (0, 1):
            for n in range(0, 20):
                assert det_prefactor(ell, n) > 0

    def test_non_positive_raises(self, monkeypatch):
        monkeypatch.setattr(charpoly, "pochhammer", lambda a, k: -pochhammer(a, k))
        with pytest.raises(ArithmeticError, match="ell=0, n=3"):
            det_prefactor.__wrapped__(0, 3)


class TestInverseLastColumn:
    def test_frozen_small_values(self):
        assert inverse_column(0, 1) == (RatPoly((-3,)),)
        assert inverse_column(1, 1) == (RatPoly((-1,)),)
        assert inverse_column(0, 2) == (
            RatPoly((F(-525, 4), F(105, 4))),
            RatPoly((F(525, 4), F(-175, 4))),
        )
        assert inverse_column(1, 2) == (
            RatPoly((0, F(15, 4))),
            RatPoly((0, F(-45, 4))),
        )

    def test_entry_degrees(self):
        for ell in (0, 1):
            for n in (1, 3, 5):
                col = inverse_column(ell, n)
                assert len(col) == n
                assert all(e.degree <= n - 1 for e in col)


def two_branch_inverse_column(ell: int, n: int) -> tuple[RatPoly, ...]:
    """The inverse column with one written-out formula per parity, through
    pochhammer: a reference for the single parity-parameter formula."""
    entries = []
    for j in range(1, n + 1):
        if ell == 0:
            prefactor = (
                F(2) ** (2 * n + 2 * j - 3)
                * pochhammer(F(3, 2), 2 * n - 1)
                * pochhammer(F(2 * n + 1, 2), j - 1)
                / (factorial(n - 1) * factorial(2 * j - 1))
            )
        else:
            prefactor = (
                F(4) ** (j - n)
                * factorial(4 * n - 3)
                * pochhammer(F(2 * n - 1, 2), j - 1)
                / (factorial(2 * n - 2) * factorial(n - 1) * factorial(2 * j - 2))
            )
        coeffs = [F(0)] * n
        for m in range(n):
            total = F(0)
            for k in range(2 * n - 2 * m - 1):
                arg = 2 * m + k - n - j + 2
                if arg < 0:
                    continue
                rising = pochhammer(2 * m + 1 if ell == 0 else 2 * m, 2 * k)
                if rising == 0:
                    continue
                total += (
                    F((-1) ** (j + m))
                    * rising
                    / (F(4) ** (m + k) * factorial(k) * factorial(arg))
                )
            coeffs[m] = total
        entries.append(prefactor * RatPoly(coeffs))
    return tuple(entries)


@pytest.mark.parametrize("ell", [0, 1])
@pytest.mark.parametrize("n", [*range(1, 13), 16, 20, 24])
def test_inverse_column_matches_the_two_branch_form(ell, n):
    assert inverse_column(ell, n) == two_branch_inverse_column(ell, n)


class TestInverseIdentity:
    def test_tiny_cases(self):
        assert verify_inverse_identity(0, 1).ok
        assert verify_inverse_identity(1, 1).ok

    @pytest.mark.parametrize("ell", [0, 1])
    @pytest.mark.parametrize("n", range(1, 7))
    def test_small_range(self, ell, n):
        report = verify_inverse_identity(ell, n)
        assert report.ok, report.failures

    def test_healthy_case_has_no_failures(self):
        assert verify_inverse_identity(0, 3).failures == ()

    @pytest.mark.parametrize("ell", [0, 1])
    @pytest.mark.parametrize("n", [2, 3, 5])
    @pytest.mark.parametrize("perturb", [
        # one entry off by a constant: every row fails
        lambda col: (col[0] + F(1, 3), *col[1:]),
        # the whole column times 1 - 2x/7: only the last row fails
        lambda col: tuple(RatPoly((1, F(-2, 7))) * entry for entry in col),
    ])
    def test_failure_reports_row_and_residual(self, monkeypatch, ell, n, perturb):
        column = perturb(inverse_column(ell, n))
        monkeypatch.setattr(charpoly, "inverse_column", lambda e, m: column)
        expected = block_times_column_failures(ell, n, column)
        assert expected
        report = verify_inverse_identity(ell, n)
        assert report.failures == expected
        assert not report.ok
        row = cli._lemma32_rows(n)[ell]
        assert row["identity"] == f"lemma32-parity{ell}" and row["equal"] is False
        assert row["failures"] == [
            {"row": idx, "residual": res} for idx, res in expected
        ]


def block_times_column_failures(ell, n, column):
    """(row, residual) of every row where the parity block times the column
    misses (0, ..., 0, parity_target): RatPoly products, one per entry."""
    block = build_parity_block(ell, n)
    target = parity_target(ell, n)
    failures = []
    for i in range(n):
        acc = RatPoly()
        for j in range(n):
            acc = acc + block[i, j] * column[j]
        residual = acc - (target if i == n - 1 else RatPoly())
        if not residual.is_zero():
            failures.append((i + 1, residual))
    return tuple(failures)


class TestRecurrence:
    def test_n0_expansion(self):
        # 3*P4 + 5*(21-2x)*P2 + 7*x^2*P0 == 0
        p0, p2, p4 = (char_poly(k).poly for k in (0, 2, 4))
        lhs = 3 * p4 + 5 * (RatPoly((21, -2)) * p2) + 7 * p0.shift_up(2)
        assert lhs.is_zero()
        assert recurrence_residual(0).is_zero()

    def test_n1(self):
        assert recurrence_residual(1).is_zero()

    def test_range(self):
        assert verify_recurrence(50).ok
