import random
from fractions import Fraction as F

import pytest

from invineq.charpoly import det_prefactor
from invineq.determinants import (
    IDENTITY_IDS,
    cauchy_matrix,
    det_poly,
    det_rational,
    verify_boundary,
    verify_cauchy,
    verify_corollary_full,
    verify_kron_factorization,
    verify_legendre_hooks,
    verify_thm31,
)
from invineq.matrices import PolyMatrix, RatMatrix, build_parity_block, build_pencil
from invineq.polynomial import RatPoly


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
                assert d.leading == (-1) ** n * det_prefactor(ell, n).value


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
        rep = verify_thm31(1)[0]
        d = rep.to_json_dict()
        assert d == {
            "n": 1,
            "identity": "thm31-parity0",
            "lhs": ["1", "-1/3"],
            "rhs": ["1", "-1/3"],
            "equal": True,
        }


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
        assert produced == set(IDENTITY_IDS)


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
