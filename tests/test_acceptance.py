"""Acceptance suite: every exit criterion, run at its stated range and
tolerance, one printed PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.
"""

import random
import time
from fractions import Fraction as F

import pytest

from invineq.charpoly import char_coeff, char_poly, verify_inverse_identity, verify_recurrence
from invineq.determinants import (
    det_poly,
    verify_boundary,
    verify_cauchy,
    verify_corollary_full,
    verify_kron_factorization,
    verify_legendre_hooks,
    verify_thm31,
)
from invineq.exact import pi_bounds
from invineq.matrices import build_mass, build_mass_1d, build_pencil, build_stiffness, build_stiffness_1d, kronecker
from invineq.roots import largest_root, root_offset_bounds
from invineq.spectra import (
    boundary_factor_roots,
    float_eigen_crosscheck,
    max_boundary_eigenvalue,
    smallest_root_of_index,
)

TOL12 = F(1, 10**12)


def report(number: int, ok: bool, started: float, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    elapsed = time.perf_counter() - started
    suffix = f" ({detail})" if detail else ""
    print(f"criterion {number:2d}: {status} in {elapsed:6.1f}s{suffix}")


def test_c01_parity_block_determinants():
    t0 = time.perf_counter()
    ok = True
    for n in range(0, 13):
        for rep in verify_thm31(n):
            ok = ok and rep.equal
    report(1, ok, t0, "parity dets, n <= 12, exact")
    assert ok


def test_c02_full_pencil_determinant():
    t0 = time.perf_counter()
    ok = all(verify_corollary_full(n).equal for n in range(1, 11))
    report(2, ok, t0, "pencil det, n <= 10, exact")
    assert ok


def test_c03_inverse_column_identities():
    t0 = time.perf_counter()
    ok = True
    for n in range(1, 11):
        for ell in (0, 1):
            ok = ok and verify_inverse_identity(ell, n).ok
    report(3, ok, t0, "inverse columns, both parities, n <= 10")
    assert ok


def test_c04_cauchy_determinants():
    t0 = time.perf_counter()
    ok = all(
        verify_cauchy(ell, n).equal for ell in (0, 1) for n in range(0, 13)
    )
    report(4, ok, t0, "Hilbert-type dets, n <= 12")
    assert ok


def test_c05_recurrence():
    t0 = time.perf_counter()
    ok = verify_recurrence(100).ok
    report(5, ok, t0, "second-order recurrence, n <= 100, exact")
    assert ok


def test_c06_kronecker_structure():
    t0 = time.perf_counter()
    rng = random.Random(1605)
    ok = True
    for n in range(1, 7):
        a = build_mass_1d(n)
        b = build_stiffness_1d(n)
        ok = ok and kronecker(a, a) == build_mass(n)
        ok = ok and kronecker(a, b) == build_stiffness(n)
        for _ in range(3):
            sample = F(rng.randint(-50, 50), rng.randint(1, 11))
            ok = ok and verify_kron_factorization(n, sample)
    report(6, ok, t0, "tensor factorization + det split, n <= 6")
    assert ok


def test_c07_legendre_hooks():
    t0 = time.perf_counter()
    ok = all(rep.equal for n in range(0, 11) for rep in verify_legendre_hooks(n))
    report(7, ok, t0, "hook dets, n <= 10")
    assert ok


def test_c08_bound_sandwich(bound_reports_full_range):
    t0 = time.perf_counter()
    ok = True
    for n, rep in bound_reports_full_range.items():
        fl = rep.orderings
        ok = ok and fl.all_hold and fl.decided
        ok = ok and fl.m_strict == (n >= 6)
        ok = ok and fl.f1_strict == (n >= 4)
        ok = ok and fl.upper_strict == (n >= 8)
        if n <= 7:
            # equality case: both enclosures at width <= 1e-12 and overlapping
            ok = ok and fl.upper_equal
            ok = ok and rep.lam.width <= TOL12
            ok = ok and rep.upper_enclosure.width <= TOL12
            ok = ok and rep.lam.overlaps(rep.upper_enclosure)
    report(8, ok, t0, "m <= lambda <= f1, lambda <= M with strictness, n <= 200")
    assert ok


def test_c09_monotonicity(bound_reports_full_range):
    t0 = time.perf_counter()
    ok = True
    undecided = 0
    items = sorted(bound_reports_full_range)
    for a, b in zip(items, items[1:]):
        ea, eb = bound_reports_full_range[a].lam, bound_reports_full_range[b].lam
        if not ea.hi < eb.lo:
            undecided += 1
    ok = undecided == 0
    report(9, ok, t0, "lambda strictly increasing via disjoint enclosures")
    assert ok


def test_c10_window(bound_reports_full_range):
    t0 = time.perf_counter()
    ok = True
    for n, rep in bound_reports_full_range.items():
        f1 = rep.f1
        # f1/2 <= lambda: the lower-bound surd exceeds f1/2 and is certified
        # below the maximal root; upper edge is part of the sandwich.
        ok = ok and rep.m.compare(f1 / 2) > 0 and rep.orderings.m_le_lambda
        ok = ok and rep.orderings.lambda_le_f1
    report(10, ok, t0, "f1/2 <= lambda <= f1 for 2 <= n <= 200")
    assert ok


def test_c11_limit_diagnostics(bound_reports_full_range):
    t0 = time.perf_counter()
    window_lo, window_hi = F(789, 1000), F(811, 1000)
    in_window = True
    worst = None
    for n in range(40, 201):
        lam = bound_reports_full_range[n].lam
        ratio_lo = lam.lo / bound_reports_full_range[n].f1
        ratio_hi = lam.hi / bound_reports_full_range[n].f1
        if not (window_lo < ratio_lo and ratio_hi < window_hi):
            in_window = False
            if worst is None:
                worst = (n, float(ratio_lo))

    pi_lo, pi_hi = pi_bounds(F(1, 10**40))
    inv_pi_sq_lo, inv_pi_sq_hi = 1 / (pi_hi * pi_hi), 1 / (pi_lo * pi_lo)

    def fourth_power_gap(n: int) -> tuple[F, F]:
        lam = bound_reports_full_range[n].lam
        lo = lam.lo / n**4 - inv_pi_sq_hi
        hi = lam.hi / n**4 - inv_pi_sq_lo
        return min(abs(lo), abs(hi)) if lo * hi > 0 else F(0), max(abs(lo), abs(hi))

    gaps = [fourth_power_gap(n) for n in (50, 100, 200)]
    # strict decrease certified interval-wise: each upper bound below the
    # previous lower bound
    decreasing = gaps[1][1] < gaps[0][0] and gaps[2][1] < gaps[1][0]

    # The smallest roots converge superexponentially (the k = 50 distances
    # are ~1e-336 and ~1e-279), so the distances are certified through
    # mean-value offset bounds at a very tight rational target rather than
    # deep bisection.
    tiny_lo, tiny_hi = pi_bounds(F(1, 10**450))
    quarter = (tiny_lo * tiny_lo / 4, tiny_hi * tiny_hi / 4)
    square = (tiny_lo * tiny_lo, tiny_hi * tiny_hi)

    def distances(index_seq, target):
        target_lo, target_hi = target
        t_mid = (target_lo + target_hi) / 2
        half = (target_hi - target_lo) / 2
        out = []
        for idx in index_seq:
            poly = char_poly(idx).poly
            enc = smallest_root_of_index(idx)
            off_lo, off_hi = root_offset_bounds(poly, enc, t_mid)
            mag_hi = max(abs(off_lo), abs(off_hi))
            mag_lo = F(0) if off_lo <= 0 <= off_hi else min(abs(off_lo), abs(off_hi))
            out.append((max(F(0), mag_lo - half), mag_hi + half))
        return out

    even = distances((10, 20, 50, 100), quarter)
    odd = distances((11, 21, 51, 101), square)
    approaching = all(b[1] < a[0] for a, b in zip(even, even[1:])) and all(
        b[1] < a[0] for a, b in zip(odd, odd[1:])
    )

    ok = in_window and decreasing and approaching
    detail = "window+limit diagnostics"
    if not in_window and worst is not None:
        detail = (
            f"lambda/f1 = {worst[1]:.6f} at n = {worst[0]} lies outside "
            f"(0.789, 0.811); the ratio approaches 8/pi^2 ~ 0.81057 from "
            f"above and stays above 0.811 until n = 83"
        )
    report(11, ok, t0, detail)
    assert in_window, detail
    assert decreasing
    assert approaching


def test_c11_ratio_crosses_0811_between_82_and_83(bound_reports_full_range):
    # Certifies the crossing index that the c11 failure message states: the
    # enclosure of lambda_n / f1(n) lies wholly above 0.811 for n <= 82 and
    # wholly below it from n = 83 on.
    cut = F(811, 1000)
    for n in range(40, 201):
        report_n = bound_reports_full_range[n]
        if n <= 82:
            assert report_n.lam.lo / report_n.f1 > cut, n
        else:
            assert report_n.lam.hi / report_n.f1 < cut, n


def test_c12_boundary_identities():
    t0 = time.perf_counter()
    ok = True
    for n in range(0, 31):
        for rep in verify_boundary(n):
            ok = ok and rep.equal
    # The mu cross-check reads the largest root off the verified
    # factorization, so the identity is verified over its full range too.
    for n in range(31, 51):
        for rep in verify_boundary(n):
            ok = ok and rep.equal
    for n in range(1, 51):
        ok = ok and max_boundary_eigenvalue(n) == max(boundary_factor_roots(n))
    report(12, ok, t0, "boundary dets n <= 50, mu closed form n <= 50")
    assert ok


def test_c13_float_crosscheck():
    t0 = time.perf_counter()
    checks = [(2, 1e-8), (3, 1e-6), (4, 1e-4)]
    reports = [float_eigen_crosscheck(n, tol) for n, tol in checks]
    ok = all(r.ok and not r.inconclusive for r in reports)
    detail = ", ".join(f"n={r.n}: |d|={r.difference:.2e}" for r in reports)
    report(13, ok, t0, detail)
    assert ok


def test_c14_figure_reproduction(bound_reports_full_range, tmp_path):
    t0 = time.perf_counter()
    from invineq.cli import main

    out_path = tmp_path / "roots.csv"
    code = main(["figure", "--range", "2..50", "--tol", "1e-12",
                 "--out", str(out_path)])
    lines = out_path.read_text().strip().splitlines()
    header, rows = lines[0], lines[1:]
    ok = code == 0 and header == "n,root,parity"
    ok = ok and len(rows) == 625
    lam50_hi = bound_reports_full_range[50].lam.hi
    parsed = [(int(a), F(b), int(c)) for a, b, c in (r.split(",") for r in rows)]
    ok = ok and all(2 < root <= lam50_hi for _, root, _ in parsed)
    ok = ok and all(parity == n % 2 for n, _, parity in parsed)
    ok = ok and all(root > 0 for _, root, _ in parsed)
    report(14, ok, t0, f"{len(rows)} root records over 2..50")
    assert ok


def test_maximal_root_consistency(bound_reports_full_range):
    """Cross-route check: the largest root of the full pencil determinant,
    isolated independently, lies in the maximal-root enclosure."""
    t0 = time.perf_counter()
    ok = True
    for n in range(2, 13):
        det = det_poly(build_pencil(n))
        f1 = char_coeff(1, n)
        pencil_root = largest_root(det, F(0), f1, TOL12)
        ok = ok and pencil_root.overlaps(bound_reports_full_range[n].lam)
    report(0, ok, t0, "pencil-det largest root consistent with enclosures")
    assert ok
