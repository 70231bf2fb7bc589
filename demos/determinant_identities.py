#!/usr/bin/env python3
"""Walk through the exact determinant identities, at small sizes where the
polynomials are short enough to read.

Everything printed here is computed twice: once by exact elimination and
interpolation on the assembled matrices, once from the closed forms.  The
comparison is exact polynomial equality, never numeric.
"""

from invineq import (
    build_parity_block,
    char_poly,
    det_poly,
    det_prefactor,
    verify_boundary,
    verify_cauchy,
    verify_corollary_full,
    verify_legendre_hooks,
    verify_recurrence,
    verify_thm31,
)


def show(title):
    print()
    print(title)
    print("-" * len(title))


show("Characteristic polynomials (monic, alternating coefficients)")
for n in range(2, 9):
    print(f"  index {n}: {char_poly(n).poly}")

show("Parity-block determinants vs closed form")
for n in range(1, 5):
    block = build_parity_block(0, n)
    det = det_poly(block)
    print(f"  size {n}: det = {det}")
    print(f"          = (-1)^{n} * {det_prefactor(0, n)} * P_{2*n}")
for n in range(1, 5):
    for rep in verify_thm31(n):
        assert rep.equal
print("  exact equality holds for both parities, sizes 1..4")

show("Full pencil determinant factors through both parities")
for n in range(1, 6):
    rep = verify_corollary_full(n)
    assert rep.equal
    print(f"  n={n}: det(pencil) = {rep.lhs}")

show("Hilbert-type determinants equal the prefactor constants")
for n in range(1, 7):
    rep = verify_cauchy(0, n)
    assert rep.equal
    print(f"  n={n}: det(1/(2i+2j-1)) = {rep.lhs.coeff(0)}")

show("Legendre-basis hook matrices")
for n in range(1, 4):
    for rep in verify_legendre_hooks(n):
        assert rep.equal
print("  hook determinants match the hypergeometric closed forms, n <= 3")

show("Boundary matrices (variable mu)")
for n in range(2, 6):
    reports = verify_boundary(n)
    assert all(r.equal for r in reports)
    full = [r for r in reports if r.identity == "boundary-full"][0]
    print(f"  n={n}: det(C) = {full.lhs}")

show("Second-order recurrence across even indices")
report = verify_recurrence(30)
assert report.ok
print("  exact residual zero for indices 0..30")

print()
print("All identities verified exactly.")
