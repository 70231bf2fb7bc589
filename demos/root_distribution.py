#!/usr/bin/env python3
"""Reproduce the root-distribution data: every root of every characteristic
polynomial for 2 <= n <= 50, with certified enclosures, written as CSV.

The picture the data paints: for each parity the k-th smallest roots pin
themselves to fixed limits ((k - 1/2)^2 pi^2 and k^2 pi^2), while the
largest root races off like n^4 / pi^2.
"""

import sys
from fractions import Fraction

from invineq import all_roots
from invineq.exact import format_decimal

OUT = sys.argv[1] if len(sys.argv) > 1 else "root_distribution.csv"

rows = []
for n in range(2, 51):
    roots = all_roots(n, Fraction(1, 10**12))
    assert len(roots) == n // 2
    for enc in roots:
        rows.append((n, enc.mid, n % 2))

with open(OUT, "w") as handle:
    handle.write("n,root,parity\n")
    for n, root, parity in rows:
        handle.write(f"{n},{format_decimal(root, 15)},{parity}\n")

print(f"wrote {len(rows)} root records to {OUT}")

# A quick textual impression of the clustering for even indices.
print("\nsmallest three roots of the even-index polynomials:")
print(f"{'n':>4} {'root 1':>12} {'root 2':>12} {'root 3':>12}")
for n in (10, 20, 30, 40, 50):
    roots = all_roots(n)
    vals = [f"{float(r.mid):>12.6f}" for r in roots[:3]]
    print(f"{n:>4} " + " ".join(vals))
print("\nlimits:      2.467401     22.206610     61.685028  "
      "((k-1/2)^2 pi^2 for k = 1, 2, 3)")
