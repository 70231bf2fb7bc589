"""Canonical JSON guards, run through the CLI with --jobs 1 --format json.

The rows for every benchmark workload band hash to the per-n sha256 digests
committed in perfbench/digests.json (the sha256 of that n's JSON lines
joined with newlines; the file is only read).  The ROADMAP gate ranges,
which reach past the benchmark bands, hash to the sha256 of the whole
stdout recorded below.
"""

import hashlib
import json
from pathlib import Path

import pytest

from invineq.cli import main

DIGESTS = json.loads(
    (Path(__file__).resolve().parents[1] / "perfbench" / "digests.json").read_text()
)


@pytest.mark.parametrize("workload", sorted(DIGESTS))
def test_rows_match_committed_digests(workload, capsys):
    entry = DIGESTS[workload]
    lo, hi = entry["band"]
    code = main([*entry["command"], "--range", f"{lo}..{hi}",
                 "--jobs", "1", "--format", "json"])
    assert code == 0
    rows_by_n: dict[int, list[bytes]] = {}
    for line in capsys.readouterr().out.splitlines():
        rows_by_n.setdefault(json.loads(line)["n"], []).append(line.encode())
    assert sorted(rows_by_n) == list(range(lo, hi + 1))
    got = {str(n): hashlib.sha256(b"\n".join(lines)).hexdigest()
           for n, lines in rows_by_n.items()}
    mismatched = sorted((n for n in got if got[n] != entry["digests"][n]), key=int)
    assert not mismatched, f"{workload}: rows differ from the digests at n={mismatched}"


GATE_RANGES = {
    "figure --tol 1e-12 --range 2..100":
        "3fe82da9585c0fa73a8aa881a1153b431979e2f30b189f7931c0e08f786a6b35",
    # Recorded with every n on the Sturm route (isolate_all).
    "figure --tol 1e-12 --range 2..150":
        "4450f16eae4b29e56fab51674ccd287b47e806513fb64da4672423848cb95764",
    "bounds --range 2..200":
        "70ef3343ee2d6ece229ef88d29f76649017b05332b012d7ed69a88b4025f6f3f",
    # Recorded with the lower-bound sign from Horner on Fractions in
    # Q[sqrt(v)].  It pins the certificates past 2..200, where the Z[sqrt(r)]
    # integers of the lower-bound sign are largest.
    "bounds --range 300..320":
        "2173498c1fb6968cc5adddb241574e703254dc03861b734b14c99e3f6a8816b8",
    # At tol 1 the bounds need ensure_disjoint's refinement (n = 8..11, 13).
    "bounds --tol 1 --range 2..60":
        "57d08d9e77d1c11af7040d2152e9fb3c95837524950645c2ce4df725193e9a9c",
    "verify all --range 0..14":
        "eabf543446934f90e38f8f305d6224678b3a005aaabba815710bc41a98bc1eb5",
    "boundary --range 1..26":
        "e035a1251a1f77f600da891acda51af232a4831ec94dab78d987a4be4bf62e80",
    # Recorded with the smallest roots on the Sturm route (smallest_root).
    "asymptotics --range 2..80":
        "02263a849886cfe9e847536af73a2227f546951f0accbbe5f9c07e28c44c4caf",
    # At tol >= f1 the upper bound is the cell (0, f1] (or (f1/2, f1]) that
    # isolates the cubic's largest root, and ensure_disjoint refines it
    # from there: 65 refinements of the cubic over the range.
    "bounds --tol 1000000 --range 2..40":
        "808662277829e4b35c4df59be12b70af4a66ac70eac8189eaf67983953702f7c",
    # Recorded with the Fraction inner sums and the RatPoly block-times-
    # column loop.  n = 1..30 reaches twice the verify-all band, where the
    # inverse column's terms run to about 600 bits, at under a second.
    "verify lemma32 --range 1..30":
        "23b9ce48ef7aa4f6b7d811b638dc245dfbccac61ebfb01310fb147f12632b8c8",
    # Recorded with the boundary and hook determinants on the Bareiss route
    # (det_poly).  They pin the printed lhs coefficients past `verify all`'s
    # 0..14; the `boundary` command prints only mu and booleans.
    "verify boundary --range 15..50":
        "cc4349aeeb5781953f761a679dedfc77132cd98b08a2dfb0ee8ab0e0d192bd74",
    "verify legendre --range 15..30":
        "51c8df9a05d91dc98846aa785bb0f87c5455e595725493151614c0a8e94ecb8a",
    # Recorded with the corollary's lhs from det_poly on the full pencil and
    # with dim² fresh Fractions in the boundary and hook builders.  They pin
    # those routes past the gates above, at under a second each.
    "verify corollary --range 15..24":
        "b8b7beb5feadcaf9e119af9d897a7f1a21a5fd2ff68aaa17bf0b1a5f9996895c",
    "verify legendre --range 31..60":
        "282e09c79aa5e342329eb66e31640975bec3605a1743e35981f544ea649deba0",
    "boundary --range 27..50":
        "996445517cc4de9c06c3b0971815f37637a81e77ae2ad74afc05d5fea8149b94",
    # Recorded with the hook builders' per-entry formulas and the row-by-row
    # hook check in det_hook_pencil.  They pin the printed hook and boundary
    # determinants past the gates above, where building and checking the
    # pencils run longest.
    "verify legendre --range 61..100":
        "f138894becb6559cb77c8500ee37a4e15d75ea2ce29718d68fd80b72743ab07c",
    "verify boundary --range 51..80":
        "15db57a7ed9cfc697a7b643e7c96c4b3fe8fa6f8fa6dd72a3f51564f41c584c7",
    # Recorded with the parity-block determinants from det_poly (dim + 1
    # Bareiss eliminations).  They pin the printed thm31 and corollary lhs
    # past `verify all`'s 0..14 and the corollary gate above.
    "verify thm31 --range 20..30":
        "0c859721419d989ebd9f5eedbb9163c95ce968a86bf5dd1ed3e75a5ab200410e",
    "verify corollary --range 25..40":
        "b038729dfce0aeccd4a418dae05b217d477f924a2a05eb0d599435f351d63ed4",
    # Recorded with the root table of every n without the table of n - 1 on
    # the Sturm route (isolate_all): a lone n, the n after each gap of a
    # list, and the first n of each asymptotics index.
    "figure --tol 1e-12 --range 120":
        "ed0017177ac01ed99538da660100665ea178815bcfa784524e48c71c1b40d1d3",
    "figure --tol 1e-12 --range 2,4,5,17,30,31,43":
        "da50bfb1a628d12bdeebf806889dd16854d9cd7c3aef8d0951e5746c0be0798e",
    "asymptotics --range 120..125":
        "f0f10b6f0ba46f424b6e3332f4c08b4a05e60a692accbeb71e6e9ef6bcb1a6a1",
    # Recorded with every matrix entry a Fraction, cleared to integer rows
    # again by det_rational and det_parity_block.  They pin the Cauchy
    # determinants past `verify all`'s 0..14 and the thm31 lhs past 20..30.
    "verify cauchy --range 15..25":
        "a0196abc145b43cae623bc4e602eaf558ef71508f53a756ac3a7281a0523efc5",
    "verify thm31 --range 31..36":
        "6c1b4363210f4b403f8fbadb27969d19b21cfd98c9078c5c8778d178decda54d",
    # Recorded with each root table a tuple of reduced-Fraction enclosures,
    # printed through Enclosure.mid.  190..200 pins the largest tables of the
    # root-refinement kernel; at tol 100 the tables from n = 6 on come from
    # the Sturm fallback, and each becomes the next n's separators.
    "figure --tol 1e-12 --range 190..200":
        "b57a26fcc2981612517018bfdc31fcc59a9489c6f5da55fcb66bc5cb7f0b7448",
    "figure --tol 100 --range 2..40":
        "2c277bc49098457d31e87d48c267b14e697bd78f3f6a1e8e4b7ef560e640b18e",
    # Recorded with each worker row numbered by its position in its table.
    # A repeated n prints its roots in order, each twice (r0, r0, r1, r1),
    # at a --bits other than the default.
    "figure --tol 1e-9 --bits 256 --range 7,3,7,4,5":
        "be94f115cd70c65b3db7c36693d36650faf1019fbaa9b9a60b854aa4698cef20",
    # Recorded with each smallest root read off all floor(n/2) cells refined
    # to 1e-9, and with lemma32's block times inverse column as RatPoly
    # products.  They pin the rows that a change of either route must keep.
    "asymptotics --range 2..150":
        "1cbfbab3945d37e5056554096e20bdede607ed5078ffb060e16e4e4af9e3d804",
    "verify lemma32 --range 40..48":
        "687ca89b3ecb8970786e0c8fbcdafe2adf24670ec6f8168c0244117075fc6b41",
}


@pytest.mark.parametrize("command", sorted(GATE_RANGES))
def test_gate_range_stdout_matches_recorded_digest(command, capsys):
    assert main([*command.split(), "--jobs", "1", "--format", "json"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == GATE_RANGES[command]
