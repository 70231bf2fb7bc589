"""Canonical JSON guard: the CLI's rows for every benchmark workload band
hash to the per-n sha256 digests committed in perfbench/digests.json.

Each digest is the sha256 of that n's JSON lines joined with newlines, as
the CLI prints them with --jobs 1 --format json.  The file is only read.
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
