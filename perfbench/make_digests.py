"""Write perfbench/digests.json: the sha256 of each n's JSON rows, for every
n that any seed of a workload can draw.

    python3 perfbench/make_digests.py

Each workload's command runs once over its whole band, in a fresh
interpreter.  Before anything is written, every n must pass the workload's
independent check: bounds rows ok and decided, floor(n/2) figure roots,
boundary mu = n(n+3)/2 + [n odd] with ok rows, and every verify row equal.
Run it only on a commit whose output is trusted; later commits are checked
against what it wrote.
"""

from __future__ import annotations

import json
import sys

from benchlib.measure import DIGESTS, KILL_LIMIT_S, SRC, spawn
from benchlib.workloads import WORKLOADS, digest, rows_by_n


def main() -> int:
    table = {}
    for name, workload in WORKLOADS.items():
        lo, hi = workload.band
        ns = list(range(lo, hi + 1))
        rep = spawn(workload.cli_args(ns), traced=False, timeout=10 * KILL_LIMIT_S)
        groups = rows_by_n(rep.stdout) if rep.exit_code == 0 else None
        if groups is None or sorted(groups) != ns:
            print(f"{name}: exit {rep.exit_code}, rows unusable", file=sys.stderr)
            return 1
        bad = [n for n in ns if not workload.rows_ok(n, [json.loads(x) for x in groups[n]])]
        if bad:
            print(f"{name}: independent check fails for n={bad}", file=sys.stderr)
            return 1
        table[name] = {
            "command": list(workload.command),
            "band": [lo, hi],
            "digests": {str(n): digest(groups[n]) for n in ns},
        }
        print(f"{name}: {len(ns)} n-values checked in {rep.wall_s:.1f} s")
    DIGESTS.write_text(json.dumps(table, indent=1) + "\n")
    print(f"wrote {DIGESTS.relative_to(SRC.parent)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
