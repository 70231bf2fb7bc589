"""The four CLI workloads, the n-set each seed draws, and the correctness
gate on the CLI's JSON rows."""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable


def _bounds_ok(n: int, rows: list[dict]) -> bool:
    return (len(rows) == 1 and rows[0]["ok"] is True
            and rows[0]["orderings"]["decided"] is True)


def _figure_ok(n: int, rows: list[dict]) -> bool:
    return len(rows) == n // 2 and all(row["parity"] == n % 2 for row in rows)


def _boundary_ok(n: int, rows: list[dict]) -> bool:
    mu = Fraction(n * (n + 3), 2) + n % 2
    return len(rows) == 1 and rows[0]["ok"] is True and Fraction(rows[0]["mu"]) == mu


def _verify_ok(n: int, rows: list[dict]) -> bool:
    return bool(rows) and all(row["equal"] is True for row in rows)


@dataclass(frozen=True)
class Workload:
    name: str
    command: tuple[str, ...]
    lo: int
    hi: int
    why: str
    rows_ok: Callable[[int, list[dict]], bool]  # independent check of one n

    @property
    def band(self) -> tuple[int, int]:
        """The n-values other seeds draw from: the canonical range widened
        upward by a tenth of its size, and by at least 2."""
        return self.lo, self.hi + max(2, (self.hi - self.lo + 1) // 10)

    def nset(self, seed: int) -> list[int]:
        """Seed 0 gives the canonical range.  Another seed draws as many
        values from the band, one from each of as many equal strata, so the
        set's cost stays close to that of every other seed's set."""
        if seed == 0:
            return list(range(self.lo, self.hi + 1))
        size = self.hi - self.lo + 1
        width = self.band[1] - self.lo + 1
        rng = random.Random(f"{self.name}:{seed}")
        picks = []
        for i in range(size):
            first = -(-i * width // size)
            last = -(-(i + 1) * width // size) - 1
            picks.append(self.lo + rng.randint(first, last))
        return picks

    def cli_args(self, ns: list[int]) -> list[str]:
        if ns == list(range(self.lo, self.hi + 1)):
            span = f"{self.lo}..{self.hi}"
        else:
            span = ",".join(map(str, ns))
        return [*self.command, "--range", span, "--jobs", "1", "--format", "json"]


WORKLOADS = {
    w.name: w for w in (
        Workload(
            "bounds-sweep", ("bounds", "--tol", "1e-12"), 2, 66,
            "bounds --tol 1e-12 over n=2..66: ~70% in exact.pochhammer via "
            "charpoly.char_coeff, ~16% in roots; where an integer-scalar change shows",
            _bounds_ok),
        Workload(
            "figure-roots", ("figure", "--tol", "1e-12"), 2, 50,
            "figure --tol 1e-12 over n=2..50: ~88% in roots (sign_at under refine, "
            "Sturm chains, count_roots); many roots, shallow refinement",
            _figure_ok),
        Workload(
            "boundary-dets", ("boundary",), 1, 16,
            "boundary over n=1..16: ~99% in polynomial, matrices and determinants "
            "(Horner in eval_at, Bareiss); no roots, ~0 pochhammer: the bypass workload",
            _boundary_ok),
        Workload(
            "verify-identities", ("verify", "all"), 0, 10,
            "verify all over n=0..10: dense-B full pencil, parity blocks, inverse_column, "
            "polynomial products, 36x36 Kronecker Bareiss; exact+charpoly ~30%",
            _verify_ok),
    )
}


def digest(lines: list[bytes]) -> str:
    return hashlib.sha256(b"\n".join(lines)).hexdigest()


def rows_by_n(stdout: bytes) -> dict[int, list[bytes]] | None:
    """The CLI's JSON lines grouped by n, in output order; None when the
    output is not one JSON object with an integer n per line."""
    groups: dict[int, list[bytes]] = {}
    for line in stdout.splitlines():
        try:
            n = json.loads(line)["n"]
        except (ValueError, KeyError, TypeError):
            return None
        if not isinstance(n, int):
            return None
        groups.setdefault(n, []).append(line)
    return groups


def failed_ns(workload: Workload, ns: list[int], stdout: bytes,
              digests: dict[str, str]) -> set[int]:
    """The n-values whose rows differ from the committed digests or fail
    the independent check.  Output that cannot be split by n, or that holds
    an n that was not asked for, fails every n."""
    groups = rows_by_n(stdout)
    if groups is None or set(groups) - set(ns):
        return set(ns)
    failed = set()
    for n in ns:
        lines = groups.get(n, [])
        if digest(lines) != digests.get(str(n)) or not workload.rows_ok(
                n, [json.loads(line) for line in lines]):
            failed.add(n)
    return failed
