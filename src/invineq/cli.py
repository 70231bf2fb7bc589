"""Command-line front end.

Commands: verify, bounds, figure, asymptotics, boundary.  Every command maps
a per-n worker over the range; a worker returns rows of exact values
(`figure`'s, each root's integer cell, whose midpoint the parent renders).  With
--jobs J > 1, one pool of at most J processes, and no more than runs, sweeps
runs of consecutive n, one per task.  JSON is the canonical output: `_exact`
renders each Fraction of a row as "p/q", each RatPoly as its coefficients.
CSV and text are lossy projections of the rows, rendered at the configured
precision, with enclosure endpoints rounded outwards (lower ends down, upper
ends up) and enclosure midpoints cut to the decimals their width supports.
Exit codes: 0 success, 1 identity/ordering failure, 2 usage error (including
an --out path that cannot be written, found before any work), 3 undecided at
precision, 4 internal error (one "error: internal: ..." line on stderr).

Importing this module loads only the core that every command uses (exact
scalars and polynomials).  `main` imports the library layers its command
adds (COMMANDS) before its command-line parser (`cmdline`) and json, and
every worker and row builder imports the names it calls itself, so that a
direct call or a process-pool worker needs no `main`.
"""

from __future__ import annotations

import os
import sys
from fractions import Fraction
from functools import partial
from importlib import import_module
from math import gcd, inf
from typing import TYPE_CHECKING, Callable, Iterable, Sequence

from .exact import bits_to_digits, format_decimal, format_ratio
from .polynomial import RatPoly

if TYPE_CHECKING:
    import json
    from types import SimpleNamespace

    from .determinants import DetReport

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_USAGE = 2
EXIT_UNDECIDED = 3
EXIT_INTERNAL = 4

KRON_SAMPLES = (Fraction(0), Fraction(1), Fraction(7, 2))


class UsageError(Exception):
    pass


def parse_range(text: str) -> list[int]:
    """Parse 'A..B' (inclusive) or a comma-separated list of integers."""
    try:
        if ".." in text:
            a_str, b_str = text.split("..", 1)
            a, b = int(a_str), int(b_str)
            if a > b:
                raise UsageError(f"empty range {text!r}")
            return list(range(a, b + 1))
        values = [int(part) for part in text.split(",") if part.strip()]
    except ValueError as exc:
        raise UsageError(f"malformed range {text!r}") from exc
    if not values:
        raise UsageError(f"empty range {text!r}")
    return values


def parse_tolerance(text: str) -> Fraction:
    try:
        if "/" in text:
            num, den = text.split("/", 1)
            tol = Fraction(int(num), int(den))
        else:
            tol = Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"malformed tolerance {text!r}") from exc
    if tol <= 0:
        raise UsageError("tolerance must be positive")
    return tol


# -- verify ------------------------------------------------------------------


def _report_rows(reports: Iterable[DetReport]) -> list[dict]:
    return [{"n": rep.n, "identity": rep.identity, "lhs": rep.lhs, "rhs": rep.rhs,
             "equal": rep.equal} for rep in reports]


def _lemma32_rows(n: int) -> list[dict]:
    from .charpoly import verify_inverse_identity

    rows = []
    for ell in (0, 1):
        report = verify_inverse_identity(ell, n)
        rows.append({
            "n": n,
            "identity": f"lemma32-parity{ell}",
            "equal": report.ok,
            "failures": [
                {"row": idx, "residual": res}
                for idx, res in report.failures
            ],
        })
    return rows


def _kron_rows(n: int) -> list[dict]:
    from .determinants import verify_kron_factorization

    return [{
        "n": n,
        "identity": "kron",
        "sample": sample,
        "equal": verify_kron_factorization(n, sample),
    } for sample in KRON_SAMPLES]


def _recurrence_rows(n: int) -> list[dict]:
    from .charpoly import recurrence_residual
    from .determinants import DetReport

    return _report_rows([DetReport(n, "recurrence", recurrence_residual(n), RatPoly())])


def _charpoly_rows(n: int) -> list[dict]:
    from .charpoly import char_poly, char_poly_by_summation

    # Dump the exact coefficients while checking the two independent
    # construction routes agree.
    direct = char_poly(n).poly
    return [{
        "n": n,
        "identity": "charpoly",
        "coeffs": direct,
        "equal": direct == char_poly_by_summation(n).poly,
    }]


def _thm31_rows(n: int) -> list[dict]:
    from .determinants import verify_thm31

    return _report_rows(verify_thm31(n))


def _corollary_rows(n: int) -> list[dict]:
    from .determinants import verify_corollary_full

    return _report_rows([verify_corollary_full(n)])


def _cauchy_rows(n: int) -> list[dict]:
    from .determinants import verify_cauchy

    return _report_rows([verify_cauchy(0, n), verify_cauchy(1, n)])


def _legendre_rows(n: int) -> list[dict]:
    from .determinants import verify_legendre_hooks

    return _report_rows(verify_legendre_hooks(n))


def _boundary_rows(n: int) -> list[dict]:
    from .determinants import verify_boundary

    return _report_rows(verify_boundary(n))


# Lowest n, highest n and row builder of each identity.  A single identity
# rejects a range that leaves its domain; "all" rejects an n that lies in no
# domain and restricts each identity to its own.  The builders import the
# library functions when called, so that a tracer that rebinds the modules'
# names sees every call.
VERIFY_IDENTITIES: dict[str, tuple[int, float, Callable[[int], list[dict]]]] = {
    "thm31": (0, inf, _thm31_rows),
    "corollary": (1, inf, _corollary_rows),
    "lemma32": (1, inf, _lemma32_rows),
    "cauchy": (0, inf, _cauchy_rows),
    "recurrence": (0, inf, _recurrence_rows),
    "kron": (1, 6, _kron_rows),
    "legendre": (0, inf, _legendre_rows),
    "boundary": (0, inf, _boundary_rows),
    "charpoly": (0, inf, _charpoly_rows),
}


def _verify_worker(identities: tuple[str, ...], n: int) -> list[dict]:
    """The rows of each of `identities` whose domain holds n."""
    return [row for lo, hi, build in map(VERIFY_IDENTITIES.get, identities)
            if lo <= n <= hi for row in build(n)]


def cmd_verify(args: SimpleNamespace) -> int:
    ns = parse_range(args.range)
    if args.identity == "all":
        identities = tuple(VERIFY_IDENTITIES)
        # No domain reaches below 0, and thm31's holds every n >= 0.
        _in_domain("verify all", ns, 0)
    else:
        identities = (args.identity,)
        _in_domain(args.identity, ns, *VERIFY_IDENTITIES[args.identity][:2])
    rows = _run_mapped(partial(_verify_worker, identities), ns, args.jobs)
    # A stable sort: the kron rows of one n keep the order of KRON_SAMPLES.
    rows.sort(key=lambda r: (r["n"], r["identity"]))
    _emit(rows, args, ("n", "identity", "equal"))
    return EXIT_OK if all(r["equal"] for r in rows) else EXIT_FAILURE


# -- bounds --------------------------------------------------------------------


def _supported_digits(width: Fraction, digits: int) -> int:
    """`digits`, capped at the largest d >= 0 with 10^-d >= width > 0."""
    ratio = width.denominator // width.numerator
    return min(digits, len(str(ratio)) - 1 if ratio else 0)


def _format_mid(lo: Fraction, hi: Fraction, digits: int) -> str:
    """The midpoint of [lo, hi] to at most `digits` decimals, and to no more
    than its width supports.  An exact value, lo == hi, keeps all `digits`."""
    if lo != hi:
        digits = _supported_digits(hi - lo, digits)
    return format_decimal((lo + hi) / 2, digits)


def _bounds_worker(tol: Fraction, n: int) -> list[dict]:
    from .spectra import bound_report

    report = bound_report(n, tol)
    flags = report.orderings
    return [{
        "n": n,
        "m": {"u": report.m.u, "v": report.m.v,
              "lo": report.m_enclosure.lo, "hi": report.m_enclosure.hi},
        "lambda": {"lo": report.lam.lo, "hi": report.lam.hi},
        "f1": report.f1,
        "M": {"lo": report.upper_enclosure.lo, "hi": report.upper_enclosure.hi},
        "orderings": {
            "m_le_lambda": flags.m_le_lambda,
            "lambda_le_f1": flags.lambda_le_f1,
            "lambda_le_M": flags.lambda_le_upper,
            "m_strict": flags.m_strict,
            "f1_strict": flags.f1_strict,
            "M_strict": flags.upper_strict,
            "M_equal": flags.upper_equal,
            "decided": flags.decided,
        },
        "ok": flags.all_hold,
    }]


def _bounds_projection(digits: int, row: dict) -> dict:
    m, upper = row["m"], row["M"]
    return {
        "n": row["n"],
        "m": _format_mid(m["lo"], m["hi"], digits),
        "lambda_lo": format_decimal(row["lambda"]["lo"], digits, "down"),
        "lambda_hi": format_decimal(row["lambda"]["hi"], digits, "up"),
        "f1": row["f1"],
        "M": _format_mid(upper["lo"], upper["hi"], digits),
        "ok": row["ok"],
    }


def cmd_bounds(args: SimpleNamespace) -> int:
    ns = _in_domain("bounds", parse_range(args.range), 2)
    rows = _run_mapped(partial(_bounds_worker, parse_tolerance(args.tol)), ns, args.jobs)
    rows.sort(key=lambda r: r["n"])
    _emit(rows, args, ("n", "m", "lambda_lo", "lambda_hi", "f1", "M", "ok"),
          project=_bounds_projection)
    if not all(r["ok"] for r in rows):
        return EXIT_FAILURE
    if not all(r["orderings"]["decided"] for r in rows):
        return EXIT_UNDECIDED
    return EXIT_OK


# -- figure --------------------------------------------------------------------


def _figure_worker(tol: Fraction, n: int) -> list[tuple[int, int, tuple[int, int, int]]]:
    """Root k of P_n as (n, k, (lo, hi, den)), its cell of the table
    `spectra._root_cells`: integers only, which the parent renders."""
    from .spectra import _root_cells

    return [(n, k, cell) for k, cell in enumerate(_root_cells(n, tol))]


def cmd_figure(args: SimpleNamespace) -> int:
    ns = _in_domain("figure", parse_range(args.range), 2)
    # The runs do not change the rows: a run's first n counts its separators.
    roots = _run_mapped(partial(_figure_worker, parse_tolerance(args.tol)), ns, args.jobs,
                        runs_per_job=1)
    # Each table ascends, so sorting by (n, k) sorts by (n, root).
    roots.sort(key=lambda root: root[:2])
    digits = bits_to_digits(args.bits)
    # The decimal midpoint is the canonical root, JSON's too, rendered as
    # _emit reads the rows: inside its digit-limit guard.
    rows = ({"n": n, "root": format_ratio(lo + hi, 2 * den, digits), "parity": n % 2}
            for n, _, (lo, hi, den) in roots)
    _emit(rows, args, ("n", "root", "parity"), default_format="csv")
    return EXIT_OK


# -- asymptotics -----------------------------------------------------------------

RATIOS = ("lambda_over_n4", "lambda_over_f1", "smallest_root_even", "smallest_root_odd")


def _asymptotics_worker(tol: Fraction, n: int) -> list[dict]:
    from .spectra import asymptotic_table

    (row,) = asymptotic_table([n], tol)
    return [{"n": n, **{k: getattr(row, k) for k in RATIOS}, "targets": row.targets}]


def _asymptotics_projection(tol: Fraction, digits: int, row: dict) -> dict:
    from .spectra import SMALLEST_ROOT_TOL

    # Midpoints of enclosures at most tol wide for the lambda ratios (lambda's
    # cell over n^4 or f1, both > 1) and SMALLEST_ROOT_TOL for the roots.
    widths = (tol, tol, SMALLEST_ROOT_TOL, SMALLEST_ROOT_TOL)
    return {"n": row["n"], **{k: format_decimal(row[k], _supported_digits(w, digits))
                              for k, w in zip(RATIOS, widths)}}


def cmd_asymptotics(args: SimpleNamespace) -> int:
    ns = _in_domain("asymptotics", parse_range(args.range), 2)
    tol = parse_tolerance(args.tol)
    rows = _run_mapped(partial(_asymptotics_worker, tol), ns, args.jobs, runs_per_job=1)
    _emit(rows, args, ("n", *RATIOS), project=partial(_asymptotics_projection, tol))
    return EXIT_OK


# -- boundary --------------------------------------------------------------------


def _boundary_worker(n: int) -> list[dict]:
    from .determinants import boundary_factor_roots, max_boundary_eigenvalue, verify_boundary

    reports = verify_boundary(n)
    identities_ok = all(rep.equal for rep in reports)
    mu = max_boundary_eigenvalue(n)
    mu_matches = mu == max(boundary_factor_roots(n))
    return [{
        "n": n,
        "mu": mu,
        "identities_equal": identities_ok,
        "mu_matches_det": mu_matches,
        "ok": identities_ok and mu_matches,
    }]


def cmd_boundary(args: SimpleNamespace) -> int:
    ns = _in_domain("boundary", parse_range(args.range), 1)
    rows = _run_mapped(_boundary_worker, ns, args.jobs)
    rows.sort(key=lambda r: r["n"])
    _emit(rows, args, ("n", "mu", "ok"))
    return EXIT_OK if all(r["ok"] for r in rows) else EXIT_FAILURE


# Each command: the library layers it adds to the core, its handler, help,
# default range, and whether it takes --tol/--bits.
COMMANDS: dict[str, tuple[tuple[str, ...], Callable[[SimpleNamespace], int], str, str, bool]] = {
    "verify": (("charpoly", "determinants"), cmd_verify,
               "exact determinant/identity checks", "2..50", False),
    "bounds": (("spectra",), cmd_bounds, "certified eigenvalue bound orderings", "2..50", True),
    "figure": (("spectra",), cmd_figure, "root-distribution table (CSV)", "2..50", True),
    "asymptotics": (("spectra",), cmd_asymptotics, "limit diagnostics per n", "10,25,50", True),
    "boundary": (("determinants",), cmd_boundary,
                 "boundary eigenvalues and identities", "1..10", False),
}


# -- shared plumbing --------------------------------------------------------------


def _in_domain(what: str, ns: list[int], lo: int, hi: float = inf) -> list[int]:
    """`ns`, or a usage error when some n lies outside lo <= n <= hi."""
    if not all(lo <= n <= hi for n in ns):
        domain = f"n >= {lo}" if hi == inf else f"{lo} <= n <= {hi}"
        raise UsageError(f"{what} needs {domain}")
    return ns


def _run_mapped(worker: Callable[[int], list], ns: Sequence[int],
                jobs: int, runs_per_job: int = 8) -> list:
    """The rows of `worker(n)` over ns, in order.  With jobs > 1, a pool of
    min(jobs, runs) processes sweeps up to runs_per_job * jobs runs of
    consecutive n (_cost_runs), a task each, balancing as runs finish.  A
    root-table worker passes 1: a run's first n lacks the table of n - 1."""
    runs = _cost_runs(ns, runs_per_job * jobs) if jobs > 1 else [ns]
    if len(runs) == 1:
        return _swept(worker, ns)
    # Imported here: a serial run need not load the process machinery.
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=min(jobs, len(runs))) as pool:
        return [row for chunk in pool.map(partial(_swept, worker), runs) for row in chunk]


def _swept(worker: Callable[[int], list], run: Sequence[int]) -> list:
    """The rows of `worker(n)` over one run of n, in order, in one process."""
    return [row for n in run for row in worker(n)]


def _cost_runs(ns: Sequence[int], parts: int) -> list[list[int]]:
    """`ns`, in order, cut into at most `parts` nonempty runs of about equal
    cost, an n costing n^3 as its root table does.  A run ends before an n
    with half its cost past the run's share, so it costs under its share plus
    its largest n's cost; no run starts where the rest costs nothing (n = 0)."""
    total = sum(n**3 for n in ns)
    runs, run, done = [], [], 0
    for n in ns:
        if run and done < total and (2 * done + n**3) * parts >= 2 * total * (len(runs) + 1):
            runs.append(run)
            run = []
        run.append(n)
        done += n**3
    runs.append(run)
    return runs


def _exact(value: object) -> str | list[str]:
    """JSON form of an exact value, the only code that renders a row's: a
    Fraction as "p/q", a RatPoly as its ascending coefficients as str(Fraction)
    prints them, built on the integers (content times primitive part, one gcd
    each).  No other foreign type may reach JSON."""
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, RatPoly):
        num, den = value.content.numerator, value.content.denominator
        return [str(c // g * num) if (g := gcd(c, den)) == den else f"{c // g * num}/{den // g}"
                for c in value.primitive]
    raise TypeError(f"no canonical JSON form for {type(value).__name__}")


def _json_encoder() -> json.JSONEncoder:
    """The canonical encoder; json is imported here, so that importing this
    module does not load it."""
    import json

    return json.JSONEncoder(default=_exact)


def _emit(rows: Iterable[dict], args: SimpleNamespace, fields: tuple[str, ...],
          project: Callable[[int, dict], dict] | None = None,
          default_format: str = "json") -> None:
    """JSON renders each exact row; CSV and text show `fields` of the row,
    or of its projection at the --bits precision.  `rows` may be any
    iterable, read once while the digit limit is lifted, so a generator
    can render values of its own there (`figure`'s decimal roots)."""
    fmt = args.format or default_format
    # Rows past n = 60 hold integers of more than the 4300 digits that str()
    # prints by default (CPython 3.10.7 on); the limit is lifted only here.
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        if fmt == "json":
            encode = _json_encoder().encode
            lines = [encode(row) for row in rows]
        else:
            if project is not None:
                digits = bits_to_digits(args.bits)
                rows = [project(digits, row) for row in rows]
            cells = [[_csv_cell(row[f]) for f in fields] for row in rows]
            if fmt == "csv":
                lines = [",".join(fields), *(",".join(line) for line in cells)]
            else:
                lines = ["  ".join(f"{f}={c}" for f, c in zip(fields, line)) for line in cells]
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)
    text = "\n".join(lines) + "\n"
    if args.out:
        try:
            with open(args.out, "w") as handle:
                handle.write(text)
        except OSError as exc:
            raise UsageError(f"cannot write {args.out}: {exc.strerror or exc}") from exc
    else:
        sys.stdout.write(text)


def _check_writable(path: str) -> None:
    """A usage error unless `path` can be opened for writing.  An existing
    file is opened, not truncated; a new one is created and removed."""
    try:
        try:
            os.close(os.open(path, os.O_WRONLY))
        except FileNotFoundError:
            os.close(os.open(path, os.O_WRONLY | os.O_CREAT | os.O_EXCL))
            os.unlink(path)
    except OSError as exc:
        raise UsageError(f"cannot write {path}: {exc.strerror}") from exc


def _csv_cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def main(argv: Sequence[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    # Loaded before the parser and json: the compile of a large layer then
    # peaks over a smaller resident set (README "Start-up").
    if argv and argv[0] in COMMANDS:
        for layer in COMMANDS[argv[0]][0]:
            import_module(f".{layer}", __package__)
    from .cmdline import parse

    args = parse(argv, COMMANDS, (*VERIFY_IDENTITIES, "all"))
    try:
        if args.out:
            _check_writable(args.out)
        return args.func(args)
    except UsageError as exc:
        message, code = f"error: {exc}\n", EXIT_USAGE
    except Exception as exc:
        detail = " ".join(f"{type(exc).__name__}: {exc}".split())
        message, code = f"error: internal: {detail}\n", EXIT_INTERNAL
    sys.stderr.write(message)
    sys.exit(code)

if __name__ == "__main__":
    sys.exit(main())
