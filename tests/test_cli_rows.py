"""The CLI row path: exact rows rendered as JSON, projected to CSV and text.

The sha256 digests below were recorded from the stdout of each command with
--jobs 1; they guard the CSV and text projections and the asymptotics rows
byte for byte (tests/test_canonical_json.py guards the JSON of the other
commands).
"""

import hashlib
import json
import os
import subprocess
import sys
from fractions import Fraction as F
from math import inf
from pathlib import Path

import pytest

import invineq.cli as cli
from invineq.cli import (
    EXIT_OK,
    EXIT_USAGE,
    VERIFY_IDENTITIES,
    _boundary_worker,
    _bounds_worker,
    _figure_worker,
    _json_encoder,
    _verify_worker,
    main,
)
from invineq.polynomial import RatPoly
from invineq.spectra import _root_cells, asymptotic_table

SRC = Path(__file__).resolve().parents[1] / "src"

STDOUT_DIGESTS = {
    "bounds --range 2..30 --format csv":
        "d9bbacc052f817c39869926a7e92718f99f4b34a22fa3afd971efb8c9aecfdb1",
    "bounds --range 8..12 --bits 64 --tol 1e-30 --format text":
        "dd7fc3f6c4cda35a0aac0cffddce586579610842398ef995299751af87676aa7",
    "figure --range 2..20":
        "03f8fdc63a2b7cb384993575e23706dc07088569d11a2e664bae8dc2c5f3436b",
    "figure --range 2..12 --format text":
        "9861526ec4acab51a4850b6a81107ec183ac94edc259719901609d75fad4583f",
    # Recorded with the rows sorted by their printed roots parsed back into
    # Fractions.  A repeated n interleaves its two equal tables.
    "figure --range 7,5,7,2 --format json":
        "5ee2103fa79754613f9d1349d444db0a31adf082adafcba28b8fbeb577c4fb28",
    # Recorded with each column cut to the decimals its enclosure supports.
    "asymptotics --range 10,25,50 --format csv":
        "e9d0891744330fe2f0b9da267a9af8db80815873fc5ee0f515687af4a5a217d4",
    "asymptotics --range 10,25,50 --format json":
        "23b881e1d7fe4cbb08b9c015a79bbf2d5ac67d5ffd7c1793fe46d5e6d26e1971",
    "boundary --range 1..12 --format text":
        "771e71fbb52f72c9eb6251dcec0630d332c8abcd24281cd87fbf16d22f2c0b16",
    "verify all --range 0..6 --format csv":
        "5b2dcd0c6604e93a55391e840734c64688ee5cdf6f4e5abe3bf0bc4260778c10",
    "verify all --range 0..4 --format text":
        "24ea3332acf52490e7c5fc21bcb21c682708db7995aa6bbec061f224b9e81174",
}


@pytest.mark.parametrize("command", sorted(STDOUT_DIGESTS))
def test_stdout_matches_recorded_digest(command, capsys):
    assert main([*command.split(), "--jobs", "1"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == STDOUT_DIGESTS[command]


def test_asymptotics_rows_keep_the_input_order(capsys):
    assert main(["asymptotics", "--range", "25,10", "--jobs", "2"]) == 0
    rows = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert [r["n"] for r in rows] == [25, 10]


def test_json_renders_fractions_and_refuses_other_objects():
    assert _json_encoder().encode({"x": F(-7, 2), "n": 3}) == '{"x": "-7/2", "n": 3}'
    with pytest.raises(TypeError):
        _json_encoder().encode({"x": 0.5j})


def _text_keys(value, key=None):
    """The keys under which a row holds a str, at any depth."""
    if isinstance(value, str):
        yield key
    elif isinstance(value, dict):
        for k, v in value.items():
            yield from _text_keys(v, k)
    elif isinstance(value, (list, tuple)):
        for v in value:
            yield from _text_keys(v, key)


@pytest.mark.parametrize("n", range(7))
def test_verify_rows_hold_exact_values_not_text(n):
    rows = _verify_worker(tuple(VERIFY_IDENTITIES), n)
    assert rows and set(_text_keys(rows)) == {"identity"}


def test_rows_render_integers_past_the_str_digit_limit(capsys, monkeypatch):
    # 4401 digits: str() refuses them under CPython's default limit of 4300
    # (3.10.7 and later), which _emit lifts only while it renders.
    big = 10**4400 + 1
    row = {"n": 1, "identity": "thm31-parity0", "value": F(big, 3),
           "poly": RatPoly((F(1, big), -big)), "equal": True}
    monkeypatch.setattr(cli, "_verify_worker", lambda identities, n: [row])
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if limit is not None:
        sys.set_int_max_str_digits(4300)
    try:
        assert main(["verify", "thm31", "--range", "1", "--jobs", "1"]) == EXIT_OK
        if limit is not None:
            assert sys.get_int_max_str_digits() == 4300
            sys.set_int_max_str_digits(0)  # to parse the values back
        out = json.loads(capsys.readouterr().out)
        assert F(out["value"]) == F(big, 3)
        assert [F(c) for c in out["poly"]] == [F(1, big), -big]
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)


# The first n of thm31 and of the corollary whose rows hold an integer of
# more than 4300 digits.  Recorded from the first code that printed them.
PAST_THE_DIGIT_LIMIT = {
    "verify thm31 --range 61":
        "392143969bab972342ff7131eae82308403ff4c8d3a7ff98331bc56a70dd2c19",
    "verify corollary --range 87":
        "fb1f332cc908fcd6ee3960a67d651f0ff1e04ed8be25af36aade88be50628147",
}


@pytest.mark.parametrize("command", sorted(PAST_THE_DIGIT_LIMIT))
def test_every_n_of_a_domain_prints(command, capsys):
    assert main([*command.split(), "--jobs", "1", "--format", "json"]) == EXIT_OK
    out = capsys.readouterr().out
    assert all(json.loads(line)["equal"] for line in out.splitlines())
    assert hashlib.sha256(out.encode()).hexdigest() == PAST_THE_DIGIT_LIMIT[command]


def test_rows_past_the_digit_limit_print_alike_with_jobs(capsys):
    outs = []
    for jobs in ("1", "2"):
        assert main(["verify", "thm31", "--range", "61,62", "--jobs", jobs]) == EXIT_OK
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1] and len(outs[0].splitlines()) == 4


def test_figure_prints_roots_past_the_str_digit_limit(capsys):
    # 14288 bits carry 4301 decimals, one more than str() prints under
    # CPython's default limit, which _emit lifts only while it renders.
    argv = ["figure", "--range", "4,5", "--bits", "14288"]
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if limit is not None:
        sys.set_int_max_str_digits(4300)
    try:
        outs = {}
        for fmt in ("json", "csv", "text"):
            for jobs in ("1", "2"):
                assert main([*argv, "--format", fmt, "--jobs", jobs]) == EXIT_OK
                outs[fmt, jobs] = capsys.readouterr().out
            assert outs[fmt, "1"] == outs[fmt, "2"]
        if limit is not None:
            sys.set_int_max_str_digits(0)  # to parse the roots back
        rows = [json.loads(line) for line in outs["json", "1"].splitlines()]
        cells = [(n, cell) for n in (4, 5) for cell in _root_cells(n, TOL)]
        assert [(r["n"], r["parity"]) for r in rows] == [(n, n % 2) for n, _ in cells]
        assert [line.split(",")[1] for line in outs["csv", "1"].splitlines()[1:]] == [
            r["root"] for r in rows]
        for row, (_, (lo, hi, den)) in zip(rows, cells):
            assert len(row["root"].split(".")[1]) == 4301
            assert abs(F(row["root"]) - F(lo + hi, 2 * den)) <= F(1, 2 * 10**4301)
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)


@pytest.mark.parametrize("argv", [
    ["verify", "all", "--range", "0..2", "--tol", "1/10"],
    ["verify", "kron", "--range", "1..2", "--bits", "80"],
    ["boundary", "--range", "1..2", "--tol", "1/10"],
    ["boundary", "--range", "1..2", "--bits", "80"],
])
def test_precision_flags_exist_only_where_they_are_read(argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == EXIT_USAGE


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("span", ["-3..-1", "-1..2"])
def test_verify_all_rejects_an_n_in_no_domain(fmt, span, capsys):
    # A value that starts with "-" is read as a value in either form.
    for given in ([f"--range={span}"], ["--range", span]):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "all", *given, "--format", fmt])
        assert exc.value.code == EXIT_USAGE
        assert capsys.readouterr() == ("", "error: verify all needs n >= 0\n")


def test_serial_import_leaves_the_process_pool_unloaded():
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    code = "import sys, invineq.cli; print('concurrent.futures' in sys.modules)"
    result = subprocess.run([sys.executable, "-c", code], env=env,
                            capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "False"


def test_import_loads_no_dataclass_machinery():
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    code = ("import sys, invineq.cli; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    result = subprocess.run([sys.executable, "-c", code], env=env,
                            capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


# Runs main on the arguments in a fresh interpreter, with the rows sent to
# os.devnull, and prints the invineq modules that are then loaded, and those
# of argparse and its imports (ARGPARSE) that were not loaded before
# `invineq.cli` was imported.
ARGPARSE = {"argparse", "gettext", "locale"}
LOADED_AFTER_MAIN = (
    "import os, sys\n"
    f"before = set(sys.modules) & {ARGPARSE!r}\n"
    "from invineq.cli import main\n"
    "code = main([*sys.argv[1:], '--out', os.devnull])\n"
    "print(' '.join(sorted(m for m in sys.modules if m.startswith('invineq.')\n"
    f"                      or m in {ARGPARSE!r} - before)))\n"
    "sys.exit(code)\n"
)


def _modules_loaded_by(*argv: str) -> set[str]:
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    result = subprocess.run([sys.executable, "-c", LOADED_AFTER_MAIN, *argv], env=env,
                            capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    return set(result.stdout.split())


def test_boundary_loads_no_root_or_spectra_code():
    loaded = _modules_loaded_by("boundary", "--range", "1..4")
    assert "invineq.determinants" in loaded
    assert not {"invineq.charpoly", "invineq.roots", "invineq.spectra", *ARGPARSE} & loaded


@pytest.mark.parametrize("identity", [*sorted(VERIFY_IDENTITIES), "all"])
def test_verify_loads_no_root_or_spectra_code(identity):
    loaded = _modules_loaded_by("verify", identity, "--range", "1..2")
    assert "invineq.determinants" in loaded
    assert not {"invineq.roots", "invineq.spectra", *ARGPARSE} & loaded


@pytest.mark.parametrize("argv", [
    ("bounds", "--range", "2..4"),
    ("figure", "--range", "2..6"),
    ("asymptotics", "--range", "4"),
], ids=lambda argv: argv[0])
def test_root_commands_load_no_matrix_or_determinant_code(argv):
    loaded = _modules_loaded_by(*argv)
    assert {"invineq.spectra", "invineq.hooks"} <= loaded
    assert not {"invineq.matrices", "invineq.determinants", *ARGPARSE} & loaded


def test_import_loads_no_matrix_or_determinant_code():
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    code = ("import sys, invineq.cli; "
            "print(sorted({'invineq.matrices', 'invineq.determinants'} & set(sys.modules)))")
    result = subprocess.run([sys.executable, "-c", code], env=env,
                            capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


# Each layer checks its own input: the CLI's usage errors and the library's
# ValueErrors must agree on the domain of every command.

@pytest.mark.parametrize("identity", sorted(VERIFY_IDENTITIES))
def test_verify_domain_agrees_with_the_library(identity):
    lo, hi, build = VERIFY_IDENTITIES[identity]
    with pytest.raises(ValueError):
        build(lo - 1)
    assert build(lo)
    if hi != inf:
        assert build(hi)
        with pytest.raises(ValueError):
            build(hi + 1)


TOL = F(1, 10**12)


@pytest.mark.parametrize("run", [
    lambda n: _bounds_worker(TOL, n),
    lambda n: _figure_worker(TOL, n),
    lambda n: asymptotic_table([n], TOL),
], ids=["bounds", "figure", "asymptotics"])
def test_root_commands_need_n_at_least_two(run):
    with pytest.raises(ValueError):
        run(1)
    assert run(2)


@pytest.mark.parametrize("n", [2, 7, 30])
def test_figure_worker_rows_hold_only_integers(n):
    rows = _figure_worker(TOL, n)
    assert [row[:2] for row in rows] == [(n, k) for k in range(n // 2)]
    assert all(type(x) is int for m, k, cell in rows for x in (m, k, *cell))


def test_boundary_needs_n_at_least_one():
    with pytest.raises(ValueError):
        _boundary_worker(0)
    assert _boundary_worker(1)
