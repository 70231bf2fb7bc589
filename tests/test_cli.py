import json
import os
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import invineq.cli as cli
import invineq.determinants as determinants
import invineq.spectra as spectra
from invineq.cli import (
    COMMANDS,
    EXIT_FAILURE,
    EXIT_INTERNAL,
    EXIT_OK,
    EXIT_UNDECIDED,
    EXIT_USAGE,
    UsageError,
    main,
    parse_range,
    parse_tolerance,
)
from invineq.charpoly import char_coeff, char_poly
from invineq.determinants import DetReport
from invineq.polynomial import RatPoly
from invineq.roots import Enclosure, RootIsolationError, isolate_all


class TestParsing:
    def test_range_forms(self):
        assert parse_range("2..5") == [2, 3, 4, 5]
        assert parse_range("7..7") == [7]
        assert parse_range("50,100,200") == [50, 100, 200]

    def test_malformed_ranges(self):
        for bad in ("5..2", "abc", "", "1..x", ","):
            with pytest.raises(UsageError):
                parse_range(bad)

    def test_tolerance_forms(self):
        assert parse_tolerance("1/1000") == F(1, 1000)
        assert parse_tolerance("1e-12") == F(1, 10**12)
        assert parse_tolerance("0.25") == F(1, 4)

    def test_bad_tolerance(self):
        for bad in ("0", "-1/2", "x", "1/0"):
            with pytest.raises(UsageError):
                parse_tolerance(bad)


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestVerifyCommand:
    def test_thm31_small_range(self, capsys):
        code, out = run_cli(capsys, "verify", "thm31", "--range", "0..4")
        assert code == EXIT_OK
        rows = [json.loads(line) for line in out.strip().splitlines()]
        # n=0 contributes a single parity-0 row, others two rows
        assert len(rows) == 1 + 2 * 4
        assert all(r["equal"] for r in rows)
        assert rows[0]["identity"] == "thm31-parity0"
        assert "lhs" in rows[0] and "rhs" in rows[0]

    def test_recurrence(self, capsys):
        code, out = run_cli(capsys, "verify", "recurrence", "--range", "0..10")
        assert code == EXIT_OK
        rows = [json.loads(line) for line in out.strip().splitlines()]
        assert len(rows) == 11 and all(r["equal"] for r in rows)

    def test_malformed_range_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "thm31", "--range", "5..2"])
        assert exc.value.code == EXIT_USAGE

    def test_kron_out_of_domain_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "kron", "--range", "1..9"])
        assert exc.value.code == EXIT_USAGE

    @pytest.mark.parametrize("identity", ["corollary", "lemma32", "kron"])
    def test_lowest_n_of_each_domain(self, capsys, identity):
        # A single identity rejects n = 0; "all" drops n = 0 for it.
        with pytest.raises(SystemExit) as exc:
            main(["verify", identity, "--range", "0..1"])
        assert exc.value.code == EXIT_USAGE
        code, out = run_cli(capsys, "verify", "all", "--range", "0..0")
        assert code == EXIT_OK
        rows = [json.loads(line) for line in out.strip().splitlines()]
        assert rows and not any(r["identity"].startswith(identity) for r in rows)

    def test_failure_exit_code(self, capsys, monkeypatch):
        def fake(ell, n):
            return DetReport(n=n, identity=f"cauchy-{ell}",
                             lhs=RatPoly((1,)), rhs=RatPoly((2,)))

        monkeypatch.setattr(determinants, "verify_cauchy", fake)
        code, out = run_cli(capsys, "verify", "cauchy", "--range", "1..2")
        assert code == EXIT_FAILURE
        rows = [json.loads(line) for line in out.strip().splitlines()]
        assert all(not r["equal"] for r in rows)

    def test_csv_projection(self, capsys):
        code, out = run_cli(capsys, "verify", "cauchy", "--range", "0..2",
                            "--format", "csv")
        assert code == EXIT_OK
        lines = out.strip().splitlines()
        assert lines[0] == "n,identity,equal"
        assert lines[1] == "0,cauchy-0,true"

    def test_all_respects_subdomain(self, capsys):
        code, out = run_cli(capsys, "verify", "all", "--range", "0..2")
        assert code == EXIT_OK
        rows = [json.loads(line) for line in out.strip().splitlines()]
        kron_rows = [r for r in rows if r["identity"] == "kron"]
        assert {r["n"] for r in kron_rows} == {1, 2}

    def test_charpoly_dump(self, capsys):
        code, out = run_cli(capsys, "verify", "charpoly", "--range", "4..4")
        assert code == EXIT_OK
        (row,) = [json.loads(line) for line in out.strip().splitlines()]
        assert row["coeffs"] == ["105", "-45", "1"]
        assert row["equal"]


class TestBoundsCommand:
    def test_single_n(self, capsys):
        code, out = run_cli(capsys, "bounds", "--range", "2..2")
        assert code == EXIT_OK
        (row,) = [json.loads(line) for line in out.strip().splitlines()]
        assert row["lambda"]["lo"] == "3" and row["lambda"]["hi"] == "3"
        assert row["f1"] == "3"
        assert row["ok"] and row["orderings"]["M_equal"]

    def test_csv_header(self, capsys):
        code, out = run_cli(capsys, "bounds", "--range", "2..4",
                            "--format", "csv")
        assert code == EXIT_OK
        lines = out.strip().splitlines()
        assert lines[0] == "n,m,lambda_lo,lambda_hi,f1,M,ok"
        assert len(lines) == 4

    def test_domain_violation_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["bounds", "--range", "1..3"])
        assert exc.value.code == EXIT_USAGE

    def test_csv_endpoints_enclose_exact_values(self, capsys):
        flags = ("bounds", "--range", "8..12", "--bits", "64", "--tol", "1e-30")
        _, json_out = run_cli(capsys, *flags)
        _, csv_out = run_cli(capsys, *flags, "--format", "csv")
        exact = [json.loads(line)["lambda"] for line in json_out.strip().splitlines()]
        header, *lines = csv_out.strip().splitlines()
        fields = header.split(",")
        assert len(lines) == len(exact) == 5
        for line, lam in zip(lines, exact):
            row = dict(zip(fields, line.split(",")))
            assert F(row["lambda_lo"]) <= F(lam["lo"])
            assert F(row["lambda_hi"]) >= F(lam["hi"])
            assert F(row["lambda_lo"]) < F(row["lambda_hi"])

    def test_certified_violation_exits_1(self, capsys, monkeypatch):
        def below(n, tol):
            lam = spectra.max_root(n, tol)
            return Enclosure(lam.lo - 2, lam.lo - 1)

        monkeypatch.setattr(spectra, "bound_upper", below)
        code, out = run_cli(capsys, "bounds", "--range", "10..10")
        assert code == EXIT_FAILURE
        (row,) = [json.loads(line) for line in out.strip().splitlines()]
        assert row["orderings"]["decided"] and not row["orderings"]["lambda_le_M"]

    @staticmethod
    def undecided(a, b, *_, **__):
        return None, a, b

    def test_undecided_ordering_exits_3(self, capsys, monkeypatch):
        monkeypatch.setattr(spectra, "ensure_disjoint", self.undecided)
        code, out = run_cli(capsys, "bounds", "--range", "10")
        assert code == EXIT_UNDECIDED
        (row,) = [json.loads(line) for line in out.strip().splitlines()]
        flags = row["orderings"]
        assert not flags["decided"] and flags["m_le_lambda"] and flags["lambda_le_f1"]

    def test_decided_failure_outranks_undecided_row(self, capsys, monkeypatch):
        # n = 6 decides lambda <= M structurally; its lower bound is made to
        # fail, while n = 10 is left undecided.
        real = spectra.surd_sign_of_poly
        monkeypatch.setattr(spectra, "ensure_disjoint", self.undecided)
        monkeypatch.setattr(spectra, "surd_sign_of_poly",
                            lambda poly, surd: 1 if poly.degree == 3 else real(poly, surd))
        code, out = run_cli(capsys, "bounds", "--range", "6,10")
        assert code == EXIT_FAILURE
        six, ten = [json.loads(line)["orderings"] for line in out.strip().splitlines()]
        assert six["decided"] and not six["m_le_lambda"]
        assert not ten["decided"] and ten["m_le_lambda"]

    # The exact signs behind m <= lambda and lambda <= f1 hold on correct
    # code, so only a sign routine made to lie shows that a failure is seen.
    def test_lying_surd_sign_fails_the_lower_bound(self, capsys, monkeypatch):
        monkeypatch.setattr(spectra, "surd_sign_of_poly", lambda poly, surd: 1)
        code, out = run_cli(capsys, "bounds", "--range", "10")
        assert code == EXIT_FAILURE
        (row,) = [json.loads(line) for line in out.strip().splitlines()]
        assert not row["orderings"]["m_le_lambda"] and not row["ok"]

    def test_lying_sign_at_f1_fails_the_upper_bound(self, capsys, monkeypatch):
        real, f1 = spectra.sign_at, char_coeff(1, 10)
        monkeypatch.setattr(spectra, "sign_at",
                            lambda coeffs, x: -1 if x == f1 else real(coeffs, x))
        code, out = run_cli(capsys, "bounds", "--range", "10")
        assert code == EXIT_FAILURE
        (row,) = [json.loads(line) for line in out.strip().splitlines()]
        assert not row["orderings"]["lambda_le_f1"] and not row["ok"]

    def test_csv_midpoints_carry_only_supported_digits(self, capsys):
        # n=2 is exact and keeps every digit; at n=8 the 1e-12-wide m and M
        # enclosures support 12 decimals, at --tol 1/2 none.
        _, out = run_cli(capsys, "bounds", "--range", "2,8", "--format", "csv")
        _, coarse = run_cli(capsys, "bounds", "--range", "8", "--tol", "1/2",
                            "--format", "csv")
        rows = [dict(zip(out.splitlines()[0].split(","), line.split(",")))
                for line in out.strip().splitlines()[1:]]
        assert rows[0]["m"] == rows[0]["M"] == "3." + "0" * 38
        assert rows[1]["m"] == "532.370651192841"
        assert rows[1]["M"] == "536.390016788326"
        coarse_row = coarse.strip().splitlines()[1].split(",")
        assert coarse_row[1] == "533"

    @pytest.mark.parametrize("lo, hi, expected", [
        (F(0), F(1, 10), "0.1"),       # 10^-1 >= width exactly
        (F(0), F(1, 9), "0"),          # just wider than 10^-1
        (F(0), F(3), "2"),             # wider than 1: no decimals
        (F(1, 3), F(1, 3), "0.33333"),  # exact: every digit
    ])
    def test_midpoint_digits_follow_the_width(self, lo, hi, expected):
        assert cli._format_mid(lo, hi, 5) == expected

    def test_internal_error_exits_4(self, capsys, monkeypatch):
        def broken(n, tol):
            raise RootIsolationError(f"no sign change\nat n={n}")

        monkeypatch.setattr(spectra, "bound_report", broken)
        with pytest.raises(SystemExit) as exc:
            main(["bounds", "--range", "2..3"])
        assert exc.value.code == EXIT_INTERNAL
        err = capsys.readouterr().err
        assert err == "error: internal: RootIsolationError: no sign change at n=2\n"
        assert "Traceback" not in err

    def test_broken_parity_builder_exits_4(self, capsys, monkeypatch):
        """A parity block that fails the Legendre congruence is a builder
        bug: no row, no fallback, exit 4 naming the block."""
        import invineq.determinants as determinants
        from invineq.matrices import PolyMatrix, RatMatrix

        build = determinants.build_parity_block

        def broken(ell, n):
            block = build(ell, n)
            rows = [list(row) for row in block.const.entries]
            rows[-1][-1] += 1
            return PolyMatrix(RatMatrix(tuple(map(tuple, rows))), block.slope)

        monkeypatch.setattr(determinants, "build_parity_block", broken)
        with pytest.raises(SystemExit) as exc:
            main(["verify", "thm31", "--range", "3..4"])
        assert exc.value.code == EXIT_INTERNAL
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: internal: ArithmeticError: the parity-0 block of "
                                "size 3 is not congruent to its Legendre hook pencil\n")

    def test_optimized_interpreter_prints_the_same_bytes(self):
        # The certified invariants are explicit raises, not asserts, so
        # `python -O` runs the same checks and prints the same rows.
        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
        command = ["-m", "invineq.cli", "bounds", "--range", "2..30", "--format", "json"]
        outputs = [subprocess.run([sys.executable, *flags, *command], env=env,
                                  capture_output=True, check=True).stdout
                   for flags in ((), ("-O",))]
        assert outputs[0] and outputs[0] == outputs[1]


class TestFigureCommand:
    def test_unwritable_out_exits_2(self, capsys, tmp_path):
        out_path = tmp_path / "missing" / "fig.csv"
        with pytest.raises(SystemExit) as exc:
            main(["figure", "--range", "2..3", "--out", str(out_path)])
        assert exc.value.code == EXIT_USAGE
        assert capsys.readouterr().err == (
            f"error: cannot write {out_path}: No such file or directory\n")

    def test_row_count_and_header(self, capsys, tmp_path):
        out_path = tmp_path / "fig.csv"
        code, _ = run_cli(capsys, "figure", "--range", "2..4",
                          "--out", str(out_path))
        assert code == EXIT_OK
        lines = out_path.read_text().strip().splitlines()
        assert lines[0] == "n,root,parity"
        assert len(lines) == 1 + 4  # floor(n/2) roots for n = 2, 3, 4
        first = lines[1].split(",")
        assert first[0] == "2" and first[2] == "0"
        assert abs(float(first[1]) - 3.0) < 1e-9

    def test_never_empty_for_nonempty_range(self, capsys):
        code, out = run_cli(capsys, "figure", "--range", "2..2")
        assert code == EXIT_OK
        assert len(out.strip().splitlines()) == 2


class TestOutPath:
    """An --out that cannot be written is a usage error before any row is
    computed, and creates no file; an existing file keeps its contents until
    the rows are ready."""

    @pytest.mark.parametrize("name, reason", [
        ("missing/rows.json", "No such file or directory"),
        ("folder", "Is a directory"),
    ])
    def test_unwritable_out_exits_2_before_any_work(self, capsys, tmp_path, name, reason):
        (tmp_path / "folder").mkdir()
        out_path = tmp_path / name
        worker = mock.Mock(side_effect=AssertionError("a worker ran"))
        with mock.patch.object(cli, "_verify_worker", worker), \
                pytest.raises(SystemExit) as exc:
            main(["verify", "lemma32", "--range", "50..54", "--out", str(out_path)])
        assert exc.value.code == EXIT_USAGE
        assert capsys.readouterr().err == f"error: cannot write {out_path}: {reason}\n"
        assert not worker.called
        assert sorted(p.name for p in tmp_path.iterdir()) == ["folder"]
        assert not any((tmp_path / "folder").iterdir())

    def test_an_existing_file_outlives_an_internal_error(self, capsys, tmp_path):
        out_path = tmp_path / "rows.json"
        out_path.write_text("earlier rows\n")
        with mock.patch.object(cli, "_bounds_worker", side_effect=RuntimeError("broken")), \
                pytest.raises(SystemExit) as exc:
            main(["bounds", "--range", "2..3", "--out", str(out_path)])
        assert exc.value.code == EXIT_INTERNAL
        assert capsys.readouterr().err == "error: internal: RuntimeError: broken\n"
        assert out_path.read_text() == "earlier rows\n"

    def test_a_write_that_fails_at_the_end_is_a_usage_error(self, capsys, tmp_path):
        out_path = tmp_path / "missing" / "rows.json"
        with mock.patch.object(cli, "_check_writable"), pytest.raises(SystemExit) as exc:
            main(["boundary", "--range", "1", "--out", str(out_path)])
        assert exc.value.code == EXIT_USAGE
        assert capsys.readouterr().err == (
            f"error: cannot write {out_path}: No such file or directory\n")


class TestAsymptoticsCommand:
    def test_single_row(self, capsys):
        code, out = run_cli(capsys, "asymptotics", "--range", "2")
        assert code == EXIT_OK
        (row,) = [json.loads(line) for line in out.strip().splitlines()]
        assert F(row["lambda_over_f1"]) == 1  # exact p/q in JSON
        assert "pi_sq" in row["targets"]

    def test_csv_is_decimal_projection(self, capsys):
        code, out = run_cli(capsys, "asymptotics", "--range", "2",
                            "--format", "csv")
        assert code == EXIT_OK
        lines = out.strip().splitlines()
        assert lines[0].startswith("n,lambda_over_n4,lambda_over_f1")
        cells = lines[1].split(",")
        assert float(cells[2]) == 1.0

    def test_csv_digits_follow_the_enclosure_widths(self, capsys):
        # The lambda ratios are --tol wide, the smallest roots 1e-9.
        code, out = run_cli(capsys, "asymptotics", "--range", "10", "--tol", "1e-5",
                            "--format", "csv")
        assert code == EXIT_OK
        cells = out.strip().splitlines()[1].split(",")
        assert [len(cell.split(".")[1]) for cell in cells[1:]] == [5, 5, 9, 9]


class TestBoundaryCommand:
    def test_mu_values(self, capsys):
        code, out = run_cli(capsys, "boundary", "--range", "1..10")
        assert code == EXIT_OK
        rows = [json.loads(line) for line in out.strip().splitlines()]
        assert [F(r["mu"]) for r in rows] == [3, 5, 10, 14, 21, 27, 36, 44, 55, 65]
        assert all(r["ok"] for r in rows)

    def test_single(self, capsys):
        code, out = run_cli(capsys, "boundary", "--range", "2..2")
        (row,) = [json.loads(line) for line in out.strip().splitlines()]
        assert row["mu"] == "5"


class TestParallelDeterminism:
    def test_jobs_output_identical(self, capsys):
        _, serial = run_cli(capsys, "verify", "cauchy", "--range", "0..6")
        _, parallel = run_cli(capsys, "verify", "cauchy", "--range", "0..6",
                              "--jobs", "3")
        assert serial == parallel

    def test_bounds_jobs_identical(self, capsys):
        _, serial = run_cli(capsys, "bounds", "--range", "2..8")
        _, parallel = run_cli(capsys, "bounds", "--range", "2..8", "--jobs", "2")
        assert serial == parallel

    def test_figure_jobs_identical(self, capsys):
        # Each figure worker sweeps one run of consecutive n, so its all_roots
        # reads the table of n - 1, and asymptotics reads the lowest cells of
        # the same tables; the rows must not depend on how n is split.
        for command in ("figure", "asymptotics"):
            _, serial = run_cli(capsys, command, "--range", "2..30")
            _, parallel = run_cli(capsys, command, "--range", "2..30", "--jobs", "2")
            assert serial == parallel

    @pytest.mark.parametrize("argv", [("verify", "all", "--range", "0..8"),
                                      ("boundary", "--range", "1..20")])
    def test_verify_and_boundary_jobs_identical(self, capsys, argv):
        _, serial = run_cli(capsys, *argv)
        for jobs in ("2", "3"):
            _, parallel = run_cli(capsys, *argv, "--jobs", jobs)
            assert parallel == serial

    def test_figure_jobs_match_sturm_isolation(self, capsys):
        # Two workers, each forked with this process's last root table, of
        # the n before the second worker's run begins, so that run starts
        # from an inherited table of n - 1: the rows are those of Sturm
        # isolation at every n.
        def sturm(n, tol):
            return isolate_all(char_poly(n).poly, F(0), char_coeff(1, n), tol,
                               expected=n // 2)

        argv = ("figure", "--range", "2..30", "--format", "json")
        with mock.patch.object(spectra, "all_roots", sturm):
            _, expected = run_cli(capsys, *argv)
        for n in range(2, cli._cost_runs(range(2, 31), 2)[1][0]):
            spectra.all_roots(n, F(1, 10**12))
        _, parallel = run_cli(capsys, *argv, "--jobs", "2")
        assert parallel == expected


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(2, 300), min_size=1, max_size=60), st.integers(1, 8))
def test_cost_runs_cut_the_range_in_order(ns, parts):
    runs = cli._cost_runs(ns, parts)
    assert 1 <= len(runs) <= min(parts, len(ns))
    assert all(runs)
    assert [n for run in runs for n in run] == ns
    # Each run costs less than its share plus its largest n.
    total = sum(n**3 for n in ns)
    assert all(sum(n**3 for n in run) * parts < total + parts * max(run) ** 3
               for run in runs)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(0, 5), min_size=1, max_size=12), st.integers(1, 8))
def test_cost_runs_cut_no_extra_run_at_zero_cost(ns, parts):
    # n = 0 costs nothing (verify's domains start there): a range of zeros,
    # or one that ends in zeros, is cut into no more runs than parts.
    runs = cli._cost_runs(ns, parts)
    assert 1 <= len(runs) <= min(parts, len(ns))
    assert all(runs)
    assert [n for run in runs for n in run] == ns


def test_cost_runs_balance_a_growing_range():
    # Equal lengths would give the run of 101..200 about 15 times the n^3
    # cost of 2..100; cut by n^3 the two runs cost about the same (2..168
    # costs 0.24 % under half the total, 2..169 2.1 % over it).
    first, second = cli._cost_runs(range(2, 201), 2)
    assert (first[0], first[-1], second[0], second[-1]) == (2, 168, 169, 200)


@pytest.mark.parametrize("ns", [[59, 60], [2, 3], [9, 10]])
def test_cost_runs_split_two_n_in_two(ns):
    # The second n costs more than the first, which alone is under half the
    # total: each still gets its own run, and each its own process.
    assert cli._cost_runs(ns, 2) == [[ns[0]], [ns[1]]]


@pytest.fixture
def pools(monkeypatch):
    """(max_workers, runs mapped) of every process pool the CLI builds; each
    pool maps serially in this process, so no process starts."""
    import concurrent.futures

    built = []

    class SerialPool:
        def __init__(self, max_workers):
            self.max_workers = max_workers

        def __enter__(self):
            return self

        def __exit__(self, *exc_info):
            return False

        def map(self, fn, runs):
            built.append((self.max_workers, len(runs)))
            return map(fn, runs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    return built


def test_verify_all_builds_one_pool(capsys, pools):
    argv = ("verify", "all", "--range", "0..6")
    _, serial = run_cli(capsys, *argv)
    assert pools == []
    _, parallel = run_cli(capsys, *argv, "--jobs", "2")
    assert pools == [(2, 4)]
    assert parallel == serial


@pytest.mark.parametrize("command", [("verify", "thm31"), ("bounds",), ("figure",),
                                     ("asymptotics",), ("boundary",)])
def test_pool_never_outnumbers_the_runs(capsys, pools, command):
    # Three n, each a run of its own: three processes, not 64.
    code, _ = run_cli(capsys, *command, "--range", "2..4", "--jobs", "64")
    assert code == EXIT_OK
    assert pools == [(3, 3)]


@pytest.mark.parametrize("command, runs", [(("verify", "lemma32"), 13), (("bounds",), 13),
                                           (("boundary",), 13), (("figure",), 2),
                                           (("asymptotics",), 2)])
def test_pool_balances_runs_unless_they_sweep_root_tables(capsys, pools, command, runs):
    # Up to eight runs a process (here 13, as no run holds a fraction of an
    # n), taken up as earlier runs finish, whatever an n truly costs; figure
    # and asymptotics sweep all_roots, where a run's first n misses the table
    # of n - 1, so they take one run a process.
    code, _ = run_cli(capsys, *command, "--range", "2..30", "--jobs", "2")
    assert code == EXIT_OK
    assert pools == [(2, runs)]


def test_verify_worker_keeps_each_identity_to_its_domain():
    rows = cli._verify_worker(("kron", "thm31"), 7)
    assert rows and {row["identity"] for row in rows} == {"thm31-parity0", "thm31-parity1"}


def test_subcommands_are_the_commands_table_in_order(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["-h"])
    assert exc.value.code == EXIT_OK
    out = capsys.readouterr().out
    assert out.startswith("usage: invineq [-h] {" + ",".join(COMMANDS) + "} ...\n")
    listed = [line.split()[0] for line in out.split("commands:\n")[1].splitlines()]
    assert listed == list(COMMANDS)


class TestFlagValidation:
    def test_bits_minimum(self):
        with pytest.raises(SystemExit) as exc:
            main(["bounds", "--range", "2..3", "--bits", "32"])
        assert exc.value.code == EXIT_USAGE

    def test_text_format(self, capsys):
        code, out = run_cli(capsys, "boundary", "--range", "1..1",
                            "--format", "text")
        assert code == EXIT_OK
        assert "mu=3" in out


class TestEntryPaths:
    """`python -m invineq.cli`, the console script (main with argv=None)
    and direct calls parse and print the same, whatever layer they load."""

    ENV = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}

    def _module_run(self, *argv):
        return subprocess.run([sys.executable, "-m", "invineq.cli", *argv], env=self.ENV,
                              capture_output=True, text=True, timeout=60)

    @pytest.mark.parametrize("argv", [
        ("boundary", "--range", "1..5"),
        ("verify", "recurrence", "--range", "0..3"),
        ("bounds", "--range", "2..4"),
    ], ids=lambda argv: argv[0])
    def test_module_entry_prints_the_rows_of_main(self, capsys, argv):
        result = self._module_run(*argv)
        assert result.returncode == EXIT_OK, result.stderr
        code, out = run_cli(capsys, *argv)
        assert code == EXIT_OK and result.stdout == out

    def test_console_script_reads_sys_argv(self, capsys, monkeypatch):
        argv = ["boundary", "--range", "1..3", "--format", "csv"]
        monkeypatch.setattr(sys, "argv", ["invineq", *argv])
        assert main() == EXIT_OK
        assert capsys.readouterr().out == run_cli(capsys, *argv)[1]

    @pytest.mark.parametrize("argv", [None, ["-h"], ["bounds", "-h"], ["boundary", "-h"]])
    def test_help_exits_0_with_usage(self, capsys, monkeypatch, argv):
        monkeypatch.setattr(sys, "argv", ["invineq", "-h"])
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == EXIT_OK
        out = capsys.readouterr().out
        assert out.startswith("usage: invineq")
        if argv and argv[0] in COMMANDS:
            # A command's own usage: bounds reads --tol and --bits, boundary neither.
            usage = out.splitlines()[0]
            assert usage.startswith(f"usage: invineq {argv[0]} ")
            takes = argv[0] == "bounds"
            assert ("--tol" in usage, "--bits" in usage) == (takes, takes)

    @pytest.mark.parametrize("argv, message", [
        ([], "the following arguments are required: command"),
        (["nope"], "argument command: invalid choice: 'nope'"),
        (["--range", "1..3"], "argument command: invalid choice: '1..3'"),
    ], ids=["none", "unknown", "option-first"])
    def test_missing_or_unknown_command_exits_2_with_usage(self, capsys, monkeypatch,
                                                            argv, message):
        monkeypatch.setattr(sys, "argv", ["invineq", *argv])
        for call in (argv, None):
            with pytest.raises(SystemExit) as exc:
                main(call)
            assert exc.value.code == EXIT_USAGE
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("usage: invineq") and message in captured.err

    def test_module_entry_without_a_command_exits_2_with_usage(self):
        result = self._module_run()
        assert result.returncode == EXIT_USAGE
        assert result.stdout == "" and result.stderr.startswith("usage: invineq")
