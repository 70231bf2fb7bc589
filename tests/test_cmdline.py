"""`cmdline.parse` against the argparse parser it replaced.

`reference_parser` is that parser, kept as the oracle.  Over an enumerated
corpus of argv, where argparse accepts, `parse` gives the same values; where
it rejects, both exit 2; where it prints help, both exit 0.
"""

import argparse
from itertools import product

import pytest

from invineq.cli import COMMANDS, VERIFY_IDENTITIES
from invineq.cmdline import parse

IDENTITIES = (*VERIFY_IDENTITIES, "all")


def _int_at_least(low):
    def integer(text):
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}")
        return value
    return integer


def reference_parser():
    """The argparse parser of `invineq`, as `cli.build_parser` built it."""
    parser = argparse.ArgumentParser(
        prog="invineq",
        description="Exact verification of the determinant identities and "
                    "certified eigenvalue bounds for inverse inequalities on "
                    "the reference square.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, func, help_text, default_range, precision) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        if name == "verify":
            p.add_argument("identity", choices=IDENTITIES)
        p.add_argument("--range", default=default_range,
                       help="inclusive range A..B or comma list (default %(default)s)")
        if precision:
            p.add_argument("--tol", default="1/1000000000000",
                           help="rational tolerance P/Q or decimal (default 1e-12)")
            p.add_argument("--bits", type=_int_at_least(64), default=128,
                           help="fixed-point fraction bits for decimal output (>= 64)")
        p.add_argument("--format", choices=("json", "csv", "text"), default=None)
        p.add_argument("--out", default=None, help="write output to this path")
        p.add_argument("--jobs", type=_int_at_least(1), default=1,
                       help="worker processes for per-n computations")
        p.set_defaults(func=func)
    return parser


def _heads():
    """Each command with what it needs: verify with each identity."""
    for command in COMMANDS:
        if command == "verify":
            yield from ((command, identity) for identity in IDENTITIES)
        else:
            yield (command,)


# Option forms: --x v, --x=v, unique prefixes, repeats, every value kind.
GOOD_OPTIONS = [
    (), ("--range", "3..5"), ("--range=3..5",), ("--range", "1,4,9"), ("--ra=7",), ("--r", "2"),
    ("--range", "2..3", "--range", "4..6"), ("--format", "csv"), ("--format=text",),
    ("--form", "json"), ("--f=csv",), ("--out", "x.txt"), ("--o=y",), ("--jobs", "3"),
    ("--j=2",), ("--jobs", "1", "--jobs=4"), ("--jobs", " 7 "), ("--jobs", "1_0"),
    ("--range", ""), ("--out=",), ("--range", "1..2", "--format", "text", "--jobs", "2"),
]
PRECISION_OPTIONS = [
    ("--tol", "1/1000"), ("--tol=1e-30",), ("--t", "0.5"), ("--tol", "-1"), ("--bits", "64"),
    ("--bits=200",), ("--b", "100"), ("--bits", "64", "--bits", "99"),
    ("--tol", "1/7", "--bits", "96", "--range", "2..4"),
]
# Rejected after a valid command: unknown option, missing value, bad value.
BAD_OPTIONS = [
    ("--bogus",), ("--bogus=1",), ("--bogus", "1"), ("-x",), ("--range",), ("--jobs",),
    ("--format", "xml"), ("--format=",), ("--jobs", "0"), ("--jobs=-1",), ("--jobs", "x"),
    ("--jobs", "1.5"), ("--bits", "63"), ("--bits=x",), ("--bits",), ("extra",),
    ("--range", "1..2", "extra"), ("--", "--range", "1..2"), ("--help=x",), ("--=x",),
    ("-", "--range", "1..2"),
]


def corpus_accepted():
    for head, options in product(_heads(), GOOD_OPTIONS):
        yield [*head, *options]
        if head[0] == "verify":
            yield [head[0], *options, head[1]]  # the identity after the options
    for command, spec in COMMANDS.items():
        if spec[4]:
            for options in PRECISION_OPTIONS:
                yield [command, *options]
    yield from (["verify", "--", "thm31"], ["verify", "thm31", "--"],
                ["verify", "--range", "2..3", "--", "all"])


def corpus_rejected():
    for head, options in product(_heads(), BAD_OPTIONS):
        yield [*head, *options]
    for command, spec in COMMANDS.items():
        if not spec[4]:  # --tol and --bits only where COMMANDS says so
            head = [command, "thm31"] if command == "verify" else [command]
            yield from ([*head, "--tol", "1/1000"], [*head, "--bits=64"], [*head, "--t", "1"])
    yield from (
        [], ["nope"], ["Verify"], ["--range", "1..3"], ["--range", "1..3", "bounds"],
        ["--jobs=2", "bounds"], ["--bogus", "boundary"], ["--", "bounds"], ["-", "bounds"],
        ["verify"], ["verify", "nope"], ["verify", "--range", "1..2"], ["verify", "thm31", "all"],
        ["verify", "-5"], ["verify", "--", "--", "thm31"], ["verify", "--", "thm31", "--"],
        ["verify", "--", "thm31", "x"], ["verify", "--", "--range"], ["verify", "nope", "-h"],
        ["bounds", "--bits", "3", "-h"], ["boundary", "--jobs", "0", "--help"],
        *([command, "--"] for command in COMMANDS if command != "verify"),
    )


CORPUS_HELP = [
    ["-h"], ["--help"], ["--he"], ["--h"], ["-h", "bounds"], ["--bogus", "-h"],
    ["--range", "-h"], *([command, "-h"] for command in COMMANDS), ["verify", "thm31", "--help"],
    ["verify", "-h", "nope"], ["boundary", "--h"], ["bounds", "--range", "2..3", "--hel"],
    ["bounds", "--bogus", "-h"], ["figure", "-h", "--jobs", "0"],
]

# The one intended difference: a value that starts with "-", given as its
# own token, is read as the value; argparse rejected it with "expected one
# argument" (a negative number such as `--tol -1` it read as a value too).
DASH_VALUES = [
    (["bounds", "--range", "-1..2"], {"range": "-1..2"}),
    (["verify", "all", "--range", "-3..-1"], {"range": "-3..-1"}),
    (["figure", "--out", "-x.csv"], {"out": "-x.csv"}),
    (["boundary", "--range", "--jobs"], {"range": "--jobs"}),
]


def _outcome(read, argv):
    """("ok", vars) of the namespace, or ("exit", code)."""
    try:
        return "ok", vars(read(argv))
    except SystemExit as exc:
        return "exit", exc.code


def _reference(argv):
    return _outcome(reference_parser().parse_args, argv)


def _new(argv):
    return _outcome(lambda a: parse(a, COMMANDS, IDENTITIES), argv)


def test_accepted_forms_give_argparse_values():
    corpus = list(corpus_accepted())
    expected = [_reference(argv) for argv in corpus]
    assert [argv for argv, want in zip(corpus, expected) if want[0] != "ok"] == []
    assert [argv for argv, want in zip(corpus, expected) if _new(argv) != want] == []


def test_rejected_forms_exit_2_with_usage(capsys):
    corpus = list(corpus_rejected())
    assert [argv for argv in corpus if _reference(argv) != ("exit", 2)] == []
    capsys.readouterr()
    for argv in corpus:
        assert _new(argv) == ("exit", 2), argv
        captured = capsys.readouterr()
        usage, error = captured.err.splitlines()
        assert captured.out == "" and usage.startswith("usage: invineq"), argv
        assert error.startswith("invineq: error: "), argv


def test_help_forms_exit_0_with_usage(capsys):
    assert [argv for argv in CORPUS_HELP if _reference(argv) != ("exit", 0)] == []
    capsys.readouterr()
    for argv in CORPUS_HELP:
        assert _new(argv) == ("exit", 0), argv
        captured = capsys.readouterr()
        assert captured.out.startswith("usage: invineq") and captured.err == "", argv


def test_a_value_starting_with_a_dash_is_read_as_the_value(capsys):
    for argv, values in DASH_VALUES:
        assert _reference(argv) == ("exit", 2)
        assert "expected one argument" in capsys.readouterr().err
        status, got = _new(argv)
        assert status == "ok" and got.items() >= values.items(), argv


def test_errors_name_what_argparse_named(capsys):
    # The messages a script may match on stay argparse's, word for word.
    for argv, message in (([], "the following arguments are required: command"),
                          (["nope"], "argument command: invalid choice: 'nope'"),
                          (["--range", "1..3"], "argument command: invalid choice: '1..3'"),
                          (["verify"], "the following arguments are required: identity"),
                          (["bounds", "--bits", "63"], "argument --bits: must be >= 64"),
                          (["boundary", "--jobs", "x"],
                           "argument --jobs: invalid integer value: 'x'"),
                          (["bounds", "--bogus", "1"], "unrecognized arguments: --bogus 1")):
        for read in (reference_parser().parse_args,
                     lambda a: parse(a, COMMANDS, IDENTITIES)):
            with pytest.raises(SystemExit):
                read(argv)
            assert message in capsys.readouterr().err
