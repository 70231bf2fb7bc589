"""The `invineq` command line, read off `cli.COMMANDS` and `OPTIONS`.

The grammar is argparse's: `--name value`, `--name=value` or a unique
prefix of a name; options in any order, before or after `verify`'s
identity, the last of a repeated option winning; `--` ends the options
before the identity.  `-h`/`--help` prints the command list, or after a
command its options, and exits 0.  A value is the token after its option,
even one that starts with "-".  A usage error prints the usage and an
"invineq: error: ..." line on stderr and exits 2.  `cli.main` imports this
module after the layers of its command (README "Start-up").
"""

import sys
from types import SimpleNamespace

DESCRIPTION = ("Exact verification of the determinant identities and certified "
               "eigenvalue bounds for inverse inequalities on the reference square.")


def _integer(low):
    def read(text):
        try:
            value = int(text)
        except ValueError:
            raise ValueError(f"invalid integer value: {text!r}") from None
        if value < low:
            raise ValueError(f"must be >= {low}")
        return value
    return read


def _one_of(choices):
    def read(text):
        if text not in choices:
            raise ValueError(f"invalid choice: {text!r} "
                             f"(choose from {', '.join(map(repr, choices))})")
        return text
    return read


# Each option: its metavar, reader, default and help.  --range defaults to
# the command's own range (COMMANDS); --tol and --bits belong only to the
# commands that COMMANDS marks as reading them.
OPTIONS = {
    "--range": ("RANGE", str, None, "inclusive range A..B or comma list (default {})"),
    "--tol": ("TOL", str, "1/1000000000000", "rational tolerance P/Q or decimal (default 1e-12)"),
    "--bits": ("BITS", _integer(64), 128, "fixed-point fraction bits for decimal output (>= 64)"),
    "--format": ("{json,csv,text}", _one_of(("json", "csv", "text")), None,
                 "canonical json, or a csv or text projection"),
    "--out": ("OUT", str, None, "write output to this path"),
    "--jobs": ("JOBS", _integer(1), 1, "worker processes for per-n computations"),
}
PRECISION = ("--tol", "--bits")
HELP = ("-h", "--help")


def _fail(usage: str, message: str):
    sys.stderr.write(f"{usage}\ninvineq: error: {message}\n")
    sys.exit(2)


def _scan(tokens, readers, usage, help_text):
    """The values of `tokens`, read left to right as argparse reads them:
    each option's value, and verify's identity (its first word), through
    its reader in `readers` as it is met; then the tokens left over."""
    values, extras, ended = {}, [], False
    tokens = iter(tokens)
    for token in tokens:
        if token == "--" and "identity" in readers and not ended:
            ended = True
            continue
        if ended or not token.startswith("-"):
            if "identity" not in readers or "identity" in values:
                extras.append(token)
                continue
            name, value = "identity", token
        else:
            name, eq, value = token.partition("=")
            names = (*HELP, *readers)
            found = [n for n in names if n == name] or [
                n for n in names if n.startswith(name) and len(name) > 2]
            if len(found) != 1:
                extras.append(token)
                continue
            (name,) = found
            if name in HELP:
                if eq:
                    _fail(usage, f"argument -h/--help: ignored explicit argument {value!r}")
                sys.stdout.write(help_text)
                sys.exit(0)
            if not eq:
                value = next(tokens, None)
                if value is None:
                    _fail(usage, f"argument {name}: expected one argument")
        try:
            values[name] = readers[name](value)
        except ValueError as exc:
            _fail(usage, f"argument {name}: {exc}")
    return values, extras


def _help(usage: str, heading: str, rows) -> str:
    return f"{usage}\n\n{heading}:\n" + "".join(f"  {left:<26} {text}\n" for left, text in rows)


def parse(argv: list[str], commands: dict[str, tuple], identities: tuple[str, ...]
          ) -> SimpleNamespace:
    """The command of `argv` (the first word that does not start with "-"),
    its handler as `func`, verify's identity and every option the command
    takes, as the attributes of one namespace."""
    usage = "usage: invineq [-h] {" + ",".join(commands) + "} ..."
    at = next((i for i, token in enumerate(argv) if not token.startswith("-")), len(argv))
    _, before = _scan(argv[:at], {}, usage, _help(
        f"{usage}\n\n{DESCRIPTION}", "commands",
        [(name, spec[2]) for name, spec in commands.items()]))
    if at == len(argv):
        _fail(usage, "the following arguments are required: command")
    command = argv[at]
    if command not in commands:
        _fail(usage, f"argument command: invalid choice: {command!r} "
                     f"(choose from {', '.join(map(repr, commands))})")
    _, func, _, default_range, precision = commands[command]
    names = [name for name in OPTIONS if precision or name not in PRECISION]
    readers = {name: OPTIONS[name][1] for name in names}
    usage = " ".join([f"usage: invineq {command} [-h]",
                      *(f"[{name} {OPTIONS[name][0]}]" for name in names)])
    if command == "verify":
        readers["identity"] = _one_of(identities)
        usage += " {" + ",".join(identities) + "}"
    values, extras = _scan(argv[at + 1:], readers, usage, _help(
        usage, "options", [("-h, --help", "show this help message and exit"),
                           *((f"{name} {OPTIONS[name][0]}",
                              OPTIONS[name][3].format(default_range)) for name in names)]))
    if "identity" in readers and "identity" not in values:
        _fail(usage, "the following arguments are required: identity")
    if before or extras:
        _fail(usage, f"unrecognized arguments: {' '.join(before + extras)}")
    values = {name: OPTIONS[name][2] for name in names} | {"--range": default_range} | values
    return SimpleNamespace(command=command, func=func,
                           **{name.lstrip("-"): value for name, value in values.items()})
