"""Run the committed mutants: each row of tools/mutants.json breaks one check
of the program, and the tests it names must notice.

    python3 tools/mutants.py [--root DIR]

A row holds a file (relative to the root), an exact snippet of it, its
replacement, the ids of the tests that must fail, and the claim that the
row guards.  The tool copies the tree (``src/``, ``tests/`` and
``pyproject.toml``) to a temporary directory once, and first runs every
named test there unmutated: they must all pass.  Then, one row at a time,
it replaces the snippet, which must occur exactly once, runs only that
row's tests, and restores the file.  A mutant is killed when every one of
its tests fails (a parametrized id fails when any of its cases does).
Prints one line per row and exits 0 when every mutant is killed, 1 when
one survives or a row is broken (a snippet not found exactly once, or
tests that cannot run).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TABLE = Path("tools") / "mutants.json"


def load_table(root: Path) -> list[dict]:
    return json.loads((root / TABLE).read_text())


def run_tests(tree: Path, ids: list[str]) -> tuple[int, set[str]]:
    """pytest's exit code on `ids` in `tree`, and the failed test ids with
    any parametrization suffix dropped."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-rf", "-p", "no:cacheprovider", *ids],
        cwd=tree, env=env, capture_output=True, text=True)
    failed = {line.split()[1].split("[")[0] for line in done.stdout.splitlines()
              if line.startswith("FAILED ")}
    return done.returncode, failed


def verdict(tree: Path, row: dict) -> str:
    """"killed", "SURVIVED", or "BROKEN: <why>" for one row, the tree left
    as it was."""
    path = tree / row["file"]
    text = path.read_text()
    found = text.count(row["snippet"])
    if found != 1:
        return f"BROKEN: the snippet occurs {found} times"
    path.write_text(text.replace(row["snippet"], row["replacement"]))
    try:
        code, failed = run_tests(tree, row["tests"])
    finally:
        path.write_text(text)
    if code not in (0, 1):
        return f"BROKEN: pytest exited {code}"
    return "killed" if failed >= set(row["tests"]) else "SURVIVED"


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--root", type=Path, default=ROOT,
                        help="the tree to mutate (default: this repository)")
    root = parser.parse_args(argv).root
    table = load_table(root)
    with tempfile.TemporaryDirectory() as work:
        tree = Path(work)
        shutil.copytree(root / "src", tree / "src",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copytree(root / "tests", tree / "tests",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(root / "pyproject.toml", tree)
        ids = sorted({test for row in table for test in row["tests"]})
        code, failed = run_tests(tree, ids)
        if code != 0:
            print(f"the unmutated tree fails {sorted(failed) or ids} (pytest exit {code})")
            return 1
        results = [verdict(tree, row) for row in table]
    for row, result in zip(table, results):
        print(f"{result:<9} {row['file']}: {row['claim']}")
    killed = results.count("killed")
    print(f"{killed} of {len(table)} mutants killed")
    return 0 if killed == len(table) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
