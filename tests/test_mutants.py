"""The committed mutant table, tools/mutants.json, and its runner,
tools/mutants.py.  The mutants themselves run only under the tool."""

import importlib.util
import json
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
MUTANTS = ROOT / "tools" / "mutants.py"


def load_mutants():
    spec = importlib.util.spec_from_file_location("mutants", MUTANTS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_snippet_occurs_once_and_every_test_exists():
    table = load_mutants().load_table(ROOT)
    assert table
    for row in table:
        assert set(row) == {"file", "snippet", "replacement", "tests", "claim"}, row
        assert (ROOT / row["file"]).read_text().count(row["snippet"]) == 1, row["claim"]
        assert row["replacement"] != row["snippet"] and row["claim"] and row["tests"]
        for test in row["tests"]:
            path, *names = test.split("::")
            source = (ROOT / path).read_text()
            assert all(re.search(rf"^\s*(class|def) {name}\b", source, re.M)
                       for name in names), test


def fake_tree(where: Path, *replacements: str) -> Path:
    """A package whose one check has one test, and one mutant of the check
    per replacement."""
    (where / "src" / "pkg").mkdir(parents=True)
    (where / "src" / "pkg" / "__init__.py").write_text(
        "def positive(x):\n    return x > 0\n")
    (where / "tests").mkdir()
    (where / "tests" / "test_pkg.py").write_text(
        "from pkg import positive\n\n\ndef test_zero():\n    assert not positive(0)\n")
    (where / "pyproject.toml").write_text('[tool.pytest.ini_options]\npythonpath = ["src"]\n')
    (where / "tools").mkdir()
    (where / "tools" / "mutants.json").write_text(json.dumps([
        {"file": "src/pkg/__init__.py", "snippet": "x > 0", "replacement": replacement,
         "tests": ["tests/test_pkg.py::test_zero"], "claim": f"x > 0, not {replacement}"}
        for replacement in replacements]))
    return where


def test_a_survivor_exits_1(tmp_path, capsys):
    mutants = load_mutants()
    root = fake_tree(tmp_path, "x >= 0", "0 < x")
    assert mutants.main(["--root", str(root)]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "killed    src/pkg/__init__.py: x > 0, not x >= 0",
        "SURVIVED  src/pkg/__init__.py: x > 0, not 0 < x",
        "1 of 2 mutants killed"]
    # The mutants go to a copy: the tree itself is left as it was.
    assert "x > 0" in (root / "src" / "pkg" / "__init__.py").read_text()


def test_a_snippet_not_found_once_is_a_broken_row(tmp_path):
    mutants = load_mutants()
    root = fake_tree(tmp_path, "x >= 0")
    row = dict(mutants.load_table(root)[0], snippet="x < 0")
    assert mutants.verdict(root, row) == "BROKEN: the snippet occurs 0 times"
