"""The interleaved before/after timer, tools/pairs.py."""

import importlib.util
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PAIRS = ROOT / "tools" / "pairs.py"


def pairs(*argv):
    return subprocess.run([sys.executable, str(PAIRS), *map(str, argv)],
                          capture_output=True, text=True)


def test_one_tree_on_both_sides_prints_identical_stdout():
    done = pairs(ROOT, ROOT, "--pairs", 2, "--", "boundary", "--range", "1..3")
    assert done.returncode == 0, done.stderr
    header, columns, parent, change, wall, rss, *claims, verdict = done.stdout.splitlines()
    assert header == "invineq boundary --range 1..3: 2 pairs, exit 0"
    assert columns.split()[:2] == ["side", "wall_ms"]
    assert parent.split()[0] == "parent" and change.split()[0] == "change"
    assert all(float(cell) > 0 for line in (parent, change) for cell in line.split()[1:])
    assert wall.startswith("  change lower wall: ") and wall.endswith(" of 2 pairs")
    assert rss.startswith("  change lower rss: ")
    assert verdict == "  stdout identical"
    # Two pairs of one tree may read as a gain by chance.
    assert [line.rsplit(": ", 1)[0] for line in claims] == ["  verdict wall", "  verdict rss"]
    assert all(line.rsplit(": ", 1)[1] in ("gain", "unresolved") for line in claims)


def load_pairs():
    spec = importlib.util.spec_from_file_location("pairs", PAIRS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_verdict_needs_nine_tenths_of_the_pairs_and_a_gap_past_the_quartiles():
    verdict = load_pairs().verdict
    parent = [100.0, 101, 102, 103, 104, 105, 106, 107, 108, 109]  # q3 - q1 = 4.5
    assert verdict(parent, [p - 10 for p in parent]) == "gain"
    # Lower in 9 of 10 pairs, the tenth a tie: ties count for neither side.
    assert verdict(parent, [p - 10 for p in parent[:9]] + [109]) == "gain"
    assert verdict(parent, [p - 10 for p in parent[:8]] + [108, 109]) == "unresolved"
    # Lower in every pair, but the medians differ by less than the spread.
    assert verdict(parent, [p - 4 for p in parent]) == "unresolved"
    assert verdict(parent, parent) == "unresolved"


def fake_tree(where: Path, text: str) -> Path:
    """A tree whose CLI prints `text`, timed by the repository's child.py."""
    (where / "perfbench").mkdir(parents=True)
    shutil.copy(ROOT / "perfbench" / "child.py", where / "perfbench")
    package = where / "src" / "invineq"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("")
    (package / "cli.py").write_text(f"def main(argv):\n    print({text!r})\n    return 0\n")
    return where


def test_different_stdout_exits_1(tmp_path):
    done = pairs(fake_tree(tmp_path / "a", "one"), fake_tree(tmp_path / "b", "two"),
                 "--pairs", 2, "--", "figure")
    assert done.returncode == 1
    assert done.stdout.splitlines()[-1] == (
        "  stdout differs: 3 runs differ from the parent's first run")
