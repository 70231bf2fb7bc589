"""Interleaved before/after timing of one invineq command on two source trees.

    python3 tools/pairs.py PARENT_DIR CHANGE_DIR --pairs N -- <invineq args>

Each pair runs the command once on each tree, each run in a fresh
interpreter through that tree's own ``perfbench/child.py``, with
``PYTHONPATH=<dir>/src``, ``PYTHONDONTWRITEBYTECODE=1`` and
``PYTHONHASHSEED=0``.  The side that goes first alternates from pair to
pair, so a drift of the host's speed falls on both sides alike.  One
untimed run per side comes first.

Prints each side's median and quartiles of the wall time (spawn to exit,
in ms) and of the peak resident set (``VmHWM``, read by the child, in MB),
in how many pairs the change had the lower value, and for each metric the
verdict of the claim rule: "gain" when the change is lower in at least nine
tenths of the pairs (ties count for neither side) and its median is below
the parent's by more than the parent's quartile distance (q3 - q1), else
"unresolved".  Exits 1 if any run's stdout or exit code differs from the
parent's first run, else 0.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

SIDES = ("parent", "change")


def parse_args(argv: list[str]) -> tuple[argparse.Namespace, list[str]]:
    if "--" not in argv:
        raise SystemExit("usage: pairs.py PARENT_DIR CHANGE_DIR --pairs N -- <invineq args>")
    split = argv.index("--")
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--pairs", type=int, default=10,
                        help="timed pairs, at least 2 (default %(default)s)")
    args = parser.parse_args(argv[:split])
    if args.pairs < 2:
        parser.error("--pairs must be >= 2")
    return args, argv[split + 1:]


def run_once(tree: Path, cli_args: list[str], work: Path) -> tuple[float, float, bytes, int]:
    """Wall time in ms, peak RSS in MB, stdout and exit code of one run."""
    report = work / "report.json"
    env = {**os.environ, "PYTHONPATH": str(tree / "src"),
           "PYTHONDONTWRITEBYTECODE": "1", "PYTHONHASHSEED": "0"}
    command = [sys.executable, str(tree / "perfbench" / "child.py"),
               "--report", str(report), "--", *cli_args]
    start = time.perf_counter()
    done = subprocess.run(command, env=env, cwd=work, stdout=subprocess.PIPE)
    wall_ms = (time.perf_counter() - start) * 1000
    if not report.exists():
        raise SystemExit(f"{tree}: the child wrote no report (exit {done.returncode})")
    peak_mb = json.loads(report.read_text())["peak_rss_kb"] / 1024
    report.unlink()
    return wall_ms, peak_mb, done.stdout, done.returncode


def summary(values: list[float]) -> tuple[float, float, float]:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return median, q1, q3


def verdict(parent: list[float], change: list[float]) -> str:
    """The claim rule's verdict, "gain" or "unresolved", on a lower-is-better
    metric, from its values in each pair."""
    wins = sum(c < p for p, c in zip(parent, change))
    median, q1, q3 = summary(parent)
    lower = 10 * wins >= 9 * len(parent) and median - summary(change)[0] > q3 - q1
    return "gain" if lower else "unresolved"


def main(argv: list[str]) -> int:
    args, cli_args = parse_args(argv)
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    samples = {side: {"wall": [], "rss": []} for side in SIDES}
    differ = 0
    with tempfile.TemporaryDirectory() as scratch:
        work = Path(scratch)
        _, _, expected, expected_code = run_once(trees["parent"], cli_args, work)
        _, _, out, code = run_once(trees["change"], cli_args, work)
        differ += (out, code) != (expected, expected_code)
        for k in range(args.pairs):
            for side in SIDES if k % 2 == 0 else SIDES[::-1]:
                wall, rss, out, code = run_once(trees[side], cli_args, work)
                samples[side]["wall"].append(wall)
                samples[side]["rss"].append(rss)
                differ += (out, code) != (expected, expected_code)
    print(f"invineq {' '.join(cli_args)}: {args.pairs} pairs, exit {expected_code}")
    print(f"  {'side':<8} {'wall_ms':>9} {'q1':>9} {'q3':>9}   "
          f"{'peak_rss_mb':>11} {'q1':>8} {'q3':>8}")
    for side in SIDES:
        wall, rss = summary(samples[side]["wall"]), summary(samples[side]["rss"])
        print(f"  {side:<8} {wall[0]:>9.1f} {wall[1]:>9.1f} {wall[2]:>9.1f}   "
              f"{rss[0]:>11.2f} {rss[1]:>8.2f} {rss[2]:>8.2f}")
    for metric in ("wall", "rss"):
        wins = sum(c < p for p, c in zip(samples["parent"][metric], samples["change"][metric]))
        print(f"  change lower {metric}: {wins} of {args.pairs} pairs")
    for metric in ("wall", "rss"):
        parent, change = samples["parent"][metric], samples["change"][metric]
        print(f"  verdict {metric}: {verdict(parent, change)}")
    if differ:
        print(f"  stdout differs: {differ} runs differ from the parent's first run")
        return 1
    print("  stdout identical")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
