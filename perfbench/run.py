"""Benchmark of the invineq command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of the workloads in benchlib/workloads.py, or ``all``, which
interleaves every workload across the repetitions.  Seed 0 runs each
workload on its canonical n-range; another seed draws an n-set of the same
size from a wider band.  Every repetition is one CLI run in a fresh
interpreter, gated against the committed per-n digests of its JSON rows.

With ``--trace 0`` the end-to-end metrics are the medians over the
repetitions: wall time, CPU time, set-up time (spawn to ``invineq.cli``
imported) and peak resident memory.  With ``--trace 1`` each round also runs
the command with every public function of the program wrapped, and the
metrics are per layer.  A table goes to stdout first; the last line of
stdout is one JSON object with the keys correct, attempted, failed and
metrics.
"""

from __future__ import annotations

import argparse
import json
import sys

from benchlib.measure import (
    END_TO_END,
    PER_LAYER,
    ROOT,
    SRC,
    WORK,
    Session,
    load_digests,
    run_sessions,
    summarize,
)
from benchlib.workloads import WORKLOADS


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def print_end_to_end(session: Session) -> dict[str, dict]:
    name = session.workload.name
    metrics = {}
    print(f"{name} seed={session.seed} n={len(session.ns)} values "
          f"(times scaled to the reference speed; raw median unscaled)")
    print(f"  {'metric':<12} {'unit':<6} {'median':>10} {'q1':>10} {'q3':>10} "
          f"{'tail':>10} {'samples':>7} {'raw median':>10}")
    scaled, raw = session.samples(), session.samples(scaled=False)
    for metric, unit, _ in END_TO_END:
        if not scaled[metric]:
            continue
        stats = summarize(scaled[metric])
        metrics[metric] = {"value": stats["median"], "unit": unit}
        print(f"  {metric:<12} {unit:<6} {stats['median']:>10.4f} {stats['q1']:>10.4f} "
              f"{stats['q3']:>10.4f} {stats['tail']:>10.4f} {stats['samples']:>7} "
              f"{summarize(raw[metric])['median']:>10.4f}")
    ratio = session.failed / session.attempted if session.attempted else 0.0
    print(f"  {'fail_ratio':<12} {'ratio':<6} {ratio:>10.4f}   "
          f"({session.failed} of {session.attempted} n-values failed)")
    return metrics


def print_per_layer(session: Session) -> dict[str, dict]:
    values = session.per_layer()
    print(f"{session.workload.name} seed={session.seed} traced runs={len(session.traced)} "
          f"(* repeats exactly)")
    metrics = {}
    for metric, unit, _, exact in PER_LAYER:
        metrics[metric] = {"value": values[metric], "unit": unit}
        print(f"  {'*' if exact else ' '} {metric:<44} {values[metric]:>16.6g} {unit}")
    return metrics


def save_trace(session: Session) -> None:
    if session.last_spans is None:
        return
    path = WORK / f"{session.workload.name}-seed{session.seed}-spans.json"
    path.write_text(json.dumps(session.last_spans, separators=(",", ":")))
    print(f"  spans of the last traced run: {path.relative_to(ROOT)}")


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    if not (SRC / "invineq" / "cli.py").is_file():
        print(f"error: no invineq sources under {SRC}", file=sys.stderr)
        return 2
    digests = load_digests()
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    sessions = [Session(WORKLOADS[name], args.seed, digests[name]["digests"])
                for name in names]
    run_sessions(sessions, args.seconds, traced=bool(args.trace))

    metrics: dict[str, dict] = {}
    for session in sessions:
        found = print_per_layer(session) if args.trace else print_end_to_end(session)
        if args.trace:
            save_trace(session)
        for problem in session.problems:
            print(f"  FAILED: {problem}")
        prefix = "" if len(sessions) == 1 else f"{session.workload.name}."
        metrics.update({prefix + key: value for key, value in found.items()})
    print(json.dumps({
        "correct": all(session.correct for session in sessions),
        "attempted": sum(session.attempted for session in sessions),
        "failed": sum(session.failed for session in sessions),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
