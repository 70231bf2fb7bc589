"""Fresh-process measurement of the workloads.

Every repetition spawns one interpreter that imports the CLI and runs one
workload command, so the lru caches of the program start empty, as they do
for a user.  The load is a closed loop: one command at a time, the next
only after the previous one exited.

The speed of a shared host drifts by up to 2x over tens of seconds, with
the load of its other tenants.  So a fixed reference computation
(reference.py, which imports nothing from the program) is timed in a fresh
interpreter between repetitions, and each repetition's times are scaled by
REFERENCE_S over the mean reference time measured just before and just
after it: they read as seconds on a machine where the reference takes
REFERENCE_S.  Peak memory and counts are not scaled.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import threading
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

from .spans import SPAN_METRICS, span_metrics, tail
from .workloads import Workload, failed_ns

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
CHILD = BENCH_DIR / "child.py"
REFERENCE = BENCH_DIR / "benchlib" / "reference.py"
DIGESTS = BENCH_DIR / "digests.json"
WORK = ROOT / ".perfbench_work"

MIN_ROUNDS = 3        # timed repetitions per workload, even past --seconds
START_LIMIT_S = 120   # no repetition starts later than this into the run
KILL_LIMIT_S = 170    # a repetition still running then is killed
REFERENCE_S = 0.15    # a typical reference time on a 2-vCPU Xeon host: the unit

# (metric, unit, better); every metric in seconds is scaled
END_TO_END = (
    ("wall_s", "s", "lower"),
    ("cpu_s", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)
TIME_UNITS = ("s", "ms")
TRACE_METRICS = (
    ("trace.wall_s", "s", "lower", False),
    ("trace.overhead_s", "s", "lower", False),
    ("trace.accounted_share", "ratio", "higher", False),
)
PER_LAYER = SPAN_METRICS + TRACE_METRICS


@dataclass
class Rep:
    """One CLI run in a fresh interpreter."""

    exit_code: int
    stdout: bytes
    stderr: bytes
    wall_s: float       # spawn to exit
    cpu_s: float        # user + system time of the process
    peak_rss_mb: float      # high-water resident set of the process
    setup_s: float | None   # spawn to invineq.cli imported
    module: str | None      # where invineq.cli was imported from
    spans: dict | None
    scale: float = 1.0      # REFERENCE_S over the reference time around it


def spawn(cli_args: list[str], traced: bool, timeout: float) -> Rep:
    WORK.mkdir(exist_ok=True)
    base = WORK / f"rep-{os.getpid()}"
    out, err = base.with_suffix(".out"), base.with_suffix(".err")
    report, spans = base.with_suffix(".report.json"), base.with_suffix(".spans.json")
    cmd = [sys.executable, str(CHILD), "--report", str(report)]
    if traced:
        cmd += ["--spans", str(spans)]
    cmd += ["--", *cli_args]
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
    with open(out, "wb") as out_handle, open(err, "wb") as err_handle:
        start = perf_counter()
        proc = subprocess.Popen(cmd, stdin=subprocess.DEVNULL, stdout=out_handle,
                                stderr=err_handle, cwd=ROOT, env=env)
        timer = threading.Timer(max(timeout, 1.0), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        end = perf_counter()
    proc.returncode = os.waitstatus_to_exitcode(status)
    setup_s = module = None
    peak_rss_mb = 0.0
    if report.exists():
        meta = json.loads(report.read_text())
        setup_s = meta["import_done"] - start
        module = meta["module"]
        peak_rss_mb = meta["peak_rss_kb"] / 1024
    rep = Rep(
        exit_code=proc.returncode,
        stdout=out.read_bytes(),
        stderr=err.read_bytes(),
        wall_s=end - start,
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=peak_rss_mb,
        setup_s=setup_s,
        module=module,
        spans=json.loads(spans.read_text()) if traced and spans.exists() else None,
    )
    for path in (out, err, report, spans):
        path.unlink(missing_ok=True)
    return rep


def reference_seconds() -> float:
    """Time of the reference computation in a fresh interpreter."""
    done = subprocess.run([sys.executable, str(REFERENCE)], stdin=subprocess.DEVNULL,
                          capture_output=True, text=True, timeout=KILL_LIMIT_S, check=True)
    return float(done.stdout)


def load_digests() -> dict:
    return json.loads(DIGESTS.read_text())


class Session:
    """The repetitions of one workload on one seed's n-set."""

    def __init__(self, workload: Workload, seed: int, digests: dict[str, str]):
        self.workload = workload
        self.seed = seed
        self.ns = workload.nset(seed)
        self.args = workload.cli_args(self.ns)
        self.digests = digests
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.plain: list[Rep] = []
        self.traced: list[tuple[Rep, dict[str, float]]] = []
        self._first_stdout: bytes | None = None
        self.last_spans: dict | None = None

    def warm_up(self, traced: bool) -> None:
        """One untimed run on the smallest n, so that bytecode is compiled
        and files are cached before anything is timed."""
        spawn(self.workload.cli_args([self.workload.lo]), traced, KILL_LIMIT_S)

    def run(self, traced: bool, timeout: float, reference_before: float) -> float:
        """Run the command once and time the reference after it; returns
        that reference time, which is the next repetition's 'before'."""
        rep = spawn(self.args, traced, timeout)
        reference_after = reference_seconds()
        rep.scale = 2 * REFERENCE_S / (reference_before + reference_after)
        self.attempted += len(self.ns)
        problem = self._check(rep, traced)
        if problem is not None:
            self.failed += len(self.ns) if problem[1] is None else len(problem[1])
            self.problems.append(problem[0])
        elif not traced:
            self.plain.append(rep)
        else:
            values = span_metrics(rep.spans["spans"], rep.spans["meta"]["cache_misses"])
            values["trace.wall_s"] = rep.wall_s
            values["trace.accounted_share"] = (values["trace.self_sum_s"]
                                               / (rep.wall_s - rep.setup_s))
            for name, unit, _, _ in PER_LAYER:
                if unit in TIME_UNITS and name in values:
                    values[name] *= rep.scale
            self.traced.append((rep, values))
            self.last_spans = rep.spans
        return reference_after

    def _check(self, rep: Rep, traced: bool) -> tuple[str, set[int] | None] | None:
        """None when the run is correct, else (reason, failed n-values or
        None for all of them)."""
        mode = "traced" if traced else "untraced"
        if rep.exit_code != 0:
            tail_err = rep.stderr.decode(errors="replace").strip().splitlines()[-1:]
            return f"{mode} run exited {rep.exit_code}: {' '.join(tail_err)}", None
        if rep.module is None or not Path(rep.module).resolve().is_relative_to(SRC.resolve()):
            return f"{mode} run imported invineq from {rep.module}, not {SRC}", None
        if traced and rep.spans is None:
            return "traced run wrote no spans", None
        bad = failed_ns(self.workload, self.ns, rep.stdout, self.digests)
        if bad:
            return f"{mode} run: wrong rows for n={sorted(bad)}", bad
        if self._first_stdout is None:
            self._first_stdout = rep.stdout
        elif rep.stdout != self._first_stdout:
            return f"{mode} run: stdout differs from an earlier run", None
        return None

    # -- results -------------------------------------------------------------

    def samples(self, scaled: bool = True) -> dict[str, list[float]]:
        return {name: [getattr(rep, name) * (rep.scale if scaled and unit in TIME_UNITS else 1)
                       for rep in self.plain]
                for name, unit, _ in END_TO_END}

    def per_layer(self) -> dict[str, float]:
        """Exact metrics from the traced runs, which must agree exactly;
        timings as the median over the traced runs."""
        result: dict[str, float] = {}
        runs = [values for _, values in self.traced]
        for name, _unit, _better, exact in PER_LAYER:
            found = [values[name] for values in runs if name in values]
            if exact:
                if len(set(found)) > 1:
                    self.problems.append(f"{name} differs between traced runs: {found}")
                result[name] = found[0] if found else 0
            else:
                result[name] = statistics.median(found) if found else 0.0
        plain_wall = self.samples()["wall_s"]
        if plain_wall:
            result["trace.overhead_s"] = result["trace.wall_s"] - statistics.median(plain_wall)
        return result

    @property
    def correct(self) -> bool:
        return not self.problems and bool(self.plain)


def run_sessions(sessions: list[Session], seconds: float, traced: bool) -> None:
    """Repeat every session's command, interleaving the sessions, until
    `seconds` have passed and each has MIN_ROUNDS timed repetitions.  With
    `traced`, each round runs every command untraced and traced, taking turns
    at going first."""
    begin = perf_counter()
    for session in sessions:
        session.warm_up(traced=False)
        if traced:
            session.warm_up(traced=True)
    reference = reference_seconds()
    measured_from = perf_counter()
    rounds = 0
    while True:
        now = perf_counter()
        if rounds >= MIN_ROUNDS and now - measured_from >= seconds:
            break
        if now - begin >= START_LIMIT_S and rounds >= 1:
            break
        modes = (False, True) if traced else (False,)
        if traced and rounds % 2:
            modes = modes[::-1]
        for session in sessions:
            for mode in modes:
                reference = session.run(mode, KILL_LIMIT_S - (perf_counter() - begin),
                                        reference)
        rounds += 1


def summarize(values: list[float]) -> dict[str, float]:
    ordered = sorted(values)
    quartiles = statistics.quantiles(ordered, n=4) if len(ordered) > 1 else ordered * 3
    return {"median": statistics.median(ordered), "q1": quartiles[0], "q3": quartiles[2],
            "tail": tail(ordered), "samples": len(ordered)}
