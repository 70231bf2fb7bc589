"""Run the invineq CLI once, in this fresh interpreter.

    python3 perfbench/child.py --report R.json [--spans S.json] -- <cli args>

The CLI writes its output to this process's stdout as usual.  R.json gets
the clock reading taken as soon as ``invineq.cli`` is imported, the reading
when the CLI returned, its exit code and the peak resident set.  With
``--spans``, the public functions of every invineq module are traced and
the spans are written to S.json after the CLI returns.  Clock readings are ``time.perf_counter``,
which on Linux is the system-wide monotonic clock, so the parent can
subtract its own reading at spawn.
"""

import sys
import time


def main(argv: list[str]) -> int:
    split = argv.index("--")
    own, cli_args = argv[:split], argv[split + 1:]
    report_path = own[own.index("--report") + 1]
    spans_path = own[own.index("--spans") + 1] if "--spans" in own else None

    import invineq.cli
    import_done = time.perf_counter()

    import json

    tracer = None
    if spans_path is not None:
        from benchlib.spans import Tracer

        tracer = Tracer()
        tracer.install()
    try:
        code = invineq.cli.main(cli_args)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
    main_end = time.perf_counter()
    sys.stdout.flush()
    if tracer is not None:
        tracer.dump(spans_path, {"cache_misses": tracer.cache_misses()})
    with open(report_path, "w") as handle:
        json.dump({"import_done": import_done, "main_end": main_end, "exit": code,
                   "module": invineq.cli.__file__, "peak_rss_kb": peak_rss_kb()}, handle)
    return code


def peak_rss_kb() -> int:
    """Peak resident set of this process since exec.  The rusage maxrss a
    parent gets from wait4 would also count the parent's own resident set
    at fork."""
    with open("/proc/self/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
