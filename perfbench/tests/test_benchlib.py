"""Tests of the benchmark itself: self-time arithmetic, the rebinding of
every importer's copy of a traced function, byte-identical traced output,
and the digest gate."""

import dataclasses
import json
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH_DIR))

from benchlib import measure, spans, workloads  # noqa: E402

if str(measure.SRC) not in sys.path:
    sys.path.append(str(measure.SRC))

ID, NAME, COUNT = spans.ID, spans.NAME, spans.COUNT


def _span(span_id, parent, name, dur, count=1, attrs=None, trace=3):
    return [span_id, parent, name, trace, 0.0, dur, count, dur, attrs]


# cli.main 10 s > worker 5.5 s > isolate_all 5.2 s (2 roots)
#   > refine 3 s > 40 folded sign_at calls, 2 s
#   > count_roots 1 s > 4 folded sign_at calls, 0.5 s
# cli.main > 3 folded pochhammer calls, 1.5 s
SYNTHETIC = [
    _span(1, None, "cli.main", 10.0, trace=None),
    _span(2, 1, "cli.worker", 5.5),
    _span(8, 2, "roots.isolate_all", 5.2, attrs={"roots": 2}),
    _span(3, 8, "roots.refine", 3.0),
    _span(4, 3, "roots.sign_at", 2.0, count=40, attrs={"coeff_bits_max": 9}),
    _span(5, 8, "roots.count_roots", 1.0),
    _span(6, 5, "roots.sign_at", 0.5, count=4, attrs={"coeff_bits_max": 12}),
    _span(7, 1, "exact.pochhammer", 1.5, count=3, trace=None),
]


def test_self_times_of_a_synthetic_tree():
    selfs = spans.self_times(SYNTHETIC)
    expected = {1: 3.0, 2: 0.3, 8: 1.2, 3: 1.0, 4: 2.0, 5: 0.5, 6: 0.5, 7: 1.5}
    assert selfs == pytest.approx(expected)
    assert sum(selfs.values()) == pytest.approx(10.0)


def test_layer_metrics_of_a_synthetic_tree():
    values = spans.span_metrics(SYNTHETIC, {"invineq.charpoly.char_poly": 7})
    assert values["cli.self_s"] == pytest.approx(3.3)
    assert values["roots.self_s"] == pytest.approx(5.2)
    assert values["roots.refine.self_s"] == pytest.approx(1.0)
    assert values["exact.pochhammer.self_s"] == pytest.approx(1.5)
    assert values["trace.self_sum_s"] == pytest.approx(10.0)
    assert values["roots.sign_at.calls"] == 44
    assert values["roots.bisect.steps"] == 40
    assert values["roots.sign_at.coeff_bits_max"] == 12
    assert values["roots.isolate.counts_per_root"] == pytest.approx(0.5)
    assert values["exact.pochhammer.calls"] == 3
    assert values["charpoly.char_poly.misses"] == 7
    assert {name for name, *_ in spans.SPAN_METRICS} <= set(values)


def test_recorded_leaves_fold_without_changing_self_time():
    tracer = spans.Tracer()
    inner = tracer.wrap("roots.sign_at", lambda coeffs, x: sum(coeffs) * x)
    outer = tracer.wrap("roots.refine", lambda: [inner([1, 2, 3], x) for x in range(3)])
    assert outer() == [0, 6, 12]
    by_name = {record[NAME]: record for record in tracer.records}
    assert set(by_name) == {"roots.refine", "roots.sign_at"}
    assert by_name["roots.sign_at"][COUNT] == 3
    assert by_name["roots.sign_at"][spans.PARENT] == by_name["roots.refine"][ID]
    assert by_name["roots.sign_at"][spans.ATTRS] == {"coeff_bits_max": 2}
    selfs = spans.self_times(tracer.records)
    assert sum(selfs.values()) == pytest.approx(by_name["roots.refine"][spans.DUR])


def test_install_rebinds_every_importer_and_uninstall_restores():
    import invineq.cli  # noqa: F401  (loads every invineq module)
    from invineq import spectra
    from invineq.polynomial import RatPoly

    tracer = spans.Tracer()
    tracer.install()
    try:
        originals = tracer.originals
        for module in spans.invineq_modules():
            for key, value in vars(module).items():
                held = [name for name, fn in originals.items() if value is fn]
                assert not held, f"{module.__name__}.{key} still holds {held}"
        assert RatPoly.__call__ is not originals["invineq.polynomial.RatPoly.__call__"]
        spectra.bound_report(6)
        names = {record[NAME] for record in tracer.records}
        assert {"spectra.bound_report", "charpoly.char_coeff", "roots.sign_at"} <= names
    finally:
        tracer.uninstall()
    assert spectra.sign_at is originals["invineq.roots.sign_at"]
    assert RatPoly.__dict__["__call__"] is originals["invineq.polynomial.RatPoly.__call__"]


def _small(name: str, hi: int) -> workloads.Workload:
    return dataclasses.replace(workloads.WORKLOADS[name], hi=hi)


def test_traced_stdout_is_byte_identical():
    workload = _small("figure-roots", 12)
    args = workload.cli_args(workload.nset(0))
    plain = measure.spawn(args, traced=False, timeout=120)
    traced = measure.spawn(args, traced=True, timeout=120)
    assert plain.exit_code == traced.exit_code == 0
    assert plain.stdout == traced.stdout
    assert traced.spans["spans"] and plain.spans is None
    digests = measure.load_digests()["figure-roots"]["digests"]
    assert workloads.failed_ns(workload, workload.nset(0), traced.stdout, digests) == set()


def test_forced_digest_mismatch_raises_fail_ratio():
    workload = _small("boundary-dets", 4)
    digests = dict(measure.load_digests()["boundary-dets"]["digests"])
    digests["3"] = "0" * 64
    session = measure.Session(workload, 0, digests)
    session.run(traced=False, timeout=120, reference_before=measure.REFERENCE_S)
    assert (session.failed, session.attempted) == (1, 4)
    assert not session.plain and not session.correct
    assert "n=[3]" in session.problems[0]


def test_altered_rows_fail_only_their_n():
    workload = _small("boundary-dets", 3)
    rows = [json.dumps({"n": n, "mu": str(n * (n + 3) // 2 + n % 2), "ok": True})
            for n in (1, 2, 3)]
    digests = {str(n): workloads.digest([row.encode()]) for n, row in zip((1, 2, 3), rows)}
    stdout = "\n".join(rows).encode() + b"\n"
    assert workloads.failed_ns(workload, [1, 2, 3], stdout, digests) == set()
    altered = stdout.replace(b'"mu": "5"', b'"mu": "6"')
    assert workloads.failed_ns(workload, [1, 2, 3], altered, digests) == {2}
    assert workloads.failed_ns(workload, [1, 2], stdout, digests) == {1, 2}


def test_seeds_draw_distinct_sets_of_the_canonical_size_with_digests():
    table = measure.load_digests()
    for name, workload in workloads.WORKLOADS.items():
        canonical = workload.nset(0)
        assert canonical == list(range(workload.lo, workload.hi + 1))
        lo, hi = workload.band
        assert table[name]["band"] == [lo, hi]
        for seed in (1, 2, 17):
            ns = workload.nset(seed)
            assert ns == workload.nset(seed)
            assert len(ns) == len(canonical) == len(set(ns))
            assert lo <= min(ns) and max(ns) <= hi
            assert all(str(n) in table[name]["digests"] for n in ns)


def test_benchmark_json_names_every_metric_and_workload():
    spec = json.loads((measure.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [m["name"] for m in spec["end_to_end"]] == [m for m, *_ in measure.END_TO_END]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        (m, unit, better) for m, unit, better, _ in measure.PER_LAYER]
