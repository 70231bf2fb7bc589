"""Per-layer spans recorded from outside the program, and the metrics
derived from them.

A traced run wraps the public functions of each invineq module and rebinds
every copy that an importing module holds, because the modules import names
directly (``from .roots import sign_at``).  Each call becomes a span: id,
parent, name, trace id, start, end.  The trace id is the ``n`` handled by the
CLI worker the call runs under.  Spans are kept in memory and written once,
when the run ends.

To keep memory small, a call that makes no traced call of its own (a leaf,
such as ``roots.sign_at``) is folded into one span per (parent, name) that
carries the call count and the summed duration.  Self time is unchanged by
the folding: a span's self time is its duration minus the durations of its
children, and children never overlap because the CLI runs with ``--jobs 1``.

A span record is the list
``[id, parent, name, trace, start, end, count, dur, attrs]``; ``attrs`` is
``None`` or a dict of numbers, where a key ending in ``_max`` is folded by
maximum and any other key by sum.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import sys
from collections import defaultdict
from time import perf_counter

ID, PARENT, NAME, TRACE, START, END, COUNT, DUR, ATTRS = range(9)

# (span name, module, attribute).  A dotted attribute is a class attribute.
# A metric "<prefix>.<stat>" sums over the spans named <prefix> or
# <prefix>.<anything>, so the first component is the layer.
TARGETS = (
    ("exact.pochhammer", "invineq.exact", "pochhammer"),
    ("exact.sqrt_bounds", "invineq.exact", "sqrt_bounds"),
    ("exact.cbrt_bounds", "invineq.exact", "cbrt_bounds"),
    ("exact.pi_bounds", "invineq.exact", "pi_bounds"),
    ("polynomial.eval", "invineq.polynomial", "RatPoly.__call__"),
    ("polynomial.mul", "invineq.polynomial", "RatPoly.__mul__"),
    ("polynomial.poly_interpolate", "invineq.polynomial", "poly_interpolate"),
    ("matrices.eval_at", "invineq.matrices", "PolyMatrix.eval_at"),
    ("matrices.build.mass", "invineq.matrices", "build_mass"),
    ("matrices.build.stiffness", "invineq.matrices", "build_stiffness"),
    ("matrices.build.mass_1d", "invineq.matrices", "build_mass_1d"),
    ("matrices.build.stiffness_1d", "invineq.matrices", "build_stiffness_1d"),
    ("matrices.build.kronecker", "invineq.matrices", "kronecker"),
    ("matrices.build.pencil", "invineq.matrices", "build_pencil"),
    ("matrices.build.parity_block", "invineq.matrices", "build_parity_block"),
    ("matrices.build.boundary", "invineq.matrices", "build_boundary"),
    ("matrices.build.legendre_hook", "invineq.matrices", "build_legendre_hook"),
    ("matrices.build.split_parity_blocks", "invineq.matrices", "split_parity_blocks"),
    ("charpoly.char_coeff", "invineq.charpoly", "char_coeff"),
    ("charpoly.char_poly", "invineq.charpoly", "char_poly"),
    ("charpoly.char_poly_by_summation", "invineq.charpoly", "char_poly_by_summation"),
    ("charpoly.det_prefactor", "invineq.charpoly", "det_prefactor"),
    ("charpoly.inverse_column", "invineq.charpoly", "inverse_column"),
    ("charpoly.verify_inverse_identity", "invineq.charpoly", "verify_inverse_identity"),
    ("charpoly.recurrence_residual", "invineq.charpoly", "recurrence_residual"),
    ("determinants.det_rational", "invineq.determinants", "det_rational"),
    ("determinants.det_poly", "invineq.determinants", "det_poly"),
    ("determinants.verify.thm31", "invineq.determinants", "verify_thm31"),
    ("determinants.verify.corollary_full", "invineq.determinants", "verify_corollary_full"),
    ("determinants.verify.cauchy", "invineq.determinants", "verify_cauchy"),
    ("determinants.verify.boundary", "invineq.determinants", "verify_boundary"),
    ("determinants.verify.legendre_hooks", "invineq.determinants", "verify_legendre_hooks"),
    ("determinants.verify.kron_factorization", "invineq.determinants",
     "verify_kron_factorization"),
    ("roots.int_coeffs", "invineq.roots", "int_coeffs"),
    ("roots.sign_at", "invineq.roots", "sign_at"),
    ("roots.sturm_chain", "invineq.roots", "sturm_chain"),
    ("roots.count_roots", "invineq.roots", "count_roots"),
    ("roots.refine", "invineq.roots", "refine"),
    ("roots.isolate_all", "invineq.roots", "isolate_all"),
    ("roots.largest_root", "invineq.roots", "largest_root"),
    ("roots.smallest_root", "invineq.roots", "smallest_root"),
    ("roots.bisect_sign_change", "invineq.roots", "bisect_sign_change"),
    ("roots.interval_eval", "invineq.roots", "interval_eval"),
    ("spectra.coefficient_dominance_holds", "invineq.spectra", "coefficient_dominance_holds"),
    ("spectra.surd_sign_of_poly", "invineq.spectra", "surd_sign_of_poly"),
    ("spectra.bound_lower", "invineq.spectra", "bound_lower"),
    ("spectra.cubic_bound_poly", "invineq.spectra", "cubic_bound_poly"),
    ("spectra.bound_upper", "invineq.spectra", "bound_upper"),
    ("spectra.max_root", "invineq.spectra", "max_root"),
    ("spectra.refine_max_root", "invineq.spectra", "refine_max_root"),
    ("spectra.all_roots", "invineq.spectra", "all_roots"),
    ("spectra.smallest_root_of_index", "invineq.spectra", "smallest_root_of_index"),
    ("spectra.bound_report", "invineq.spectra", "bound_report"),
    ("spectra.max_boundary_eigenvalue", "invineq.spectra", "max_boundary_eigenvalue"),
    ("spectra.boundary_factor_roots", "invineq.spectra", "boundary_factor_roots"),
    ("cli.main", "invineq.cli", "main"),
    ("cli.worker", "invineq.cli", "_verify_worker"),
    ("cli.worker", "invineq.cli", "_bounds_worker"),
    ("cli.worker", "invineq.cli", "_figure_worker"),
    ("cli.worker", "invineq.cli", "_boundary_worker"),
)

# A worker handles one n, its last positional argument: that n is the
# trace id of every span under it.
WORKER = "cli.worker"

# Spans whose sign_at children are bisection steps, and the root-finding
# entry points whose count_roots calls are charged to the roots they return.
BISECTORS = ("roots.refine", "roots.bisect_sign_change")
ISOLATORS = ("roots.isolate_all", "roots.largest_root", "roots.smallest_root")


def fraction_free_mults(dim: int) -> int:
    """Multiplications of fraction-free (Bareiss) elimination of a dim x dim
    matrix: two per updated entry, sum over k of 2 (dim-1-k)^2."""
    return (dim - 1) * dim * (2 * dim - 1) // 3 if dim > 1 else 0


def _bits(values) -> int:
    return max((abs(v).bit_length() for v in values), default=0)


class Tracer:
    """Records spans for the wrapped functions of one process."""

    def __init__(self) -> None:
        self.records: list[list] = []
        self._stack: list[list] = []
        self._next_id = 0
        self._patches: list[tuple[object, str, object]] = []
        # The unwrapped target of each "module.attribute" installed.
        self.originals: dict[str, object] = {}
        self._bits_by_list: dict[int, tuple[object, int]] = {}

    # -- recording -------------------------------------------------------

    def _new_id(self) -> int:
        self._next_id += 1
        return self._next_id

    def _coeff_bits(self, coeffs: list[int]) -> int:
        # Chains reuse the same coefficient lists for many sign_at calls;
        # the list is kept alive so that its id is not reused.
        hit = self._bits_by_list.get(id(coeffs))
        if hit is None or hit[0] is not coeffs:
            hit = (coeffs, _bits(coeffs))
            self._bits_by_list[id(coeffs)] = hit
        return hit[1]

    def _measure(self, name: str, args: tuple, result) -> dict | None:
        if name == "roots.sign_at":
            return {"coeff_bits_max": self._coeff_bits(args[0])}
        if name == "roots.sturm_chain":
            return {"length": len(result)}
        if name == "roots.isolate_all":
            return {"roots": len(result)}
        if name in ISOLATORS:
            return {"roots": 1}
        if name == "matrices.eval_at":
            return {"entries": args[0].dim ** 2}
        if name == "determinants.det_rational":
            dim = args[0].dim
            return {"dim_max": dim, "ops": fraction_free_mults(dim)}
        if name == "charpoly.char_poly":
            coeffs = result.poly.coeffs
            return {"coeff_bits_max": max(_bits(c.numerator for c in coeffs),
                                          _bits(c.denominator for c in coeffs))}
        return None

    def _close(self, frame: list, start: float, end: float, attrs: dict | None) -> None:
        self._stack.pop()
        span_id, parent, name, trace, has_children, folded = frame
        dur = end - start
        if parent is not None:
            parent[4] = True
            if not has_children:
                bucket = parent[5].get(name)
                if bucket is None:
                    parent[5][name] = [start, end, 1, dur, dict(attrs) if attrs else {}]
                else:
                    bucket[1] = end
                    bucket[2] += 1
                    bucket[3] += dur
                    if attrs:
                        _fold_attrs(bucket[4], attrs)
                return
        self.records.append([span_id, parent[0] if parent else None, name, trace,
                             start, end, 1, dur, attrs])
        for child, (c_start, c_end, count, c_dur, c_attrs) in folded.items():
            self.records.append([self._new_id(), span_id, child, trace,
                                 c_start, c_end, count, c_dur, c_attrs or None])

    def wrap(self, name: str, fn):
        stack = self._stack
        close = self._close
        new_id = self._new_id
        measure = self._measure
        is_worker = name == WORKER

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            if is_worker:
                trace = args[-1]
            else:
                trace = parent[3] if parent is not None else None
            # [id, parent frame, name, trace, has children, folded leaves by name]
            frame = [new_id(), parent, name, trace, False, {}]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                close(frame, start, perf_counter(), None)
                raise
            end = perf_counter()
            close(frame, start, end, measure(name, args, result))
            return result

        return traced

    # -- patching ----------------------------------------------------------

    def install(self) -> None:
        """Wrap every target and rebind every invineq module's copy of it."""
        wrappers: dict[int, tuple[object, object]] = {}
        for name, module_name, attr in TARGETS:
            module = importlib.import_module(module_name)
            owner_name, _, attr_name = attr.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name)
                original = owner.__dict__[attr_name]
                setattr(owner, attr_name, self.wrap(name, original))
                self._patches.append((owner, attr_name, original))
            else:
                original = getattr(module, attr_name)
                wrappers[id(original)] = (original, self.wrap(name, original))
            self.originals[f"{module_name}.{attr}"] = original
        for module in invineq_modules():
            for key, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, key, hit[1])
                    self._patches.append((module, key, value))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    def cache_misses(self) -> dict[str, int]:
        """Misses of every lru-cached target, by qualified name."""
        return {key: fn.cache_info().misses for key, fn in self.originals.items()
                if hasattr(fn, "cache_info")}

    def dump(self, path, meta: dict) -> None:
        # json.dumps, unlike json.dump, uses the C encoder.
        text = json.dumps({"meta": meta, "spans": self.records}, separators=(",", ":"))
        with open(path, "w") as handle:
            handle.write(text)


def _fold_attrs(into: dict, attrs: dict) -> None:
    for key, value in attrs.items():
        if key.endswith("_max"):
            into[key] = max(into.get(key, value), value)
        else:
            into[key] = into.get(key, 0) + value


def invineq_modules():
    return [module for name, module in list(sys.modules.items())
            if module is not None and (name == "invineq" or name.startswith("invineq."))]


# -- analysis -------------------------------------------------------------------


def self_times(spans: list[list]) -> dict[int, float]:
    """Self time of each span: its duration minus its children's."""
    covered: dict[int, float] = defaultdict(float)
    for span in spans:
        if span[PARENT] is not None:
            covered[span[PARENT]] += span[DUR]
    return {span[ID]: span[DUR] - covered.get(span[ID], 0.0) for span in spans}


def _matches(name: str, prefix: str) -> bool:
    return name == prefix or name.startswith(prefix + ".")


def tail(values: list[float]) -> float:
    """The highest percentile with at least ten samples beyond it; with ten
    samples or fewer, the largest."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[len(ordered) - 11] if len(ordered) > 10 else ordered[-1]


# (metric, unit, better, exact).  Exact metrics are counts that repeat
# exactly from run to run; a count claim may rest only on these.
SPAN_METRICS = (
    ("exact.pochhammer.calls", "count", "lower", True),
    ("exact.pochhammer.self_s", "s", "lower", False),
    ("exact.self_s", "s", "lower", False),
    ("charpoly.char_coeff.calls", "count", "lower", True),
    ("charpoly.char_coeff.self_s", "s", "lower", False),
    ("charpoly.char_poly.misses", "count", "lower", True),
    ("charpoly.char_poly.self_s", "s", "lower", False),
    ("charpoly.inverse_column.self_s", "s", "lower", False),
    ("charpoly.coeff_bits_max", "bits", "lower", True),
    ("charpoly.self_s", "s", "lower", False),
    ("spectra.coefficient_dominance_holds.self_s", "s", "lower", False),
    ("spectra.bound_report.per_n_ms_p50", "ms", "lower", False),
    ("spectra.bound_report.per_n_ms_tail", "ms", "lower", False),
    ("spectra.all_roots.per_n_ms_p50", "ms", "lower", False),
    ("spectra.all_roots.per_n_ms_tail", "ms", "lower", False),
    ("spectra.refine_max_root.calls", "count", "lower", True),
    ("spectra.self_s", "s", "lower", False),
    ("roots.sign_at.calls", "count", "lower", True),
    ("roots.sign_at.self_s", "s", "lower", False),
    ("roots.sign_at.coeff_bits_max", "bits", "lower", True),
    ("roots.sturm_chain.calls", "count", "lower", True),
    ("roots.sturm_chain.length_sum", "count", "lower", True),
    ("roots.sturm_chain.self_s", "s", "lower", False),
    ("roots.count_roots.calls", "count", "lower", True),
    ("roots.refine.calls", "count", "lower", True),
    ("roots.refine.self_s", "s", "lower", False),
    ("roots.bisect_sign_change.calls", "count", "lower", True),
    ("roots.bisect_sign_change.self_s", "s", "lower", False),
    ("roots.bisect.steps", "count", "lower", True),
    ("roots.isolate.counts_per_root", "ratio", "lower", True),
    ("roots.self_s", "s", "lower", False),
    ("polynomial.eval.calls", "count", "lower", True),
    ("polynomial.eval.self_s", "s", "lower", False),
    ("polynomial.mul.calls", "count", "lower", True),
    ("polynomial.mul.self_s", "s", "lower", False),
    ("polynomial.poly_interpolate.calls", "count", "lower", True),
    ("polynomial.poly_interpolate.self_s", "s", "lower", False),
    ("polynomial.self_s", "s", "lower", False),
    ("matrices.eval_at.calls", "count", "lower", True),
    ("matrices.eval_at.entries", "count", "lower", True),
    ("matrices.eval_at.self_s", "s", "lower", False),
    ("matrices.build.self_s", "s", "lower", False),
    ("matrices.self_s", "s", "lower", False),
    ("determinants.det_rational.calls", "count", "lower", True),
    ("determinants.det_rational.self_s", "s", "lower", False),
    ("determinants.det_rational.dim_max", "count", "lower", True),
    # Computed from the dimensions, not counted: see fraction_free_mults.
    ("determinants.det_rational.ops", "mul_computed", "lower", True),
    ("determinants.det_poly.calls", "count", "lower", True),
    ("determinants.det_poly.points", "count", "lower", True),
    ("determinants.det_poly.self_s", "s", "lower", False),
    ("determinants.verify.self_s", "s", "lower", False),
    ("determinants.self_s", "s", "lower", False),
    ("cli.self_s", "s", "lower", False),
    ("trace.self_sum_s", "s", "lower", False),
)


def span_metrics(spans: list[list], cache_misses: dict[str, int]) -> dict[str, float]:
    """Every SPAN_METRICS value of one traced run."""
    selfs = self_times(spans)
    by_id = {span[ID]: span for span in spans}
    values: dict[str, float] = {}

    def pick(prefix: str) -> list[list]:
        return [span for span in spans if _matches(span[NAME], prefix)]

    def attr(prefix: str, key: str) -> float:
        found = [(span[ATTRS] or {}).get(key, 0) for span in pick(prefix)]
        if key.endswith("_max"):
            return max(found, default=0)
        return sum(found)

    def parent_name(span: list) -> str | None:
        parent = by_id.get(span[PARENT])
        return parent[NAME] if parent is not None else None

    def has_ancestor(span: list, names: tuple[str, ...]) -> bool:
        parent = by_id.get(span[PARENT])
        while parent is not None:
            if parent[NAME] in names:
                return True
            parent = by_id.get(parent[PARENT])
        return False

    def per_n_ms(prefix: str) -> list[float]:
        return [1000 * span[DUR] / span[COUNT]
                for span in pick(prefix) for _ in range(span[COUNT])]

    for metric, _unit, _better, _exact in SPAN_METRICS:
        prefix, _, stat = metric.rpartition(".")
        if stat == "calls":
            values[metric] = sum(span[COUNT] for span in pick(prefix))
        elif stat == "self_s":
            values[metric] = sum((selfs[span[ID]] for span in pick(prefix)), 0.0)
        elif stat == "per_n_ms_p50":
            samples = per_n_ms(prefix)
            values[metric] = statistics.median(samples) if samples else 0.0
        elif stat == "per_n_ms_tail":
            values[metric] = tail(per_n_ms(prefix))

    values["trace.self_sum_s"] = sum(selfs.values())
    values["charpoly.char_poly.misses"] = cache_misses.get("invineq.charpoly.char_poly", 0)
    values["charpoly.coeff_bits_max"] = attr("charpoly.char_poly", "coeff_bits_max")
    values["roots.sign_at.coeff_bits_max"] = attr("roots.sign_at", "coeff_bits_max")
    values["roots.sturm_chain.length_sum"] = attr("roots.sturm_chain", "length")
    values["matrices.eval_at.entries"] = attr("matrices.eval_at", "entries")
    values["determinants.det_rational.dim_max"] = attr("determinants.det_rational", "dim_max")
    values["determinants.det_rational.ops"] = attr("determinants.det_rational", "ops")
    values["determinants.det_poly.points"] = sum(
        span[COUNT] for span in pick("matrices.eval_at")
        if parent_name(span) == "determinants.det_poly")
    values["roots.bisect.steps"] = sum(
        span[COUNT] for span in pick("roots.sign_at")
        if parent_name(span) in BISECTORS)
    counted = sum(span[COUNT] for span in pick("roots.count_roots")
                  if has_ancestor(span, ISOLATORS))
    found = sum(attr(name, "roots") for name in ISOLATORS)
    values["roots.isolate.counts_per_root"] = counted / found if found else 0.0
    return values
