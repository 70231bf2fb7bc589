"""Certified real-root machinery over exact rationals.

Every routine reads the primitive integer part of a `RatPoly` (its content
is positive, so it cannot change a sign); all sign evaluations are integer
Horner passes.  Root counting uses Sturm sequences built by integer
pseudo-division (`_pdiv`) as a primitive pseudo-remainder sequence (each
element is a positive rational multiple of the classical Sturm chain
element, which preserves sign variations while keeping coefficients
integral).

`_isolating` is the one halving descent: it cuts (lo, hi] into isolating
intervals, rightmost first, under any count of the roots in (lo, x], Sturm
variations for `isolate_all` and `largest_root` (the tests' oracle) or the
continuant counts of `hooks.continuant_count` for `spectra._root_cells`.
`_interlaced` needs no count: given separators on a grid, it certifies all
roots of a degree-d polynomial when d of the brackets they cut show a sign
change, else reports failure.
`_grid_refine` is the only refinement loop, behind `refine`,
`bisect_sign_change` and `_interlaced`.  It finds the cell of an index
bracket on a global dyadic grid that bisection to the tolerance would end
in, by safeguarded Newton steps on the grid's integers with no `Fraction`
arithmetic, from an optional first point: a hint that the exact signs
overrule, and a derivative only where a Newton step may start.  `_Grid` is
the only code that converts between grid indices and rationals, and gives a
cell as a root table holds it: (lo, hi, den) for [lo/den, hi/den].
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Callable, Iterable, Iterator, Sequence

from .exact import Rational
from .polynomial import RatPoly, horner, primitive_split
from .records import Record

IntPoly = list[int]


class RootIsolationError(Exception):
    """Internal inconsistency while isolating roots (e.g. an impossible
    Sturm count); indicates a bug or a violated structural assumption."""


class Enclosure(Record):
    """Interval [lo, hi] certified to contain a specific real root."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo: Fraction, hi: Fraction):
        if lo > hi:
            raise ValueError("enclosure needs lo <= hi")
        Record.__init__(self, lo, hi)

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    @property
    def cell(self) -> tuple[int, int, int]:
        """[lo, hi] as (lo_num, hi_num, den), over one positive denominator."""
        lo, hi = self.lo, self.hi
        return (lo.numerator * hi.denominator, hi.numerator * lo.denominator,
                lo.denominator * hi.denominator)

    @property
    def mid(self) -> Fraction:
        lo, hi, den = self.cell
        return Fraction(lo + hi, 2 * den)

    @property
    def is_exact(self) -> bool:
        return self.lo == self.hi

    def __float__(self) -> float:
        return float(self.mid)

    def overlaps(self, other: "Enclosure") -> bool:
        return self.lo <= other.hi and other.lo <= self.hi


def int_coeffs(poly: RatPoly) -> IntPoly:
    """Primitive integer coefficient list, a positive multiple of `poly`."""
    return list(poly.primitive)


def sign_at(coeffs: IntPoly, x: Rational) -> int:
    """Sign of the integer polynomial at rational x."""
    v, _ = horner(coeffs, x)
    return (v > 0) - (v < 0)


def _pdiv(a: IntPoly, b: IntPoly) -> tuple[IntPoly, IntPoly, int]:
    """Pseudo-division over the integers.

    Returns (q, r, k) with lc(b)^k * a == q * b + r and deg r < deg b; k is
    the number of reduction steps actually performed.
    """
    q = [0] * max(len(a) - len(b) + 1, 0)
    r = list(a)
    lb = b[-1]
    db = len(b) - 1
    k = 0
    while r and len(r) - 1 >= db:
        lead = r[-1]
        shift = len(r) - 1 - db
        q = [c * lb for c in q]
        q[shift] += lead
        r = [c * lb for c in r]
        for i, bc in enumerate(b):
            r[shift + i] -= lead * bc
        while r and r[-1] == 0:
            r.pop()
        k += 1
    return q, r, k


def _exact_div(a: IntPoly, b: IntPoly) -> IntPoly:
    """Primitive positive multiple of the quotient a / b, for integer
    polynomials with b | a over Q."""
    q, r, k = _pdiv(a, b)
    if r:
        raise RootIsolationError("inexact polynomial division")
    if b[-1] < 0 and k % 2:
        q = [-c for c in q]
    return primitive_split(q)[1]


def sturm_chain(coeffs: IntPoly) -> list[IntPoly]:
    """Sturm sequence of an integer polynomial.

    Each element is a positive multiple of the classical chain element
    p0 = p, p1 = p', p_{i+1} = -rem(p_{i-1}, p_i), so sign-variation counts
    are unchanged.  Inputs with repeated roots are replaced by their
    squarefree part (same distinct roots) before the chain is built.
    """
    if not coeffs:
        raise ValueError("zero polynomial has no Sturm chain")
    chain = [list(coeffs)]
    if len(coeffs) == 1:
        return chain
    deriv = [i * c for i, c in enumerate(coeffs)][1:]
    chain.append(primitive_split(deriv)[1])
    while len(chain[-1]) > 1:
        a, b = chain[-2], chain[-1]
        _, r, steps = _pdiv(a, b)
        if not r:
            # b divides a: the chain stalled on a nonconstant gcd, so the
            # input has a repeated root.  Restart on the squarefree part.
            return sturm_chain(_exact_div(chain[0], b))
        # r == lc(b)^steps * rem(a, b); flip so the stored element is a
        # positive multiple of -rem(a, b).
        if (b[-1] > 0) or (steps % 2 == 0):
            r = [-c for c in r]
        chain.append(primitive_split(r)[1])
    return chain


def variations_at(chain: list[IntPoly], x: Rational) -> int:
    """Sign changes along the chain at x, zeros skipped."""
    signs = [s for p in chain if (s := sign_at(p, x))]
    return sum(a != b for a, b in zip(signs, signs[1:]))


def count_roots(chain: list[IntPoly], lo: Rational, hi: Rational) -> int:
    """Number of distinct real roots in the half-open interval (lo, hi]."""
    if lo > hi:
        raise ValueError("need lo <= hi")
    if lo == hi:
        return 0
    return variations_at(chain, lo) - variations_at(chain, hi)


def _level(width: Fraction, tol: Fraction) -> int:
    """The least level m >= 0 with width / 2^m <= tol, from bit lengths."""
    need, have = width.numerator * tol.denominator, tol.numerator * width.denominator
    m = max(need.bit_length() - have.bit_length(), 0)
    return m + 1 if have << m < need else m


class _Grid:
    """An integer polynomial p of degree d on the dyadic grid base + j * step
    / 2^level, 0 <= j <= top = 2^level: the one place that converts between
    grid indices and rationals (`point`, `index`).  With base = A/D and step
    = S/D, grid point j is N_j / M with N_j = A 2^level + j S and M = D
    2^level.  The coefficients are scaled once by powers of M, so one
    integer Horner pass over N_j gives M^d p(N_j / M), which has the sign of
    p, and its derivative in N together."""

    __slots__ = ("origin", "stride", "scale", "top", "lead", "rest")

    def __init__(self, coeffs: IntPoly, base: Fraction, step: Fraction, level: int):
        den = base.denominator * step.denominator // gcd(base.denominator, step.denominator)
        self.origin = base.numerator * (den // base.denominator) << level
        self.stride = step.numerator * (den // step.denominator)
        self.scale = den << level
        self.top = 1 << level
        scaled, power = [], 1
        for c in reversed(coeffs):
            scaled.append(c * power)
            power *= self.scale
        self.lead, self.rest = scaled[0], scaled[1:]

    def point(self, j: int) -> Fraction:
        return Fraction(self.origin + j * self.stride, self.scale)

    def cell(self, ja: int, jb: int) -> tuple[int, int, int]:
        """[point(ja), point(jb)] as `Enclosure.cell` gives it."""
        return self.origin + ja * self.stride, self.origin + jb * self.stride, self.scale

    def index(self, num: int, den: int) -> int:
        """The largest j with point(j) <= num/den, for a positive step and
        den > 0; num/den need not be in lowest terms."""
        return (num * self.scale - self.origin * den) // (self.stride * den)

    def value(self, j: int) -> int:
        """M^d p at grid point j."""
        x = self.origin + j * self.stride
        v = self.lead
        for c in self.rest:
            v = v * x + c
        return v

    def at(self, j: int) -> tuple[int, int]:
        """M^d p and its derivative in N, at grid point j."""
        x = self.origin + j * self.stride
        v, dv = self.lead, 0
        for c in self.rest:
            dv = dv * x + v
            v = v * x + c
        return v, dv


def _grid_refine(grid: _Grid, jlo: int, jhi: int, s_hi: int,
                 start: int | None = None) -> tuple[int, int]:
    """The grid cell (j - 1, j] of the bracket (jlo, jhi] that halving ends
    in, or (j, j) for a grid point where p vanishes, given the sign s_hi != 0
    at jhi and the opposite sign just right of jlo.

    The first point evaluated is `start` if it lies strictly inside the
    bracket, else the midpoint.  Then the bracket shrinks by Newton steps in
    grid units from the last point evaluated, rounded past the root (floor
    from the right end, ceil from the left).  A step is taken only if it
    lands strictly inside the bracket and is at most half the step before
    it; otherwise the midpoint is evaluated.  After h points, h the halvings
    that take the bracket to one cell, only midpoints are evaluated, so at
    most 2h points are evaluated in all, with a start or without, at
    multiple roots too.  A point next to the last one (jhi, for the first)
    gets its value only: its sign closes the cell, or the midpoint is next.

    The returned cell has values of opposite sign at its ends, so it holds a
    root.  When the bracket holds one root, which path reaches it does not
    matter, so the start is a hint that the exact signs overrule: a root on
    a grid point stays strictly inside the bracket until it is evaluated,
    and is returned exactly; any other root ends in the one cell holding it.
    """
    halvings = (jhi - jlo - 1).bit_length()
    jc, reach, evals = jhi, jhi - jlo, 0  # last point, the step that reached it
    while jhi - jlo > 1:
        j = (jlo + jhi) >> 1
        if not evals and start is not None and jlo < start < jhi:
            j = start
        elif 0 < evals < halvings:
            slope = dv * grid.stride
            if slope:
                t = jc + (-v) // slope if jc == jhi else jc - v // slope
                if jlo < t < jhi and 2 * abs(t - jc) <= reach:
                    j = t
        v, dv = grid.at(j) if abs(j - jc) > 1 else (grid.value(j), 0)  # 0: no Newton step
        if not v:
            return j, j
        if (v > 0) == (s_hi > 0):
            jhi = j
        else:
            jlo = j
        jc, reach, evals = j, abs(j - jc), evals + 1
    return jlo, jhi


def _halve(coeffs: IntPoly, lo: Fraction, hi: Fraction, s_hi: int,
           tol: Fraction) -> Enclosure:
    """`_grid_refine` on (lo, hi] and its level-m dyadic grid, m the least
    level with cells of width <= tol: the cells that halving (lo, hi] ends
    in."""
    grid = _Grid(coeffs, lo, hi - lo, _level(hi - lo, tol))
    jlo, jhi = _grid_refine(grid, 0, grid.top, s_hi)
    return Enclosure(grid.point(jlo), grid.point(jhi))


def refine(coeffs: IntPoly, lo: Fraction, hi: Fraction, tol: Fraction) -> Enclosure:
    """Shrink an isolating interval (lo, hi] of a simple root to width <= tol.

    The root is the only one in (lo, hi] and simple (pass a squarefree
    polynomial, such as `sturm_chain(...)[0]`), so unless it sits at hi the
    sign just right of lo is -sign(hi), and the result is the dyadic cell of
    (lo, hi] that bisection on signs returns, or the root itself when it lies
    on that grid.
    """
    s_hi = sign_at(coeffs, hi)
    if s_hi == 0:
        return Enclosure(hi, hi)
    return _halve(coeffs, lo, hi, s_hi, tol)


def _interlaced(grid: _Grid, degree: int, separators: Iterable[int],
                hints: Sequence[tuple[int, int]] = ()) -> list[tuple[int, ...]] | None:
    """The roots of the grid's polynomial, of degree d = `degree`, certified
    with no Sturm count, or None.  Separators and results are grid indices
    (`_Grid.index` and `_Grid.point` convert them): (a, b, j - 1, j) or (a,
    b, j, j) for a root in the bracket (a, b] and its cell or grid point.
    With 0 and the grid's top index the separators cut (0, top] into
    brackets, and one holds a root when p(b) = 0 or p(a) p(b) < 0.  When d
    do, each holds one simple root and p has no other, so no two roots share
    a cell and each comes back as `isolate_all` returns it at this level.
    None when the separators are not strictly increasing inside, or fewer
    brackets hold a root.  With one hint (u, w) per root, root k's
    refinement starts at a + (b - a) u // w: a hint that the exact signs
    overrule, so it never changes a cell."""
    ends = [0]
    for j in separators:
        if not ends[-1] < j < grid.top:
            return None
        ends.append(j)
    ends.append(grid.top)
    if len(ends) <= degree:
        return None
    values = [grid.value(j) for j in ends]
    brackets = [(ja, jb, vb) for ja, jb, va, vb in zip(ends, ends[1:], values, values[1:])
                if not vb or va * vb < 0]
    if len(brackets) != degree:
        return None
    if len(hints) != degree:  # (0, 1) starts at a, an end: the midpoint comes first
        hints = [(0, 1)] * degree
    return [(ja, jb, *(_grid_refine(grid, ja, jb, vb, ja + (jb - ja) * u // w) if vb
                       else (jb, jb)))
            for (ja, jb, vb), (u, w) in zip(brackets, hints)]


def _isolating(count: Callable[[Fraction], int], lo: Fraction, hi: Fraction,
               total: int) -> Iterator[tuple[Fraction, Fraction]]:
    """Isolating intervals (a, b] of the `total` distinct roots in (lo, hi],
    found by halving, rightmost first, where count(b) - count(a) is the
    number of roots in (a, b] for lo <= a <= b <= hi.  Lazy: a caller that
    wants only the largest root stops after one.  Each interval carries the
    count at its right end (None until the first halving needs it), so a
    halving evaluates `count` once, at the midpoint."""
    stack = [(lo, hi, total, None)]
    while stack:
        a, b, k, c_b = stack.pop()
        if k == 0:
            continue
        if k == 1:
            yield a, b
            continue
        if c_b is None:
            c_b = count(b)
        mid = (a + b) / 2
        c_mid = count(mid)
        stack.extend(((a, mid, k - c_b + c_mid, c_mid), (mid, b, c_b - c_mid, c_b)))


def isolate_all(poly: RatPoly, lo: Fraction, hi: Fraction, tol: Fraction,
                expected: int | None = None) -> list[Enclosure]:
    """Isolate every real root in (lo, hi] and refine each to width <= tol.

    If `expected` is given, a mismatch with the Sturm count raises
    RootIsolationError rather than returning a partial answer.
    """
    chain = sturm_chain(int_coeffs(poly))
    total = count_roots(chain, lo, hi)
    if expected is not None and total != expected:
        raise RootIsolationError(
            f"found {total} roots in ({lo}, {hi}], expected {expected}"
        )
    enclosures = [refine(chain[0], a, b, tol)
                  for a, b in _isolating(lambda x: -variations_at(chain, x), lo, hi, total)]
    enclosures.sort(key=lambda e: (e.lo, e.hi))
    return enclosures


def largest_root(poly: RatPoly, lo: Fraction, hi: Fraction, tol: Fraction) -> Enclosure:
    """Certified enclosure of the largest root in (lo, hi]."""
    chain = sturm_chain(int_coeffs(poly))
    total = count_roots(chain, lo, hi)
    if total < 1:
        raise RootIsolationError(f"no roots in ({lo}, {hi}]")
    a, b = next(_isolating(lambda x: -variations_at(chain, x), lo, hi, total))
    return refine(chain[0], a, b, tol)


def smallest_root(poly: RatPoly, lo: Fraction, hi: Fraction, tol: Fraction) -> Enclosure:
    """Certified enclosure of the smallest root in (lo, hi]."""
    enclosures = isolate_all(poly, lo, hi, tol)
    if not enclosures:
        raise RootIsolationError(f"no roots in ({lo}, {hi}]")
    return enclosures[0]


def bisect_sign_change(coeffs: IntPoly, lo: Fraction, hi: Fraction,
                       tol: Fraction, s_lo: int | None = None) -> Enclosure:
    """Certified enclosure of width <= tol of a root in [lo, hi].

    A root at lo, else at hi, is returned exactly.  Otherwise the signs at lo
    and hi must be nonzero and opposite (either way round), or
    RootIsolationError is raised.  When (lo, hi) holds one distinct root,
    the result is the dyadic cell that bisection returns, or the root itself
    on a grid point.  When it holds several, the result is a certified
    enclosure of one of them, and which one is not specified.  `s_lo` passes
    the sign at lo when the caller has already evaluated it.
    """
    if s_lo is None:
        s_lo = sign_at(coeffs, lo)
    if s_lo == 0:
        return Enclosure(lo, lo)
    s_hi = sign_at(coeffs, hi)
    if s_hi == 0:
        return Enclosure(hi, hi)
    if s_lo == s_hi:
        raise RootIsolationError(f"no sign change on [{lo}, {hi}]")
    return _halve(coeffs, lo, hi, s_hi, tol)


def interval_eval(poly: RatPoly, box: Enclosure) -> tuple[Fraction, Fraction]:
    """Rigorous range bounds of the polynomial over [box.lo, box.hi] by
    interval Horner with exact rational endpoints, run over the primitive
    part and scaled by the positive content."""
    lo = hi = Fraction(0)
    for c in reversed(poly.primitive):
        candidates = (lo * box.lo, lo * box.hi, hi * box.lo, hi * box.hi)
        lo, hi = min(candidates) + c, max(candidates) + c
    return lo * poly.content, hi * poly.content


def root_offset_bounds(poly: RatPoly, enc: Enclosure,
                       t: Rational) -> tuple[Fraction, Fraction]:
    """Certified bounds on (root - t) for the single root inside `enc`.

    Mean-value form: root - t = -p(t)/p'(xi) with xi between them, valid
    while the derivative keeps one sign on the hull of `enc` and t.  The
    returned interval is far tighter than `enc` itself when t is close to
    the root, which makes tiny root-to-limit distances certifiable without
    deep bisection.
    """
    t = Fraction(t)
    hull = Enclosure(min(enc.lo, t), max(enc.hi, t))
    dlo, dhi = interval_eval(poly.derivative(), hull)
    if dlo <= 0 <= dhi:
        raise RootIsolationError("derivative sign not constant near the root")
    value = poly(t)
    a, b = -value / dlo, -value / dhi
    return (a, b) if a <= b else (b, a)
