"""Numeric evaluation of ring expressions and forms on dilaton profiles.

Provides deterministic quasi-random sampling away from singular sets and
central-finite-difference oracles for the symbolic derivatives.
"""

from __future__ import annotations

import math
import random
from typing import Callable

from .forms import FormExpr, exterior_derivative
from .profiles import JETS, Admitted, DilatonProfile
from .ring import COORDS, CoefExpr, as_symbol, distinct_up_to_sign, from_monomials, is_jet, jet_sym

DEFAULT_STEP = 1e-4
DEFAULT_TOL = 1e-6


def jets_read(exprs) -> tuple:
    """The jets other than f that some of exprs reads, sorted: what a sweep over them asks a profile for."""
    out = set()
    for e in exprs:
        out |= e.symbols()
    return tuple(sorted(sym for sym in out if is_jet(sym) and sym[1]))


class Sweep:
    """What a float sweep evaluates: one element of each {e, -e} class of
    some elements (ring.distinct_up_to_sign), and the jets they read.

    A sweep evaluates each of its elements once over a point set's float
    table of columns (build_assignment) and takes the largest |e|, which is
    the same over these as over every element.  Build it where its elements
    are held and keep it there (the Geometry keeps its own), so no sweep
    deduplicates or asks jets_read again.
    """

    __slots__ = ("exprs", "jets", "__weakref__")

    def __init__(self, elements):
        self.exprs = distinct_up_to_sign(elements)
        self.jets = jets_read(self.exprs)


def build_assignment(prof: DilatonProfile, points, consts: dict | None = None, want=JETS) -> dict:
    """A point set's float table, {symbol: [one float per point]}: f and the
    profile jets in want at each of points, plus the named constants, whose
    names are resolved to ring symbols here, once.

    Evaluate every element of a sweep on this one table: CoefExpr.evaluate
    gives one float per point and keeps each column of e^{kf} it computes in
    it, under the int key k, so the set calls math.exp once per point and k.
    Build a new table for other points, never change f in this one.
    """
    assi = prof.jets(points, want)
    if consts:
        for name, val in consts.items():
            assi[as_symbol(name)] = [float(val)] * len(points)
    return assi


def assigner(prof: DilatonProfile) -> Callable:
    """points -> their float table, for repeated evaluation."""
    return lambda points: build_assignment(prof, points)


# ---------------------------------------------------------------------------
# sampling

_HALTON_BASES = (2, 3, 5, 7)


def _radical_inverses(b: int, perm, nums: list, dens: list, end: int) -> None:
    """Extend nums and dens, num(k) and den(k) of base b for k = 0, 1, ..., to every k < end.

    Their length is a multiple of b, at least b, so they grow by whole
    families: the children q*b + r (r = 0..b-1) of each parent q they hold,
    in one pass.
    """
    while len(nums) < end:
        q = slice(len(nums) // b, min(-(-end // b), len(nums)))
        nums += [p * d + n for n, d in zip(nums[q], dens[q]) for p in perm]
        dens += [b * d for d in dens[q] for _ in perm]


def halton_points(n: int, seed: int, box, accept: Callable | None = None, max_rounds: int = 64):
    """n Halton points mapped into box=((lo,hi),)*4, filtered by accept, which is asked of each point in turn.

    Coordinate j is the radical inverse of k = 1, 2, ... in the j-th prime
    base b, its digits permuted by a seeded permutation that fixes digit 0.
    The inverse of k is num(k) / den(k), exact integers read off those of
    k // b: num(k) = perm[k % b] * den(k // b) + num(k // b) and
    den(k) = b * den(k // b), from num(0) = 0 and den(0) = 1; the one
    division of num by den rounds as the digit-by-digit loop's does.  The
    points of a round of max(n, 8) values of k are built as columns.
    n = 0 gives [] and asks accept nothing; a negative n, or a box of other
    than four (lo, hi) pairs, raises ValueError.
    """
    if n < 0 or len(box) != len(_HALTON_BASES) or any(len(pair) != 2 for pair in box):
        raise ValueError(f"need n >= 0 and a box of four (lo, hi) pairs, got n={n!r}, box={box!r}")
    if not n:
        return []
    rng = random.Random(seed)
    perms = [[0] + rng.sample(range(1, b), b - 1) for b in _HALTON_BASES]
    lows = [float(lo) for lo, _ in box]
    spans = [float(hi) - float(lo) for lo, hi in box]
    # per base, num(k) and den(k) for k = 0, 1, ..., from the one-digit k < b
    inverses = [([0, *perm[1:]], [1] + [b] * (b - 1)) for b, perm in zip(_HALTON_BASES, perms)]
    pts: list[tuple] = []
    m = max(n, 8)
    for r in range(max_rounds):
        ks = slice(r * m + 1, (r + 1) * m + 1)
        cols = []
        for lo, span, b, perm, (nums, dens) in zip(lows, spans, _HALTON_BASES, perms, inverses):
            _radical_inverses(b, perm, nums, dens, ks.stop)
            cols.append([lo + span * (num / den) for num, den in zip(nums[ks], dens[ks])])
        for p in zip(*cols):
            if accept is None or accept(p):
                pts.append(p)
                if len(pts) == n:
                    return pts
    raise RuntimeError(f"could not find {n} admissible sample points")


def profile_points(prof: DilatonProfile, n: int = 64, seed: int = 0, box=None) -> Admitted:
    """Deterministic points inside the profile domain, at least 1e-3 from the
    singular set: an Admitted of prof, whose jets then test no point again."""
    if box is None:
        box = ((-0.45, 0.45),) * 4
    return Admitted(halton_points(
        n,
        seed,
        box,
        accept=lambda p: prof.in_domain(p) and prof.singular_distance(p) >= 1e-3,
    ), prof)


# ---------------------------------------------------------------------------
# finite-difference oracles

def max_error(errors) -> float:
    """The largest of some non-negative errors, 0.0 for none, nan if any is nan.

    Both folds run in C over one list: the sum of non-negative floats is nan
    exactly when one of them is (max alone would pass a nan by), and max
    finds the rest.
    """
    errors = list(errors)
    total = sum(errors)
    return total if total != total else max(errors, default=0.0)


def _stencil(assign: Callable, pts, step: float) -> dict:
    """{i: (table at pts + step e_i, table at pts - step e_i)} for each coordinate i."""
    out = {}
    for i in COORDS:
        plus = [tuple(c + (step if k == i - 1 else 0.0) for k, c in enumerate(x)) for x in pts]
        minus = [tuple(c - (step if k == i - 1 else 0.0) for k, c in enumerate(x)) for x in pts]
        out[i] = (assign(plus), assign(minus))
    return out


def _central_difference(e: CoefExpr, tables: tuple, step: float) -> list:
    """(e(x + step e_i) - e(x - step e_i)) / (2 step) at each point, on the pair of tables _stencil gives for i."""
    plus, minus = tables
    return [(p - m) / (2 * step) for p, m in zip(e.evaluate(plus), e.evaluate(minus))]


def _term_sizes(exprs: dict, table: dict) -> dict:
    """{key: S at each point of table} for each element e of exprs, which must have been evaluated on table.

    S is the sum of |term| over the terms e sums there: e with |coef| on the
    table with |column|.  Each e^{kf} column e reads is then in table, and
    positive, so the |f| column is read only as a jet factor.
    """
    sizes = {key: [abs(x) for x in col] for key, col in table.items()}
    return {key: from_monomials((abs(c), k, powers) for c, k, powers in e.monomials()).evaluate(sizes)
            for key, e in exprs.items()}


def _relative_errors(sym: list, size: list, fd: list):
    """|sym - fd| / (1 + S) at each point, S the size _term_sizes gives: a sum that cancels to about 0
    is measured against the terms it sums, not against itself."""
    return (abs(s - f) / (1.0 + z) for s, z, f in zip(sym, size, fd))


def fd_partial_check(
    expr: CoefExpr,
    assign: Callable,
    pts,
    step: float = DEFAULT_STEP,
) -> float:
    """Max relative error of symbolic partial_i(expr) against central FD; nan if any is nan.

    The points and each of their +-step stencils are one table each (assign
    over all of pts), so every element is evaluated once per table.
    """
    parts = {i: expr.partial(i) for i in COORDS}
    base = assign(pts)
    sym = {i: e.evaluate(base) for i, e in parts.items()}
    size = _term_sizes(parts, base)
    stencil = _stencil(assign, pts, step)
    return max_error(err for i in COORDS
                     for err in _relative_errors(sym[i], size[i], _central_difference(expr, stencil[i], step)))


def _basis_differential(c, J: tuple) -> FormExpr:
    """d(ebar^J) from the structure equations alone."""
    out = c.zero(len(J) + 1)
    for t, leg in enumerate(J):
        piece = c.dbar(leg)
        for before in reversed(J[:t]):
            piece = c.basis(before).wedge(piece)
        for after in J[t + 1:]:
            piece = piece.wedge(c.basis(after))
        if t % 2:
            piece = -piece
        out = out + piece
    return out


def _fd_exterior_values(a: FormExpr, dbasis: dict, base: dict, stencil: dict, step: float) -> dict:
    """{K: column} of the components of d(a) at the points of the table base, from
    base and _stencil, with dbasis {J: d(ebar^J)} for the components of a.

    Each point's sum gets its terms in the order of a one-point sum, from 0.0.
    """
    weights = a.coframe.weights
    fs = base[jet_sym()]
    acc: dict[tuple, list] = {}

    def add(idx, vals):
        acc[idx] = [t + v for t, v in zip(acc.get(idx) or [0.0] * len(fs), vals)]

    for J, coef in a.comps.items():
        aJ = coef.evaluate(base)
        for K, ce in dbasis[J].comps.items():
            add(K, [x * y for x, y in zip(aJ, ce.evaluate(base))])
        for i in COORDS:
            if i in J:
                continue
            fd = _central_difference(coef, stencil[i], step)
            merged = tuple(sorted((i,) + J))
            sign = 1
            for leg in J:
                if leg < i:
                    sign = -sign
            add(merged, [sign * v * math.exp(-weights[i - 1] * f) for v, f in zip(fd, fs)])
    return acc


def fd_exterior_check(a: FormExpr, assign: Callable, pts, step: float = DEFAULT_STEP) -> float:
    """Max relative error between engine d(a) and its FD counterpart; nan if any is nan.

    The counterpart evaluates the structure-equation part (d of the basis
    legs) exactly and replaces only the frame derivatives of the coefficient
    functions by central finite differences, so the comparison isolates the
    symbolic differentiation of coefficients.  The points and each of their
    +-step stencils are one table each, and each d(ebar^J) is built once
    per call.
    """
    da = exterior_derivative(a)
    dbasis = {J: _basis_differential(a.coframe, J) for J in a.comps}
    base = assign(pts)
    sym = {idx: coef.evaluate(base) for idx, coef in da.comps.items()}
    size = _term_sizes(da.comps, base)
    fdv = _fd_exterior_values(a, dbasis, base, _stencil(assign, pts, step), step)
    zeros = [0.0] * len(pts)
    return max_error(err for idx in set(sym) | set(fdv)
                     for err in _relative_errors(sym.get(idx, zeros), size.get(idx, zeros), fdv.get(idx, zeros)))
