"""Numeric evaluation of ring expressions and forms on dilaton profiles.

Provides deterministic quasi-random sampling away from singular sets and
central-finite-difference oracles for the symbolic derivatives.
"""

from __future__ import annotations

import math
import random
from functools import reduce
from typing import Callable, Sequence

from .forms import FormExpr, exterior_derivative
from .profiles import JETS, DilatonProfile
from .ring import COORDS, CoefExpr, as_symbol, distinct_up_to_sign, is_jet, jet_sym

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

    A sweep takes the largest |e|, which is the same over these as over
    every element.  Build it where its elements are held and keep it there
    (the Geometry keeps its own), so no sweep deduplicates or asks
    jets_read again.
    """

    __slots__ = ("exprs", "jets", "__weakref__")

    def __init__(self, elements):
        self.exprs = distinct_up_to_sign(elements)
        self.jets = jets_read(self.exprs)


def build_assignment(prof: DilatonProfile, x: Sequence[float], consts: dict | None = None, want=JETS) -> dict:
    """One sample point's float table: f and the profile jets in want at x,
    plus the named constants, whose names are resolved to ring symbols here, once.

    Evaluate every element of a sweep at this point on this one table:
    CoefExpr.evaluate keeps each e^{kf} it computes in it, under the int key
    k, so the point calls math.exp once per k.  Build a new table for
    another point, never change f in this one.
    """
    assi = prof.jets(x, want)
    if consts:
        for name, val in consts.items():
            assi[as_symbol(name)] = float(val)
    return assi


def assigner(prof: DilatonProfile) -> Callable:
    """x -> assignment closure for repeated evaluation."""
    return lambda x: build_assignment(prof, x)


# ---------------------------------------------------------------------------
# sampling

_HALTON_BASES = (2, 3, 5, 7)


def _radical_inverse(k: int, base: int, perm: Sequence[int]) -> float:
    """The base-b digits of k, each mapped through perm, mirrored about the point."""
    num, den = 0, 1
    while k:
        k, digit = divmod(k, base)
        num = num * base + perm[digit]
        den *= base
    return num / den


def halton_points(n: int, seed: int, box, accept: Callable | None = None, max_rounds: int = 64):
    """n Halton points mapped into box=((lo,hi),)*4, filtered by accept.

    Coordinate j is the radical inverse of k = 1, 2, ... in the j-th prime
    base, its digits permuted by a seeded permutation that fixes digit 0.
    A box of other than four (lo, hi) pairs raises ValueError.
    """
    if len(box) != len(_HALTON_BASES) or any(len(pair) != 2 for pair in box):
        raise ValueError(f"the box must be four (lo, hi) pairs, got {box!r}")
    rng = random.Random(seed)
    perms = [[0] + rng.sample(range(1, b), b - 1) for b in _HALTON_BASES]
    lows = [float(lo) for lo, _ in box]
    spans = [float(hi) - float(lo) for lo, hi in box]
    pts: list[tuple] = []
    k = 0
    for _ in range(max_rounds):
        for _ in range(max(n, 8)):
            k += 1
            p = tuple(lo + span * _radical_inverse(k, b, perm)
                      for lo, span, b, perm in zip(lows, spans, _HALTON_BASES, perms))
            if accept is None or accept(p):
                pts.append(p)
                if len(pts) == n:
                    return pts
    raise RuntimeError(f"could not find {n} admissible sample points")


def profile_points(prof: DilatonProfile, n: int = 64, seed: int = 0, box=None):
    """Deterministic points inside the profile domain, at least 1e-3 from the
    singular set."""
    if box is None:
        box = ((-0.45, 0.45),) * 4
    return halton_points(
        n,
        seed,
        box,
        accept=lambda p: prof.in_domain(p) and prof.singular_distance(p) >= 1e-3,
    )


# ---------------------------------------------------------------------------
# finite-difference oracles

def worst_of(worst: float, err: float) -> float:
    """max(worst, err), except that a nan wins: max(0.0, nan) is 0.0, which passes any tolerance."""
    return err if err > worst or err != err else worst


def max_error(errors) -> float:
    """The largest of some non-negative errors, 0.0 for none, nan if any is nan."""
    return reduce(worst_of, errors, 0.0)


def _stencil(assign: Callable, x, step: float) -> dict:
    """{i: (table at x + step e_i, table at x - step e_i)} for each coordinate i."""
    out = {}
    for i in COORDS:
        xp = tuple(c + (step if k == i - 1 else 0.0) for k, c in enumerate(x))
        xm = tuple(c - (step if k == i - 1 else 0.0) for k, c in enumerate(x))
        out[i] = (assign(xp), assign(xm))
    return out


def _central_difference(e: CoefExpr, tables: tuple, step: float) -> float:
    """(e(x + step e_i) - e(x - step e_i)) / (2 step) on the pair of tables _stencil gives for i."""
    plus, minus = tables
    return (e.evaluate(plus) - e.evaluate(minus)) / (2 * step)


def fd_partial_check(
    expr: CoefExpr,
    assign: Callable,
    pts,
    step: float = DEFAULT_STEP,
) -> float:
    """Max relative error of symbolic partial_i(expr) against central FD; nan if any is nan."""
    worst = 0.0
    parts = {i: expr.partial(i) for i in COORDS}
    for x in pts:
        base = assign(x)
        stencil = _stencil(assign, x, step)
        for i in COORDS:
            sym = parts[i].evaluate(base)
            fd = _central_difference(expr, stencil[i], step)
            worst = worst_of(worst, abs(sym - fd) / (1.0 + abs(sym)))
    return worst


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
    """Components of d(a) at one point, from its table base and _stencil, with
    dbasis {J: d(ebar^J)} for the components of a."""
    weights = a.coframe.weights
    fval = base[jet_sym()]
    acc: dict[tuple, float] = {}

    def add(idx, val):
        acc[idx] = acc.get(idx, 0.0) + val

    for J, coef in a.comps.items():
        aJ = coef.evaluate(base)
        for K, ce in dbasis[J].comps.items():
            add(K, aJ * ce.evaluate(base))
        for i in COORDS:
            if i in J:
                continue
            fd = _central_difference(coef, stencil[i], step)
            weight = math.exp(-weights[i - 1] * fval)
            merged = tuple(sorted((i,) + J))
            sign = 1
            for leg in J:
                if leg < i:
                    sign = -sign
            add(merged, sign * fd * weight)
    return acc


def fd_exterior_check(a: FormExpr, assign: Callable, pts, step: float = DEFAULT_STEP) -> float:
    """Max relative error between engine d(a) and its FD counterpart; nan if any is nan.

    The counterpart evaluates the structure-equation part (d of the basis
    legs) exactly and replaces only the frame derivatives of the coefficient
    functions by central finite differences, so the comparison isolates the
    symbolic differentiation of coefficients.  Each point's table and its
    stencil are built once, and each d(ebar^J) once per call.
    """
    da = exterior_derivative(a)
    dbasis = {J: _basis_differential(a.coframe, J) for J in a.comps}
    worst = 0.0
    for x in pts:
        base = assign(x)
        sym = {idx: coef.evaluate(base) for idx, coef in da.comps.items()}
        fdv = _fd_exterior_values(a, dbasis, base, _stencil(assign, x, step), step)
        for idx in set(sym) | set(fdv):
            s = sym.get(idx, 0.0)
            f = fdv.get(idx, 0.0)
            worst = worst_of(worst, abs(s - f) / (1.0 + abs(s)))
    return worst
