"""Numeric evaluation of ring expressions and forms on dilaton profiles.

Provides deterministic quasi-random sampling away from singular sets and
central-finite-difference oracles for the symbolic derivatives.
"""

from __future__ import annotations

import math
import random
from functools import reduce
from typing import Callable, Sequence

from .forms import FormExpr, exterior_derivative, wedge
from .profiles import DilatonProfile
from .ring import COORDS, CoefExpr, as_symbol, jet_sym

DEFAULT_STEP = 1e-4
DEFAULT_TOL = 1e-6


def build_assignment(prof: DilatonProfile, x: Sequence[float], consts: dict | None = None) -> dict:
    """One sample point's float table: profile jets at x plus the named
    constants, whose names are resolved to ring symbols here, once."""
    assi = prof.jets(x)
    if consts:
        for name, val in consts.items():
            assi[as_symbol(name)] = float(val)
    return assi


def assigner(prof: DilatonProfile, consts: dict | None = None) -> Callable:
    """x -> assignment closure for repeated evaluation."""
    return lambda x: build_assignment(prof, x, consts)


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
    """
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


def profile_points(prof: DilatonProfile, n: int = 64, seed: int = 0, box=None, min_dist: float = 1e-3):
    """Deterministic points inside the profile domain, min_dist from the
    singular set."""
    if box is None:
        box = ((-0.45, 0.45),) * 4
    return halton_points(
        n,
        seed,
        box,
        accept=lambda p: prof.in_domain(p) and prof.singular_distance(p) >= min_dist,
    )


# ---------------------------------------------------------------------------
# finite-difference oracles

def worst_of(worst: float, err: float) -> float:
    """max(worst, err), except that a nan wins: max(0.0, nan) is 0.0, which passes any tolerance."""
    return err if err > worst or err != err else worst


def max_error(errors) -> float:
    """The largest of some non-negative errors, 0.0 for none, nan if any is nan."""
    return reduce(worst_of, errors, 0.0)


def _central_difference(e: CoefExpr, assign: Callable, x, i: int, step: float) -> float:
    """(e(x + step e_i) - e(x - step e_i)) / (2 step)."""
    xp = tuple(c + (step if k == i - 1 else 0.0) for k, c in enumerate(x))
    xm = tuple(c - (step if k == i - 1 else 0.0) for k, c in enumerate(x))
    return (e.evaluate(assign(xp)) - e.evaluate(assign(xm))) / (2 * step)


def fd_partial_check(
    expr: CoefExpr,
    assign: Callable,
    pts,
    step: float = DEFAULT_STEP,
    coords=COORDS,
) -> float:
    """Max relative error of symbolic partial_i(expr) against central FD; nan if any is nan."""
    worst = 0.0
    parts = {i: expr.partial(i) for i in coords}
    for x in pts:
        base = assign(x)
        for i in coords:
            sym = parts[i].evaluate(base)
            fd = _central_difference(expr, assign, x, i, step)
            worst = worst_of(worst, abs(sym - fd) / (1.0 + abs(sym)))
    return worst


def _basis_differential(c, J: tuple) -> FormExpr:
    """d(ebar^J) from the structure equations alone."""
    out = c.zero(len(J) + 1)
    for t, leg in enumerate(J):
        piece = c.dbar(leg)
        for before in reversed(J[:t]):
            piece = wedge(c.basis(before), piece)
        for after in J[t + 1:]:
            piece = wedge(piece, c.basis(after))
        if t % 2:
            piece = -piece
        out = out + piece
    return out


def fd_exterior_values(a: FormExpr, assign: Callable, x, step: float = DEFAULT_STEP) -> dict:
    """Components of d(a) at x with coefficient derivatives from central FD.

    The structure-equation part (d of the basis legs) is evaluated exactly;
    only the frame derivatives of the coefficient functions are replaced by
    finite differences, so the comparison isolates the symbolic
    differentiation of coefficients.
    """
    c = a.coframe
    base = assign(x)
    fval = base[jet_sym()]
    acc: dict[tuple, float] = {}

    def add(idx, val):
        acc[idx] = acc.get(idx, 0.0) + val

    for J, coef in a.comps.items():
        aJ = coef.evaluate(base)
        for K, ce in _basis_differential(c, J).comps.items():
            add(K, aJ * ce.evaluate(base))
        for i in COORDS:
            if i in J:
                continue
            fd = _central_difference(coef, assign, x, i, step)
            weight = math.exp(-c.weights[i - 1] * fval)
            merged = tuple(sorted((i,) + J))
            sign = 1
            for leg in J:
                if leg < i:
                    sign = -sign
            add(merged, sign * fd * weight)
    return acc


def fd_exterior_check(a: FormExpr, assign: Callable, pts, step: float = DEFAULT_STEP) -> float:
    """Max relative error between engine d(a) and its FD counterpart; nan if any is nan."""
    da = exterior_derivative(a)
    worst = 0.0
    for x in pts:
        base = assign(x)
        sym = {idx: coef.evaluate(base) for idx, coef in da.comps.items()}
        fdv = fd_exterior_values(a, assign, x, step)
        for idx in set(sym) | set(fdv):
            s = sym.get(idx, 0.0)
            f = fdv.get(idx, 0.0)
            worst = worst_of(worst, abs(s - f) / (1.0 + abs(s)))
    return worst

