"""Metric connections on the rescaled coframe: Koszul, torsion family, curvature.

Conventions (fixed throughout):

* connection forms ``omega^i_j(X) = g(nabla_X E_j, E_i)``, skew in (i, j);
* first structure equation ``d ebar^i + omega^i_j wedge ebar^j = torsion^i``;
* curvature ``Omega^i_j = d omega^i_j + omega^i_k wedge omega^k_j``;
* ``R(X, Y, Z, U) = Omega^U_Z(X, Y)`` on frame vectors;
* the totally skew torsion family ``nabla^{(s)} = nabla^{LC} + (s/2) T`` is
  realised as ``omega^{(s),i}_j = omega^{LC,i}_j - (s/2) T(ebar_i, ebar_j, .)``,
  which gives ``nabla^{(s)}`` torsion 2-forms ``s T(., ., ebar_i)``.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping

from . import ring
from .forms import (
    SIGMA,
    CoframeSpec,
    DimensionMismatch,
    FormExpr,
    _d_into,
    _form,
    _square_into,
    _wedge_into,
)


class _FormMatrix:
    """Skew matrix of forms stored on strictly upper index pairs."""

    degree = 1

    def __init__(self, coframe: CoframeSpec, entries: Mapping[tuple, FormExpr]):
        self.coframe = coframe
        self.entries: dict[tuple, FormExpr] = {}
        for (i, j), form in entries.items():
            if not (1 <= i < j <= coframe.dim):
                raise DimensionMismatch(f"entry pair ({i},{j}) not strictly upper")
            if form.coframe is not coframe:
                raise DimensionMismatch("entry lives on a different coframe")
            if form:
                self.entries[(i, j)] = form

    def entry(self, i: int, j: int) -> FormExpr:
        if i == j:
            return self.coframe.zero(self.degree)
        if i < j:
            return self.entries.get((i, j), self.coframe.zero(self.degree))
        return -self.entries.get((j, i), self.coframe.zero(self.degree))

    def pairs(self):
        d = self.coframe.dim
        for i in range(1, d + 1):
            for j in range(i + 1, d + 1):
                yield (i, j)

    def __eq__(self, other):
        if not isinstance(other, _FormMatrix):
            return NotImplemented
        return all(self.entry(i, j) == other.entry(i, j) for (i, j) in self.pairs())

    __hash__ = None


class ConnectionForms(_FormMatrix):
    degree = 1


class CurvatureForms(_FormMatrix):
    degree = 2


# ---------------------------------------------------------------------------
# Koszul formula and the torsion family

def koszul(c: CoframeSpec, T: FormExpr | None = None, s: int = 0) -> ConnectionForms:
    """nabla^{(s)} = nabla^{LC} + (s/2) T in one pass over the structure constants.

    2 omega^i_j(ebar_k) = d ebar^i(j, k) - d ebar^k(i, j) + d ebar^j(k, i) - s T(i, j, k),
    Milnor's formula for left-invariant metrics written for the rescaled frame.
    Each component C = d ebar^l(a, b), a < b, feeds the entries (l, a; b) with
    +C, (l, b; a) with -C and (a, b; l) with -C, where an entry (j, i) with
    i < j means -(i, j) and a diagonal one is zero.  Each component
    t = T(a, b, k), a < b < k, feeds (a, b; k), (a, k; b) and (b, k; a) with
    -st, +st and -st.  2 omega is accumulated raw and halved once.
    """
    if s not in (-1, 0, 1):
        raise ValueError("s must be -1, 0 or +1")
    if s and (T is None or T.degree != 3 or T.coframe is not c):
        raise DimensionMismatch("torsion must be a 3-form on the same coframe")
    acc: dict = {}

    def put(i, j, k, g, sign):
        if i != j:
            acc_ij = acc.setdefault((i, j) if i < j else (j, i), {})
            ring._add_into(acc_ij.setdefault(k, {}), g, sign if i < j else -sign)

    for l in range(1, c.dim + 1):
        for (a, b), g in c.dbar(l).comps.items():
            put(l, a, b, g, 1)
            put(l, b, a, g, -1)
            put(a, b, l, g, -1)
    if s:
        for (a, b, k), t in T.comps.items():
            put(a, b, k, t, -s)
            put(a, k, b, t, s)
            put(b, k, a, t, -s)
    entries = {
        pair: FormExpr(c, 1, {(k,): ring._wrap(ring._halved(acc_ij[k])) for k in sorted(acc_ij)})
        for pair, acc_ij in sorted(acc.items())
    }
    return ConnectionForms(c, entries)


def levi_civita(c: CoframeSpec) -> ConnectionForms:  # kept: perfbench/tracing.py counts it by name
    """Metric connection forms from the Koszul formula on the orthonormal coframe."""
    return koszul(c)


def curvature(conn: ConnectionForms) -> CurvatureForms:
    """Omega^i_j = d omega^i_j + sum_k omega^i_k ^ omega^k_j for i < j, on raw accumulators.

    Only the stored i < j entries are read; the skew sign of omega^i_k with
    i > k is folded into the sign of its wedge.
    """
    c = conn.coframe
    om = conn.entries
    entries = {}
    for (i, j) in conn.pairs():
        parts: dict = {}
        if (i, j) in om:
            _d_into(parts, om[i, j])
        for k in range(1, c.dim + 1):
            left = om.get((i, k) if i < k else (k, i))
            right = om.get((k, j) if k < j else (j, k))
            if left and right:
                _wedge_into(parts, left, right, (1 if i < k else -1) * (1 if k < j else -1))
        entries[(i, j)] = _form(c, 2, parts)
    return CurvatureForms(c, entries)


def scalar_curvature(curv: CurvatureForms) -> ring.CoefExpr:
    return ring.sum_exprs(curv.entry(i, j).value_at(i, j) * 2 for (i, j) in curv.pairs())


def pontryagin4(curv: CurvatureForms) -> FormExpr:
    """The 4-form sum_{i<j} Omega^i_j wedge Omega^i_j (equal to 8 pi^2 p1)."""
    parts: dict = {}
    for om in curv.entries.values():
        _square_into(parts, om)
    return _form(curv.coframe, 4, parts)


# ---------------------------------------------------------------------------
# auxiliary instanton connections

def _lam_rows(lam, nfib: int):
    rows = list(lam)
    if nfib == 1 and rows and not isinstance(rows[0], (list, tuple)):
        rows = [[x] for x in rows]  # flat (l1,l2,l3) means a single-column matrix
    if len(rows) != 3 or any(len(r) != nfib for r in rows):
        raise ValueError(f"lambda matrix must be 3 x {nfib}")
    return tuple(tuple(ring.exact(x) for x in r) for r in rows)


def build_instanton_DLambda(lam, c: CoframeSpec) -> ConnectionForms:
    """Flat-looking auxiliary connection with fiber-leg coefficient matrix lam.

    Row r of lam gives L_r = sum_c lam[r][c] ebar^{4+c}, which fills the pairs
    of sigma_r with its signs: omega^a_b = sign * L_r for each (a, b): sign
    in SIGMA[r]; all remaining entries vanish.
    """
    rows = _lam_rows(lam, c.dim - 4)
    entries = {}
    for r, pattern in SIGMA.items():
        L = FormExpr(c, 1, {(4 + col,): x for col, x in enumerate(rows[r - 1], 1) if x})
        for pair, sign in pattern.items():
            entries[pair] = L * sign
    return ConnectionForms(c, entries)


def lam_rank(lam, c: CoframeSpec) -> int:
    """Rank of the lambda matrix over the rationals (entries must be numbers)."""
    mat = [[e.as_fraction() for e in r] for r in _lam_rows(lam, c.dim - 4)]
    if any(v is None for r in mat for v in r):
        raise ValueError("rank needs numeric lambda entries")
    rank = 0
    cols = len(mat[0]) if mat else 0
    row = 0
    for col in range(cols):
        piv = next((r for r in range(row, len(mat)) if mat[r][col]), None)
        if piv is None:
            continue
        mat[row], mat[piv] = mat[piv], mat[row]
        for r in range(len(mat)):
            if r != row and mat[r][col]:
                fac = Fraction(mat[r][col], mat[row][col])  # exact; `/` on ints gives a float
                mat[r] = [a - fac * b for a, b in zip(mat[r], mat[row])]
        rank += 1
        row += 1
    return rank


def lam_A_product(lam, c: CoframeSpec):
    """(lam . A)_{rm} = sum_c lam[r][c] A[c][m] as a 3x3 CoefExpr matrix."""
    lam = _lam_rows(lam, c.dim - 4)
    A = c.A
    return tuple(
        tuple(ring.sum_exprs(lam[r][col] * A[col][m] for col in range(len(A))) for m in range(3))
        for r in range(3)
    )


def lam_squared(lam, c: CoframeSpec) -> ring.CoefExpr:
    """lambda^2 = |lam . A|^2, the curvature normalization of D_lam."""
    return ring.sum_exprs(e * e for row in lam_A_product(lam, c) for e in row)
