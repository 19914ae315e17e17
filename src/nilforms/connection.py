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
    """The connection 1-forms omega^i_j."""


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
        pair: FormExpr(c, 1, {(k,): ring._canonical(acc_ij[k], 2) for k in sorted(acc_ij)})
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
    return ring.sum_exprs(curv.entry(i, j).value_at(i, j) for (i, j) in curv.pairs()) * 2


def pontryagin4(curv: CurvatureForms) -> FormExpr:
    """The 4-form sum_{i<j} Omega^i_j wedge Omega^i_j (equal to 8 pi^2 p1)."""
    parts: dict = {}
    for om in curv.entries.values():
        _square_into(parts, om)
    return _form(curv.coframe, 4, parts)


# ---------------------------------------------------------------------------
# auxiliary instanton connections

def gauge_rows(kind: str, mat, c: CoframeSpec) -> tuple:
    """The gauge matrix mat of kind on c as rows of ring elements, read by ring.exact.

    Lambda ("DLambda") is 3 x (dim - 4), B ("DB") is (dim - 4) x 3.  A flat
    mat is the one row when one row is expected, else the one column.
    Raises ValueError naming the shape when mat has any other.
    """
    nfib = c.dim - 4
    nrows, ncols = {"DLambda": (3, nfib), "DB": (nfib, 3)}[kind]
    rows = list(mat) if isinstance(mat, (list, tuple)) else None
    if rows is not None and not any(isinstance(r, (list, tuple)) for r in rows):
        if nrows == 1:
            rows = [rows]
        elif ncols == 1:
            rows = [[x] for x in rows]
    if rows is None or len(rows) != nrows or any(not isinstance(r, (list, tuple)) or len(r) != ncols for r in rows):
        raise ValueError(f"a {kind} matrix on a {c.dim}-dim coframe must be {nrows}x{ncols}")
    return tuple(tuple(ring.exact(x) for x in r) for r in rows)


def build_instanton_DLambda(lam, c: CoframeSpec) -> ConnectionForms:
    """Flat-looking auxiliary connection with fiber-leg coefficient matrix lam.

    Row r of lam gives L_r = sum_c lam[r][c] ebar^{4+c}, which fills the pairs
    of sigma_r with its signs: omega^a_b = sign * L_r for each (a, b): sign
    in SIGMA[r]; all remaining entries vanish.
    """
    rows = gauge_rows("DLambda", lam, c)
    entries = {}
    for r, pattern in SIGMA.items():
        L = FormExpr(c, 1, {(4 + col,): x for col, x in enumerate(rows[r - 1], 1) if x})
        for pair, sign in pattern.items():
            entries[pair] = L * sign
    return ConnectionForms(c, entries)


def lam_rank(rows) -> int:
    """Rank of a lambda matrix over the rationals, read off its minors (entries must be numbers).

    rows are the ring elements gauge_rows("DLambda", ...) gives; the caller
    reads them once, and they are not read again here.  0 when every entry
    is zero, 1 when every 2x2 minor vanishes, 3 when the 3x3 determinant
    does not, else 2.  The minors are sums of products of the entries as
    ints or Fractions, so nothing is divided and an integer lambda makes no
    Fraction.
    """
    m = [[e.as_number() for e in r] for r in rows]
    if any(x is None for r in m for x in r):
        raise ValueError("rank needs numeric lambda entries")
    if not any(x for r in m for x in r):
        return 0
    cols = range(len(m[0]))

    def minor(i, j, a, b):
        return m[i][a] * m[j][b] - m[i][b] * m[j][a]

    if not any(minor(i, j, a, b) for i, j in ((0, 1), (0, 2), (1, 2)) for a in cols for b in cols[a + 1:]):
        return 1
    if len(cols) == 3 and m[0][0] * minor(1, 2, 1, 2) - m[0][1] * minor(1, 2, 0, 2) + m[0][2] * minor(1, 2, 0, 1):
        return 3
    return 2


def lam_squared(lam, c: CoframeSpec) -> ring.CoefExpr:
    """lambda^2 = |lam . A|^2, the curvature normalization of D_lam; (lam . A)_{rm} = sum_c lam[r][c] A[c][m]."""
    cols = [[row[m] for row in c.A] for m in range(3)]
    entries = [ring.dot(row, col) for row in gauge_rows("DLambda", lam, c) for col in cols]
    return ring.dot(entries, entries)
