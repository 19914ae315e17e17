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
from functools import cache
from typing import Mapping

from . import ring
from .forms import (
    CoframeSpec,
    DimensionMismatch,
    FormExpr,
    _form,
    _parts,
    _square_into,
    _wedge_into,
    exterior_derivative,
)


class _FormMatrix:
    """Skew matrix of forms stored on strictly upper index pairs."""

    degree = 1

    def __init__(self, coframe: CoframeSpec, entries: Mapping[tuple, FormExpr], meta=None):
        self.coframe = coframe
        self.meta = dict(meta or {})
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

def levi_civita(c: CoframeSpec) -> ConnectionForms:
    """Metric connection forms from the Koszul formula on the orthonormal coframe."""
    d = c.dim
    dbar = {k: c.dbar(k) for k in range(1, d + 1)}
    half = ring.rat(1, 2)
    entries = {}
    for i in range(1, d + 1):
        for j in range(i + 1, d + 1):
            comps = {}
            for k in range(1, d + 1):
                g = (
                    dbar[i].value_at(j, k)
                    - dbar[k].value_at(i, j)
                    + dbar[j].value_at(k, i)
                ) * half
                if g:
                    comps[(k,)] = g
            entries[(i, j)] = FormExpr(c, 1, comps)
    return ConnectionForms(c, entries, meta={"kind": "levi-civita"})


def torsion_slice(T: FormExpr) -> dict[tuple, FormExpr]:
    """1-form matrix slice^i_j = sum_k T(ebar_i, ebar_j, ebar_k) ebar^k."""
    c = T.coframe
    out = {}
    for i in range(1, c.dim + 1):
        for j in range(i + 1, c.dim + 1):
            comps = {}
            for k in range(1, c.dim + 1):
                g = T.value_at(i, j, k)
                if g:
                    comps[(k,)] = g
            out[(i, j)] = FormExpr(c, 1, comps)
    return out


def torsion_connection(lc: ConnectionForms, T: FormExpr, sign: int) -> ConnectionForms:
    """nabla^{(s)} for s = sign in {+1, -1} with totally skew torsion 3-form T."""
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    if T.degree != 3:
        raise DimensionMismatch("torsion must be a 3-form")
    c = lc.coframe
    if T.coframe is not c:
        raise DimensionMismatch("torsion lives on a different coframe")
    half_s = ring.rat(sign, 2)
    slc = torsion_slice(T)
    entries = {
        (i, j): lc.entry(i, j) - slc[(i, j)] * half_s for (i, j) in lc.pairs()
    }
    return ConnectionForms(c, entries, meta={"kind": f"torsion({sign:+d})"})


def curvature(conn: ConnectionForms) -> CurvatureForms:
    c = conn.coframe
    legs = range(1, c.dim + 1)
    om = {(i, k): conn.entry(i, k) for i in legs for k in legs if i != k}
    entries = {}
    for (i, j) in conn.pairs():
        parts = _parts(exterior_derivative(om[i, j]))
        for k in legs:
            if k != i and k != j:
                _wedge_into(parts, om[i, k], om[k, j])
        entries[(i, j)] = _form(c, 2, parts)
    return CurvatureForms(c, entries, meta=dict(conn.meta))


def riemann(curv: CurvatureForms, i: int, j: int, k: int, l: int) -> ring.CoefExpr:
    """R(ebar_i, ebar_j, ebar_k, ebar_l) = Omega^l_k(ebar_i, ebar_j)."""
    return curv.entry(l, k).value_at(i, j)


def scalar_curvature(curv: CurvatureForms) -> ring.CoefExpr:
    return ring.sum_exprs(curv.entry(i, j).value_at(i, j) * 2 for (i, j) in curv.pairs())


def pontryagin4(curv: CurvatureForms) -> FormExpr:
    """The 4-form sum_{i<j} Omega^i_j wedge Omega^i_j (equal to 8 pi^2 p1)."""
    parts: dict = {}
    for om in curv.entries.values():
        _square_into(parts, om)
    return _form(curv.coframe, 4, parts)


def first_structure_residual(conn: ConnectionForms) -> dict[int, FormExpr]:
    """d ebar^i + omega^i_j wedge ebar^j for every leg (zero iff torsion-free)."""
    c = conn.coframe
    out = {}
    for i in range(1, c.dim + 1):
        parts = _parts(c.dbar(i))
        for j in range(1, c.dim + 1):
            if j != i:
                _wedge_into(parts, conn.entry(i, j), c.basis(j))
        out[i] = _form(c, 2, parts)
    return out


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

    Row r of lam feeds the quaternionic sign pattern
    omega^1_2 = -omega^3_4 = L_1, omega^1_3 = omega^2_4 = L_2,
    omega^1_4 = -omega^2_3 = L_3 with L_r = sum_c lam[r][c] ebar^{4+c};
    all remaining entries vanish.
    """
    nfib = c.dim - 4
    rows = _lam_rows(lam, nfib)
    L = []
    for r in range(3):
        comps = {(4 + 1 + col,): rows[r][col] for col in range(nfib) if rows[r][col]}
        L.append(FormExpr(c, 1, comps))
    entries = {
        (1, 2): L[0],
        (3, 4): -L[0],
        (1, 3): L[1],
        (2, 4): L[1],
        (1, 4): L[2],
        (2, 3): -L[2],
    }
    return ConnectionForms(c, entries, meta={"kind": "DLambda", "lam": rows})


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


def lam_A_product(conn_or_lam, c: CoframeSpec):
    """(lam . A)_{rm} = sum_c lam[r][c] A[c][m] as a 3x3 CoefExpr matrix."""
    lam = conn_or_lam.meta["lam"] if isinstance(conn_or_lam, ConnectionForms) else _lam_rows(conn_or_lam, c.dim - 4)
    A = c.params["A"]
    return tuple(
        tuple(ring.sum_exprs(lam[r][col] * A[col][m] for col in range(len(A))) for m in range(3))
        for r in range(3)
    )


def lam_squared(conn_or_lam, c: CoframeSpec) -> ring.CoefExpr:
    """lambda^2 = |lam . A|^2, the curvature normalization of D_lam."""
    return ring.sum_exprs(e * e for row in lam_A_product(conn_or_lam, c) for e in row)


def build_DB(B, c: CoframeSpec) -> ConnectionForms:
    """The nabla^- coefficient formulas with the fiber matrix replaced by B.

    Computed by running the full Koszul + torsion pipeline on the symbolic
    member of the same family and substituting the symbolic entries, so no
    connection table is hard-coded.
    """
    if c.dim not in (5, 7):
        raise DimensionMismatch("build_DB supports dims 7 and 5")
    nrows = c.dim - 4
    rows = B if isinstance(B[0], (list, tuple)) else [B]
    if len(rows) != nrows or any(len(r) != 3 for r in rows):
        raise ValueError(f"{c.dim}-dim B must be {nrows}x3")
    B_clean = tuple(tuple(ring.exact(x) for x in r) for r in rows)
    names = "a{r}{m}" if nrows == 3 else "a{m}"
    mapping = {
        names.format(r=r + 1, m=m + 1): B_clean[r][m] for r in range(nrows) for m in range(3)
    }

    wm = _twin_minus(nrows)
    entries = {
        (i, j): rebase(wm.entry(i, j).substitute(mapping), c) for (i, j) in wm.pairs()
    }
    return ConnectionForms(c, entries, meta={"kind": "DB", "B": B_clean})


@cache
def _twin_minus(nrows: int) -> ConnectionForms:
    """nabla^- of the symbolic kA (3 fiber rows) or h21 (1 row) coframe, derived once.

    Only the connection is kept, not its Geometry; build_DB substitutes into
    copies, so the cached forms are never mutated.
    """
    from .frames import k_a, h21
    from .gstruct import geometry

    return geometry(k_a() if nrows == 3 else h21()).minus


def rebase(form: FormExpr, c: CoframeSpec) -> FormExpr:
    """Transplant a form's components onto another coframe of equal dimension."""
    if form.coframe.dim != c.dim:
        raise DimensionMismatch("rebase needs equal dimensions")
    return FormExpr(c, form.degree, dict(form.comps))
