"""Anomaly-cancellation residuals and the one-variable dilaton equation chain.

The central object is the coefficient r in

    dT-bar - (alphaP/4) [8 pi^2 p1(nabla^-) - 8 pi^2 p1(D)] = -r e^{-4f} ebar^{1234},

computed entirely from engine curvature.  The chain continues with the
reduction of r to a single variable under 2|A|^2 = alpha^2 lambda^2 and
alphaP = -alpha^2, its first integral, and, through u = alpha^{-2} e^{2f},
the Weierstrass cubic.
"""

from __future__ import annotations

import math
from functools import cached_property

from . import ring
from .connection import (
    ConnectionForms,
    _lam_rows,
    build_instanton_DLambda,
    curvature,
    lam_rank,
    lam_squared,
    pontryagin4,
)
from .forms import DimensionMismatch, FormExpr
from .frames import CoframeSpec, abs_A_squared
from .gstruct import Geometry, _db_rows, build_DB, geometry, specialised
from .profiles import BadParams
from .ring import CoefExpr, const, expf, jet, lap_e2f, lap_e_m2f, rat


class ConstraintViolated(Exception):
    """The jet-free part of a reduced residual is not the expected constant."""


# ---------------------------------------------------------------------------
# the gauge connection and the anomaly residual

class Gauge:
    """The auxiliary connection D named by ('DLambda', rows) or ('DB', rows) on one coframe.

    Its connection, curvature, p1, instanton residual, anomaly residual
    (alphaP symbolic) and, for D_Lambda, the one-variable reduction of that
    residual are each derived on first use and then kept.  On a frame whose
    Geometry has a family (a numeric kA or h21), p1 is instead the family
    gauge's (family_gauge), specialised to the frame's numbers and the rows'.
    D_Lambda is built whatever its rank, since the instanton test reads a
    rank-two one too; the anomaly residual and its reduction refuse it, on
    every read, because a cached_property keeps no exception.  The gauge
    keeps its coframe and finds the coframe's Geometry through geometry(),
    so a Geometry holding gauges (held_gauge) makes no reference cycle with
    them.
    """

    def __init__(self, c: CoframeSpec, kind: str, rows):
        if kind not in ("DLambda", "DB"):
            raise BadParams(f"unknown instanton kind {kind!r}")
        self.coframe, self.kind, self.rows = c, kind, rows

    @cached_property
    def connection(self) -> ConnectionForms:
        if self.kind == "DB":
            return build_DB(self.rows, self.coframe)
        return build_instanton_DLambda(self.rows, self.coframe)

    # the module functions: methods do not see the class's names
    @cached_property
    def curvature(self):
        return curvature(self.connection)

    @cached_property
    def p1(self) -> FormExpr:
        geo = geometry(self.coframe)
        values = _row_values(self.kind, self.rows, self.coframe) if geo.family is not None else None
        if values is None:
            return pontryagin4(self.curvature)
        return specialised(family_gauge(geo.family, self.kind).p1, self.coframe, {**geo.values, **values})

    @cached_property
    def instanton_residual(self) -> dict:
        return geometry(self.coframe).structure.instanton_residual(self.curvature)

    @cached_property
    def anomaly_residual(self) -> CoefExpr:
        return anomaly_residual(self.coframe, const("alphaP"), self)

    @cached_property
    def reduced_residual(self) -> CoefExpr:
        """reduce_onevar of the anomaly residual with the coframe's |A|^2 and the rows' lambda^2."""
        if self.kind != "DLambda":
            raise BadParams("the one-variable reduction needs a DLambda gauge")
        c = self.coframe
        return reduce_onevar(self.anomaly_residual, abs_A_squared(c), lam_squared(self.rows, c))


def held_gauge(geo: Geometry, kind: str, rows) -> Gauge:
    """The Gauge of (kind, rows) on geo's coframe, kept in geo.gauges for as long as geo lives.

    Only for rows from the program's own tables (see gstruct's hold rule).
    """
    key = (kind, tuple(tuple(r) if isinstance(r, (list, tuple)) else r for r in rows))
    if key not in geo.gauges:
        geo.gauges[key] = Gauge(geo.coframe, kind, key[1])
    return geo.gauges[key]


def family_gauge(family: Geometry, kind: str) -> Gauge:
    """The gauge of kind with symbolic rows on a family frame, kept in family.gauges.

    D_Lambda's rows are Lambda = u v^T with symbols Lu1..Lu3 and Lv1..,
    which every Lambda of rank at most one specialises; D_B's are the
    symbols B11.., one per entry.  Derived on first use, never at import.
    """
    key = (kind, None)  # table rows are numbers, so no held gauge has this key
    if key not in family.gauges:
        nfib = family.coframe.dim - 4
        if kind == "DLambda":
            rows = tuple(tuple(const(f"Lu{r}") * const(f"Lv{col}") for col in range(1, nfib + 1)) for r in (1, 2, 3))
        else:
            rows = tuple(tuple(const(f"B{r}{m}") for m in (1, 2, 3)) for r in range(1, nfib + 1))
        family.gauges[key] = Gauge(family.coframe, kind, rows)
    return family.gauges[key]


def _row_values(kind: str, rows, c: CoframeSpec) -> dict | None:
    """{family_gauge symbol: number} that gives the numeric rows, or None when there is none.

    A Lambda is factored exactly as u v^T: u is the column of its first
    nonzero entry, over the gcd of that column when its entries are
    integers, and v that entry's row over u's entry; Lambda = 0 has u = 0.
    So an integer Lambda gets integer u and v, and its substituted p1 is
    summed in ints rather than Fractions.  A Lambda of rank two, or rows
    holding a symbol, has no such values.
    """
    read = _db_rows(rows, c) if kind == "DB" else _lam_rows(rows, c.dim - 4)
    mat = [[x.as_fraction() for x in r] for r in read]
    if any(x is None for r in mat for x in r):
        return None
    if kind == "DB":
        return {ring.const_sym(f"B{r}{m}"): x for r, row in enumerate(mat, 1) for m, x in enumerate(row, 1)}
    pivot = next(((r, col) for r, row in enumerate(mat) for col, x in enumerate(row) if x), None)
    if pivot is None:
        u, v = [0] * 3, [0] * len(mat[0])
    else:
        r0, c0 = pivot
        col = [row[c0] for row in mat]
        g = math.gcd(*(x.numerator for x in col)) if all(x.denominator == 1 for x in col) else 1
        u = [x / g for x in col]
        v = [x / u[r0] for x in mat[r0]]
        if any(x != a * b for row, a in zip(mat, u) for x, b in zip(row, v)):
            return None  # rank two
    return {ring.const_sym(f"L{side}{n}"): x for side, vec in (("u", u), ("v", v)) for n, x in enumerate(vec, 1)}


def _anomaly_gauge(c: CoframeSpec, gauge) -> Gauge:
    """gauge, a Gauge on c or (kind, rows), as a Gauge; a DLambda of rank above one is refused."""
    if not isinstance(gauge, Gauge):
        kind, rows = gauge
        gauge = Gauge(c, kind, rows)
    elif gauge.coframe is not c:
        raise DimensionMismatch("the gauge lives on a different coframe")
    if gauge.kind == "DLambda" and lam_rank(gauge.rows, c) > 1:
        raise BadParams("DLambda: the coefficient matrix must have rank <= 1")
    return gauge


def anomaly_form(c: CoframeSpec, alphaP, gauge) -> FormExpr:
    """dT-bar - (alphaP/4)(8 pi^2 p1(nabla^-) - 8 pi^2 p1(D)) as a 4-form.

    D is a Gauge on c, or ('DLambda', rows) / ('DB', rows) for a gauge of
    this call alone.
    """
    ap = _coef(alphaP)
    geo = geometry(c)
    p1g = _anomaly_gauge(c, gauge).p1
    return geo.dT - (geo.p1_minus - p1g) * (ap * rat(1, 4))


def anomaly_residual(c: CoframeSpec, alphaP, gauge) -> CoefExpr:
    """Coefficient r with anomaly_form = -r e^{-4f} ebar^{1234}.

    Raises ValueError when the 4-form is not a pure volume multiple of the
    horizontal legs (it always is for the catalogued frames).
    """
    F = anomaly_form(c, alphaP, gauge)
    for idx in F.comps:
        if idx != (1, 2, 3, 4):
            raise ValueError(f"anomaly form has a non-volume component on {idx}")
    comp = F.comps.get((1, 2, 3, 4), ring.ZERO)
    return (-comp).scale_expf(4)


def displayed_residual_dlambda(c: CoframeSpec, lam, alphaP) -> CoefExpr:
    """Closed-form DLambda residual used as the comparison target."""
    ap = _coef(alphaP)
    absA2 = abs_A_squared(c)
    lam2 = lam_squared(lam, c)
    bracket = (
        rat(8) * ring.hessian2()
        + rat(8) * ring.p_laplacian4()
        - rat(3) * absA2 * lap_e_m2f()
        + rat(4) * lam2
    )
    return lap_e2f() + rat(2) * absA2 + ap * rat(1, 4) * bracket


def displayed_residual_db(c: CoframeSpec, absB2, alphaP) -> CoefExpr:
    """Closed-form DB residual used as the comparison target."""
    ap = _coef(alphaP)
    absA2 = abs_A_squared(c)
    diff = absA2 - _coef(absB2)
    return lap_e2f() + rat(2) * absA2 - rat(3, 4) * ap * diff * lap_e_m2f()


def _coef(x) -> CoefExpr:
    """x as a ring element; a string names a constant symbol."""
    return const(x) if isinstance(x, str) else ring.coerce(x)


# ---------------------------------------------------------------------------
# one-variable reduction

def split_jet_free(e: CoefExpr) -> tuple[CoefExpr, CoefExpr]:
    """(jet-free-and-expf-free part, remainder)."""
    free, rest = [], []
    for term in e.monomials():
        _, k, powers = term
        jet_free = k == 0 and not any(ring.is_jet(sym) for sym, _ in powers)
        (free if jet_free else rest).append(term)
    return ring.from_monomials(free), ring.from_monomials(rest)


def reduce_onevar(residual: CoefExpr, absA2: CoefExpr, lam2: CoefExpr) -> CoefExpr:
    """One-variable reduction of a DLambda residual.

    Substitutes alphaP -> -alpha^2, restricts f to depend on x^1 alone, and
    removes the jet-free constant after checking it equals
    2|A|^2 - alpha^2 lambda^2 (the constraint that makes the equation
    solvable); raises ConstraintViolated otherwise.
    """
    alpha2 = const("alpha") ** 2
    r1 = residual.substitute({"alphaP": rat(-1) * alpha2})
    r2 = ring.restrict_onevar(r1)
    free, rest = split_jet_free(r2)
    expected = rat(2) * _coef(absA2) - alpha2 * _coef(lam2)
    if free != expected:
        raise ConstraintViolated(
            f"jet-free part {free!r} differs from 2|A|^2 - alpha^2 lambda^2 = {expected!r}"
        )
    return rest


def solv4_lhs(absA2) -> CoefExpr:
    """(e^{2f})' + (3/4) alpha^2 |A|^2 (e^{-2f})' - 2 alpha^2 f1^3.

    The once-integrated one-variable equation: reduce_onevar output equals
    the x^1-derivative of this expression.
    """
    alpha2 = const("alpha") ** 2
    a2 = _coef(absA2)
    return (
        expf(2).partial(1)
        + rat(3, 4) * alpha2 * a2 * expf(-2).partial(1)
        - rat(2) * alpha2 * jet(1) ** 3
    )


def solv4_ode(absA2) -> CoefExpr:
    """The second-order one-variable equation d/dx^1 of solv4_lhs."""
    return solv4_lhs(absA2).partial(1)


# ---------------------------------------------------------------------------
# u-substitution: e^{2f} = alpha^2 u

def to_u_polynomial(e: CoefExpr) -> tuple[CoefExpr, int, int]:
    """Rewrite an expression in f1 and e^{kf} through u = alpha^{-2} e^{2f}.

    Uses e^{2f} = alpha^2 u and f1 = u1/(2u) and clears denominators:
    returns (P, mu, ma) with  u^mu * alpha^ma * e == P  exactly, where P is
    polynomial in the constant symbols u, u1, alpha (and any other constants
    present).  Only the f1 jet may occur.
    """
    U = const("u")
    U1 = const("u1")
    AL = const("alpha")
    f1 = ring.jet_sym(1)
    pieces = []
    for coef, k, powers in e.monomials():
        if k % 2:
            raise ValueError("odd e^{kf} power cannot be written in u")
        p1, consts = 0, []
        for sym, p in powers:
            if sym == f1:
                p1 = p
            elif ring.is_jet(sym):
                raise ValueError(f"jet symbol {sym} is not expressible in (u, u1)")
            else:
                consts.append((sym, p))
        piece = ring.from_monomials([(coef, 0, consts)]) * U1 ** p1 * rat(1, 2 ** p1)
        pieces.append((k // 2 - p1, k, piece))
    if not pieces:
        return ring.ZERO, 0, 0
    mu = max(0, -min(up for up, _, _ in pieces))
    ma = max(0, -min(ap for _, ap, _ in pieces))
    out = ring.sum_exprs(piece * U ** (upow + mu) * AL ** (apow + ma) for upow, apow, piece in pieces)
    return out, mu, ma


def u_identity_residual(absA2) -> CoefExpr:
    """Cleared-denominator difference between solv4_lhs in u-variables and
    alpha^2 u'/(4u^3) (4u^3 - 3(|A|^2/alpha^2) u - u'^2); zero iff the
    substitution identity holds."""
    P, mu, ma = to_u_polynomial(solv4_lhs(absA2))
    return P - _u_rhs(absA2, mu, ma)


def _u_rhs(absA2, mu: int, ma: int) -> CoefExpr:
    """u^mu alpha^ma * [alpha^2 u'/(4u^3)] * [4u^3 - 3(|A|^2/alpha^2)u - u'^2].

    Requires mu >= 3 and ma >= 2 so every denominator clears; written so
    that each of the three products is polynomial on its own.
    """
    if mu < 3 or ma < 2:
        raise ValueError("clearing powers too small for the displayed identity")
    U, U1, AL = const("u"), const("u1"), const("alpha")
    a2 = _coef(absA2)
    pref = U1 * rat(1, 4) * U ** (mu - 3) * AL ** (ma - 2)
    # distribute alpha^{2+2} = alpha^4 over the bracket, using two alphas to
    # clear the |A|^2/alpha^2 term
    bracket = rat(4) * AL ** 4 * U ** 3 - rat(3) * AL ** 2 * a2 * U - AL ** 4 * U1 ** 2
    return pref * bracket


def weierstrass_cubic_match() -> CoefExpr:
    """Difference between the cleared u-form of solv4_lhs with
    |A|^2 = (4/3) alpha^2 d^2 and (alpha^4 u'/4)(4u^3 - 4 d^2 u - u'^2)."""
    P, mu, ma = to_u_polynomial(solv4_lhs(const("absA2")))
    dd = const("d") ** 2
    P2 = P.substitute({"absA2": rat(4, 3) * const("alpha") ** 2 * dd})
    U, U1, AL = const("u"), const("u1"), const("alpha")
    rhs = (
        AL ** 4 * U1 * rat(1, 4) * U ** (mu - 3) * AL ** (ma - 2)
        * (rat(4) * U ** 3 - rat(4) * dd * U - U1 ** 2)
    )
    return P2 - rhs


def d_parameter(absA2: float, alpha: float) -> float:
    """d = sqrt(3 |A|^2) / (2 alpha): the cubic's positive root for the
    one-variable solution u = weierstrass_p(x^1, d)."""
    return math.sqrt(3.0 * absA2) / (2.0 * abs(alpha))

