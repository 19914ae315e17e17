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
    build_instanton_DLambda,
    curvature,
    gauge_rows,
    lam_rank,
    lam_squared,
    pontryagin4,
)
from .forms import HORIZONTAL, DimensionMismatch, FormExpr, horizontal_volume
from .frames import CoframeSpec, abs_A_squared
from .gstruct import Geometry, build_DB, geometry, held_in
from .ring import BadParams, CoefExpr, const, expf, jet, lap_e_m2f, rat


class ConstraintViolated(Exception):
    """The jet-free part of a reduced residual is not the expected constant."""


# ---------------------------------------------------------------------------
# the gauge connection and the anomaly residual

class Gauge:
    """The auxiliary connection D named by ('DLambda', rows) or ('DB', rows) on one coframe.

    Its connection, curvature, p1, instanton residual, anomaly residual
    (alphaP symbolic), that residual's closed form and, for D_Lambda, its
    one-variable reduction are each derived on first use and then kept.  A
    rank-two D_Lambda is built, since the instanton test reads it, but its
    anomaly residual is refused on every read: a cached_property keeps no
    exception.  ``held`` keeps the outcomes of the checks that read this
    gauge alone, and the Weierstrass check's float maxima per point count.
    The gauge finds its coframe's Geometry through geometry(), so a Geometry
    holding it makes no cycle.
    """

    def __init__(self, c: CoframeSpec, kind: str, rows):
        if kind not in ("DLambda", "DB"):
            raise BadParams(f"unknown instanton kind {kind!r}")
        self.coframe, self.kind, self.rows = c, kind, rows
        self.held: dict = {}

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
        return pontryagin4(self.curvature)

    @cached_property
    def instanton_residual(self) -> dict:
        return geometry(self.coframe).structure.instanton_residual(self.curvature)

    @cached_property
    def anomaly_residual(self) -> CoefExpr:
        return anomaly_residual(self.coframe, _alphaP(), self)

    @cached_property
    def abs_B_squared(self) -> CoefExpr:
        """|B|^2, the sum of the squared entries of a D_B gauge's rows."""
        entries = [b for row in gauge_rows("DB", self.rows, self.coframe) for b in row]
        return ring.dot(entries, entries)

    @cached_property
    def displayed_residual(self) -> CoefExpr:
        """The paper's closed form of anomaly_residual: displayed_residual_dlambda, or _db of |B|^2."""
        c = self.coframe
        if self.kind == "DLambda":
            return displayed_residual_dlambda(c, self.rows, _alphaP())
        return displayed_residual_db(c, self.abs_B_squared, _alphaP())

    @cached_property
    def reduced_residual(self) -> CoefExpr:
        """reduce_onevar of the anomaly residual with the coframe's |A|^2 and the rows' lambda^2."""
        if self.kind != "DLambda":
            raise BadParams("the one-variable reduction needs a DLambda gauge")
        c = self.coframe
        return reduce_onevar(self.anomaly_residual, abs_A_squared(c), lam_squared(self.rows, c))


def held_gauge(geo: Geometry, kind: str, rows) -> Gauge:
    """The Gauge of (kind, rows) on geo's coframe, kept in geo.held for as long as geo lives.

    Only for rows from the program's own tables (see gstruct's hold rule).
    """
    rows = tuple([tuple(r) if isinstance(r, (list, tuple)) else r for r in rows])
    return held_in(geo, (kind, rows), lambda: Gauge(geo.coframe, kind, rows))


def family_residual(family: Geometry, kind: str) -> CoefExpr:
    """The anomaly residual (alphaP symbolic) of the gauge of kind with one free symbol per entry on a family frame.

    Entry (r, m) of the matrix, in the shape gauge_rows gives, is the
    constant named kind + "rm" (DLambda11.., DB11..), read off the one
    table _entry_symbols that _row_values reads too.  Only the ebar^{1234}
    component of the gauge's p1 goes into _residual, and for every Lambda
    it is the one a numeric Lambda of rank <= 1 gives: in
    p1 = sum Omega ^ Omega with Omega = d omega + omega ^ omega, d omega
    is horizontal and linear in Lambda A
    while omega ^ omega lives on the fibre legs, so that component is a
    quadratic form in Lambda A, and rank <= 1, which anomaly_residual asks
    first, only makes the other components vanish.  Built on first use,
    never at import, from a Gauge of this call alone, and only the residual
    is kept, in family.held.
    """
    def build() -> CoefExpr:
        c = family.coframe
        nrows, ncols = (3, c.dim - 4) if kind == "DLambda" else (c.dim - 4, 3)
        rows = tuple(tuple(const(name) for _, name in row[:ncols]) for row in _entry_symbols(kind)[:nrows])
        p1 = Gauge(c, kind, rows).p1
        return _residual(family, FormExpr(c, 4, {HORIZONTAL: p1.comps[HORIZONTAL]}), _alphaP())

    return held_in(family, ("family-residual", kind), build)


def _alphaP() -> CoefExpr:
    """The constant alphaP, the symbol a residual keeps, built once per process (ring.held)."""
    return ring.held("alphaP", lambda: const("alphaP"))


def _entry_symbols(kind: str) -> tuple:
    """The symbol of each entry (r, m) of a 3x3 gauge matrix of kind, the constant named kind + "rm" (ring.held)."""
    return ring.held(f"{kind} entry symbols", lambda: tuple(
        tuple(ring.const_sym(f"{kind}{r}{m}") for m in (1, 2, 3)) for r in (1, 2, 3)))


def _row_values(kind: str, rows) -> dict | None:
    """{family_residual symbol: number} of each entry of rows as gauge_rows reads them, or None when one is no number.

    An int entry goes in as an int, so an integer matrix is summed in ints.
    """
    values = {sym: x.as_number() for syms, row in zip(_entry_symbols(kind), rows) for sym, x in zip(syms, row)}
    return None if None in values.values() else values


def _residual(geo: Geometry, p1g: FormExpr, alphaP: CoefExpr) -> CoefExpr:
    """-(the volume coefficient) of dT - (alphaP/4)(p1(nabla^-) - p1g) on geo's coframe."""
    F = geo.dT - (geo.p1_minus - p1g) * (alphaP * rat(1, 4))
    volume = horizontal_volume(F)
    if volume is None:
        idx = next(idx for idx in F.comps if idx != HORIZONTAL)
        raise ValueError(f"anomaly form has a non-volume component on {idx}")
    return -volume


def anomaly_residual(c: CoframeSpec, alphaP, gauge) -> CoefExpr:
    """Coefficient r with dT-bar - (alphaP/4)(8 pi^2 p1(nabla^-) - 8 pi^2 p1(D)) = -r e^{-4f} ebar^{1234}.

    D is a Gauge on c, or ('DLambda', rows) / ('DB', rows) for a gauge of
    this call alone.  The rows are read once (gauge_rows), and a Lambda of
    rank two or more, or with a symbol, is refused on every call before the
    route is chosen (lam_rank).  The one place a gauge meets its family: on
    a numeric kA or h21 frame with numeric rows, r is one substitution of
    the family's held residual (family_residual), the frame's numbers, the
    entries' values (_row_values) and any alphaP other than the symbol
    alphaP going in together.  Elsewhere r is read off c's own dT and the
    gauge's p1.  Raises ValueError when the 4-form is not a pure volume
    multiple of the horizontal legs (it always is for the catalogued frames).
    """
    if not isinstance(gauge, Gauge):
        kind, rows = gauge
        gauge = Gauge(c, kind, rows)
    elif gauge.coframe is not c:
        raise DimensionMismatch("the gauge lives on a different coframe")
    geo = geometry(c)  # held for the call, so the gauge's reads share it
    rows = gauge_rows(gauge.kind, gauge.rows, c)
    if gauge.kind == "DLambda" and lam_rank(rows) > 1:
        raise BadParams("DLambda: the coefficient matrix must have rank <= 1")
    values = None if geo.family is None else _row_values(gauge.kind, rows)
    ap = _coef(alphaP)
    if values is None:
        return _residual(geo, gauge.p1, ap)
    values = {**geo.values, **values}
    if ap != _alphaP():
        values[ring.const_sym("alphaP")] = ap
    return family_residual(geo.family, gauge.kind).substitute(values)


def _closed_form_basis() -> tuple:
    """The input-free factors of both closed forms, built once per process (ring.held):
    (lap e^{2f}, 2, -3/4 lap e^{-2f}, (8 hessian2 + 8 p_laplacian4)/4, 1)."""
    return ring.held("closed-form basis", lambda: (
        ring.lap_e2f(), rat(2), rat(-3, 4) * lap_e_m2f(), rat(2) * (ring.hessian2() + ring.p_laplacian4()), ring.ONE))


def displayed_residual_dlambda(c: CoframeSpec, lam, alphaP) -> CoefExpr:
    """Closed-form DLambda residual used as the comparison target.

    lap e^{2f} + 2|A|^2 + (alphaP/4)(8 hessian2 + 8 p_laplacian4 - 3|A|^2 lap e^{-2f} + 4 lambda^2):
    the on-shell factor plus alphaP/4 times the bracket, summed as one dot
    product with _closed_form_basis.
    """
    ap = _coef(alphaP)
    absA2 = abs_A_squared(c)
    return ring.dot((ring.ONE, absA2, ap * absA2, ap, ap * lam_squared(lam, c)), _closed_form_basis())


def displayed_residual_db(c: CoframeSpec, absB2, alphaP) -> CoefExpr:
    """Closed-form DB residual used as the comparison target.

    lap e^{2f} + 2|A|^2 - (3/4) alphaP (|A|^2 - |B|^2) lap e^{-2f}: the
    on-shell factor and one more term, summed as one dot product with the
    first three of _closed_form_basis.
    """
    absA2 = abs_A_squared(c)
    return ring.dot((ring.ONE, absA2, _coef(alphaP) * (absA2 - _coef(absB2))), _closed_form_basis()[:3])


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


def first_integral() -> CoefExpr:
    """solv4_lhs with |A|^2 the constant absA2, built once per process on first use (ring.held)."""
    return ring.held("solv4_lhs(absA2)", lambda: solv4_lhs(const("absA2")))


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
    powers = [U ** (upow + mu) * AL ** (apow + ma) for upow, apow, _ in pieces]
    out = ring.dot((piece for _, _, piece in pieces), powers)
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
    """u_identity_residual at |A|^2 = (4/3) alpha^2 d^2, where its bracket is
    alpha^4 (4u^3 - 4 d^2 u - u'^2): the Weierstrass cubic with g2 = 4d^2, g3 = 0."""
    return u_identity_residual(rat(4, 3) * const("alpha") ** 2 * const("d") ** 2)


def u_substitution_residuals() -> tuple[CoefExpr, CoefExpr]:
    """(u_identity_residual with |A|^2 the constant absA2, weierstrass_cubic_match()).

    Both read no input, so the pair is built once per process on first use
    (ring.held); the substitution identity holds when both are zero.
    """
    return ring.held("u_substitution", lambda: (u_identity_residual(const("absA2")), weierstrass_cubic_match()))


def d_parameter(absA2: float, alpha: float) -> float:
    """d = sqrt(3 |A|^2) / (2 alpha): the cubic's positive root for the
    one-variable solution u = weierstrass_p(x^1, d)."""
    return math.sqrt(3.0 * absA2) / (2.0 * abs(alpha))

