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

from . import ring
from .connection import build_instanton_DLambda, curvature, lam_rank, lam_squared, pontryagin4
from .forms import FormExpr
from .frames import CoframeSpec, abs_A_squared
from .gstruct import build_DB, geometry
from .profiles import BadParams
from .ring import CoefExpr, const, expf, jet, lap_e2f, lap_e_m2f, rat


class ConstraintViolated(Exception):
    """The jet-free part of a reduced residual is not the expected constant."""


# ---------------------------------------------------------------------------
# the anomaly residual

def gauge_connection(c: CoframeSpec, instanton):
    """Build the auxiliary connection named by ('DLambda', rows) / ('DB', rows).

    An already-built connection matrix passes through unchanged.
    """
    if hasattr(instanton, "entry"):
        return instanton
    kind, mat = instanton
    if kind == "DLambda":
        if lam_rank(mat, c) > 1:
            raise BadParams("DLambda: the coefficient matrix must have rank <= 1")
        return build_instanton_DLambda(mat, c)
    if kind == "DB":
        return build_DB(mat, c)
    raise BadParams(f"unknown instanton kind {kind!r}")


def anomaly_form(c: CoframeSpec, alphaP, instanton) -> FormExpr:
    """dT-bar - (alphaP/4)(8 pi^2 p1(nabla^-) - 8 pi^2 p1(D)) as a 4-form."""
    ap = _coef(alphaP)
    geo = geometry(c)
    p1g = pontryagin4(curvature(gauge_connection(c, instanton)))
    return geo.dT - (geo.p1_minus - p1g) * (ap * rat(1, 4))


def anomaly_residual(c: CoframeSpec, alphaP, instanton) -> CoefExpr:
    """Coefficient r with anomaly_form = -r e^{-4f} ebar^{1234}.

    Raises ValueError when the 4-form is not a pure volume multiple of the
    horizontal legs (it always is for the catalogued frames).
    """
    F = anomaly_form(c, alphaP, instanton)
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


def weierstrass_cubic_match(absA2=None) -> CoefExpr:
    """Difference between the cleared u-form of solv4_lhs with
    |A|^2 = (4/3) alpha^2 d^2 and (alpha^4 u'/4)(4u^3 - 4 d^2 u - u'^2)."""
    if absA2 is None:
        absA2 = const("absA2")
    a2 = _coef(absA2)
    P, mu, ma = to_u_polynomial(solv4_lhs(a2))
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

