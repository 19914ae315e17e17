"""Special structures carried by the rescaled coframes and their torsion.

The 7-dim coframes carry a G2 form, the 5-dim ones an almost-contact
SU(2) quadruple, the 6-dim contractions an SU(3) triple.  All three share
one totally skew torsion 3-form, computed uniformly by the block formula

    T = 2 d^psi f wedge omegabar_1 + sum_r d ebar^{4+r} wedge ebar^{4+r},

which in dimension 7 coincides with the Hodge expression
``star(2 df wedge Theta - d Theta)`` and in dimension 5 with
``eta wedge d eta + 2 d^psi f wedge F``; the G2 and SU(2) structures'
``torsion()`` is that second route.

``structure(c)`` picks the structure of a coframe by its dimension, and a
``Geometry`` derives the torsion -> nabla^{+/-} -> curvature -> p1 chain of
one coframe, each piece once.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from . import ring
from .connection import curvature, levi_civita, pontryagin4, scalar_curvature, torsion_connection
from .forms import (
    CoframeSpec,
    DimensionMismatch,
    FormExpr,
    _form,
    _wedge_into,
    df_form,
    dpsi_f_form,
    exterior_derivative,
    hodge_star,
    hodge_star_horizontal,
    omega_bar,
)


class NotAntiSelfDual(Exception):
    """Raised when d eta acquires a self-dual or non-horizontal component."""


# ---------------------------------------------------------------------------
# shared torsion

def direct_torsion(c: CoframeSpec) -> FormExpr:
    """The block torsion 3-form (valid in dimensions 5, 6 and 7)."""
    parts: dict = {}
    _wedge_into(parts, dpsi_f_form(c) * 2, omega_bar(c, 1))
    for leg in range(5, c.dim + 1):
        _wedge_into(parts, c.dbar(leg), c.basis(leg))
    return _form(c, 3, parts)


# ---------------------------------------------------------------------------
# G2 (dimension 7)

@dataclass
class G2Structure:
    coframe: CoframeSpec
    theta: FormExpr
    star_theta: FormExpr

    def residuals(self) -> dict[str, FormExpr]:
        r1, r2 = check_integrable_pure(self)
        return {"coclosed": r1, "pure_type": r2}

    def torsion(self) -> FormExpr:
        return torsion_3form(self)

    def instanton_residual(self, curv) -> dict[tuple, ring.CoefExpr]:
        return g2_instanton_residual(curv, self)

    def holonomy_residual(self, curv) -> dict[tuple, ring.CoefExpr]:
        return g2_holonomy_residual(curv, self)


def build_g2(c: CoframeSpec) -> G2Structure:
    if c.dim != 7:
        raise DimensionMismatch("G2 structure needs a 7-dim coframe")
    theta = (
        omega_bar(c, 1).wedge(c.basis(7))
        + omega_bar(c, 2).wedge(c.basis(5))
        - omega_bar(c, 3).wedge(c.basis(6))
        + c.basis(5, 6, 7)
    )
    return G2Structure(c, theta, hodge_star(theta))


def check_integrable_pure(g: G2Structure) -> tuple[FormExpr, FormExpr]:
    """Residuals (d star Theta - 2 df wedge star Theta, d Theta wedge Theta)."""
    c = g.coframe
    r1 = exterior_derivative(g.star_theta) - (df_form(c) * 2).wedge(g.star_theta)
    r2 = exterior_derivative(g.theta).wedge(g.theta)
    return r1, r2


def torsion_3form(g: G2Structure) -> FormExpr:
    """T = star(2 df wedge Theta - d Theta)."""
    c = g.coframe
    return hodge_star((df_form(c) * 2).wedge(g.theta) - exterior_derivative(g.theta))


def g2_instanton_residual(curv, g: G2Structure) -> dict[tuple, ring.CoefExpr]:
    """residual(i, j, m) = sum_{k,l} Omega^i_j(ebar_k, ebar_l) Theta(ebar_k, ebar_l, ebar_m)."""
    out = {}
    theta = g.theta
    for (i, j) in curv.pairs():
        om = curv.entry(i, j)
        if not om and not theta:
            continue
        for m in range(1, 8):
            total = ring.sum_exprs(
                oc * tc * 2 for (k, l), oc in om.comps.items() if (tc := theta.value_at(k, l, m))
            )
            if total:
                out[(i, j, m)] = total
    return out


def g2_holonomy_residual(curv, g: G2Structure) -> dict[tuple, ring.CoefExpr]:
    """residual(k, l, m) = sum_{i,j} Omega^i_j(ebar_k, ebar_l) Theta(ebar_i, ebar_j, ebar_m).

    Contracts the endomorphism slots against Theta: vanishing for every
    (k, l, m) says each curvature matrix lies in the g2 subalgebra, i.e.
    the connection's holonomy preserves the structure.  This is the
    contraction that vanishes identically for the (+)-torsion connection;
    g2_instanton_residual contracts the form slots instead.
    """
    out = {}
    pair_forms = {}
    for (i, j) in curv.pairs():
        om = curv.entry(i, j)
        for (k, l), oc in om.comps.items():
            pair_forms.setdefault((k, l), []).append((i, j, oc))
    for (k, l), contribs in pair_forms.items():
        for m in range(1, 8):
            total = ring.sum_exprs(
                oc * tc * 2 for (i, j, oc) in contribs if (tc := g.theta.value_at(i, j, m))
            )
            if total:
                out[(k, l, m)] = total
    return out


# ---------------------------------------------------------------------------
# SU(2) (dimension 5)

@dataclass
class SU2Structure:
    coframe: CoframeSpec
    eta: FormExpr
    F: FormExpr
    omega2: FormExpr
    omega3: FormExpr

    def residuals(self) -> dict[str, FormExpr]:
        return su2_structure_residuals(self)

    def torsion(self) -> FormExpr:
        """T = eta wedge d eta + 2 d^psi f wedge F."""
        deta = exterior_derivative(self.eta)
        return self.eta.wedge(deta) + dpsi_f_form(self.coframe).wedge(self.F) * 2

    def instanton_residual(self, curv) -> dict[tuple, ring.CoefExpr]:
        return su2_instanton_residual(curv, self)

    def holonomy_residual(self, curv) -> dict[tuple, ring.CoefExpr]:
        return su2_holonomy_residual(curv, self)


def build_su2(c: CoframeSpec) -> SU2Structure:
    if c.dim != 5:
        raise DimensionMismatch("SU(2) structure needs a 5-dim coframe")
    deta = c.dbar(5)
    for idx in deta.comps:
        if any(i > 4 for i in idx):
            raise NotAntiSelfDual("d eta has a non-horizontal component")
    if hodge_star_horizontal(deta) + deta:
        raise NotAntiSelfDual("d eta has a self-dual component")
    return SU2Structure(c, c.basis(5), omega_bar(c, 1), omega_bar(c, 2), omega_bar(c, 3))


def su2_structure_residuals(s: SU2Structure) -> dict[str, FormExpr]:
    """Residuals of d omega_t = 2 df wedge omega_t and star_H d eta = -d eta."""
    c = s.coframe
    two_df = df_form(c) * 2
    out = {}
    for t, om in (("omega1", s.F), ("omega2", s.omega2), ("omega3", s.omega3)):
        out[f"d{t}"] = exterior_derivative(om) - two_df.wedge(om)
    deta = exterior_derivative(s.eta)
    out["asd"] = hodge_star_horizontal(deta) + deta
    return out


def psi_image(k: int) -> tuple[int, int]:
    """(sign, index) of psi ebar_k; (0, 0) when psi kills the vector."""
    table = {1: (-1, 2), 2: (1, 1), 3: (-1, 4), 4: (1, 3)}
    return table.get(k, (0, 0))


def _su2_split(M) -> dict[str, ring.CoefExpr]:
    """Nonzero self-dual (w1..w3) and mixed (m1..m4) parts of the skew array M(i, j).

    M lies in su(2) exactly when both vanish: it is then a combination of the
    anti-self-dual horizontal 2-forms.
    """
    half = ring.rat(1, 2)
    parts = {
        "w1": (M(1, 2) + M(3, 4)) * half,
        "w2": (M(1, 3) - M(2, 4)) * half,
        "w3": (M(1, 4) + M(2, 3)) * half,
    }
    for k in range(1, 5):
        parts[f"m{k}"] = M(k, 5)
    return {label: val for label, val in parts.items() if val}


def su2_instanton_residual(curv, s: SU2Structure) -> dict[tuple, ring.CoefExpr]:
    """Self-dual and mixed components of each curvature entry.

    Vanishing of all entries is equivalent to the psi-compatibility pair
    Omega(psi X, psi Y) = Omega(X, Y), sum_k Omega(ebar_k, psi ebar_k) = 0.
    """
    out = {}
    for (i, j) in curv.pairs():
        for label, val in _su2_split(curv.entry(i, j).value_at).items():
            out[(i, j, label)] = val
    return out


def su2_holonomy_residual(curv, s: SU2Structure) -> dict[tuple, ring.CoefExpr]:
    """Endomorphism-side analogue of su2_instanton_residual.

    For each fixed vector pair (k, l) the skew matrix
    M_{ij} = Omega^i_j(ebar_k, ebar_l) is tested for membership in the
    su(2) span of the anti-self-dual horizontal 2-forms; identically zero
    for the (+)-torsion connection.
    """
    out = {}
    for k in range(1, 6):
        for l in range(k + 1, 6):
            parts = _su2_split(lambda i, j: curv.entry(i, j).value_at(k, l))
            for label, val in parts.items():
                out[(k, l, label)] = val
    return out


def psi_compatibility_residuals(om: FormExpr) -> dict[str, ring.CoefExpr]:
    """Direct transcription of the psi-invariance conditions for one 2-form."""
    out = {}
    trace = ring.CoefExpr()
    for k in range(1, 6):
        sk, ik = psi_image(k)
        if sk:
            trace = trace + om.value_at(k, ik) * sk
    out["trace"] = trace
    for k in range(1, 6):
        for l in range(k + 1, 6):
            sk, ik = psi_image(k)
            sl, il = psi_image(l)
            lhs = om.value_at(ik, il) * (sk * sl) if sk and sl else ring.CoefExpr()
            diff = lhs - om.value_at(k, l)
            if diff:
                out[f"inv{k}{l}"] = diff
    return out


# ---------------------------------------------------------------------------
# SU(3) (dimension 6)

@dataclass
class SU3Structure:
    coframe: CoframeSpec
    F: FormExpr
    psi_plus: FormExpr
    psi_minus: FormExpr

    def residuals(self) -> dict[str, FormExpr]:
        return su3_structure_residuals(self)


def build_su3(c: CoframeSpec) -> SU3Structure:
    if c.dim != 6:
        raise DimensionMismatch("SU(3) structure needs a 6-dim coframe")
    F = omega_bar(c, 1) + c.basis(5, 6)
    psi_p = omega_bar(c, 2).wedge(c.basis(5)) - omega_bar(c, 3).wedge(c.basis(6))
    psi_m = omega_bar(c, 2).wedge(c.basis(6)) + omega_bar(c, 3).wedge(c.basis(5))
    return SU3Structure(c, F, psi_p, psi_m)


def su3_structure_residuals(s: SU3Structure) -> dict[str, FormExpr]:
    """Algebraic compatibilities and the conformal closure of Psi+/-."""
    c = s.coframe
    two_df = df_form(c) * 2
    out = {
        "FPsiPlus": s.F.wedge(s.psi_plus),
        "FPsiMinus": s.F.wedge(s.psi_minus),
        "F3": s.F.wedge(s.F).wedge(s.F) - c.basis(1, 2, 3, 4, 5, 6) * 6,
        "dPsiPlus": exterior_derivative(s.psi_plus) - two_df.wedge(s.psi_plus),
        "dPsiMinus": exterior_derivative(s.psi_minus) - two_df.wedge(s.psi_minus),
    }
    return out


# ---------------------------------------------------------------------------
# one structure interface and the derived geometry of a coframe

def structure(c: CoframeSpec):
    """The structure a coframe carries: G2 (7 legs), SU(3) (6) or SU(2) (5)."""
    if c.dim == 7:
        return build_g2(c)
    if c.dim == 6:
        return build_su3(c)
    if c.dim == 5:
        return build_su2(c)
    raise DimensionMismatch(f"no special structure on a {c.dim}-dim coframe")


class Geometry:
    """Torsion, connections, curvatures, p1 and structure of one coframe.

    Each attribute is derived on first use and then kept, so every caller
    holding this object shares one derivation.
    """

    def __init__(self, c: CoframeSpec):
        self.coframe = c

    @cached_property
    def torsion(self) -> FormExpr:
        return direct_torsion(self.coframe)

    @cached_property
    def dT(self) -> FormExpr:
        return exterior_derivative(self.torsion)

    @cached_property
    def lc(self):
        return levi_civita(self.coframe)

    @cached_property
    def curv_lc(self):
        return curvature(self.lc)

    @cached_property
    def minus(self):
        return torsion_connection(self.lc, self.torsion, -1)

    @cached_property
    def curv_minus(self):
        return curvature(self.minus)

    @cached_property
    def curv_plus(self):
        return curvature(torsion_connection(self.lc, self.torsion, +1))

    @cached_property
    def p1_minus(self) -> FormExpr:
        return pontryagin4(self.curv_minus)

    @cached_property
    def structure(self):
        return structure(self.coframe)  # the module function: methods do not see class names


def geometry(c: CoframeSpec) -> Geometry:
    """The Geometry of c that some caller still holds, else a new one.

    The coframe keeps only a weak reference: its forms point back at it, so
    a strong one would make a cycle that only the cyclic collector frees.
    Hold the returned object for as long as its derivations should be shared.
    """
    ref = getattr(c, "_geometry", None)
    geo = ref() if ref is not None else None
    if geo is None:
        geo = Geometry(c)
        c._geometry = weakref.ref(geo)
    return geo


# ---------------------------------------------------------------------------
# scalar curvature identity probe

def torsion_norm_squared(T: FormExpr) -> ring.CoefExpr:
    """Full contraction sum_{i,j,k} T(ebar_i, ebar_j, ebar_k)^2 = 6 sum_{i<j<k}."""
    return ring.sum_exprs(coef * coef * 6 for coef in T.comps.values())


def scalar_identity_residual(c: CoframeSpec, phi_factor: Fraction) -> ring.CoefExpr:
    """s - (8 |d phi|^2 - ||T||^2 / 12 - 6 delta d phi) for phi = phi_factor * f."""
    geo = geometry(c)
    s = scalar_curvature(geo.curv_lc)
    dphi = df_form(c) * ring.rat(Fraction(phi_factor))
    norm_dphi = ring.sum_exprs(coef * coef for coef in dphi.comps.values())
    # codifferential on 1-forms: delta = -star d star
    codiff = -hodge_star(exterior_derivative(hodge_star(dphi)))
    delta_dphi = codiff.comps.get((), ring.ZERO)
    rhs = 8 * norm_dphi - ring.rat(1, 12) * torsion_norm_squared(geo.torsion) - 6 * delta_dphi
    return s - rhs
