"""Special structures carried by the rescaled coframes and their torsion.

The 7-dim coframes carry a G2 form, the 5-dim ones an almost-contact
SU(2) quadruple, the 6-dim contractions an SU(3) triple.  All three share
one totally skew torsion 3-form, computed uniformly by the block formula

    T = 2 d^psi f wedge omegabar_1 + sum_r d ebar^{4+r} wedge ebar^{4+r},

which in dimension 7 coincides with the Hodge expression
``star(2 df wedge Theta - d Theta)`` and in dimension 5 with
``eta wedge d eta + 2 d^psi f wedge F``; the G2 and SU(2) structures'
``torsion()`` is that second route.

The G2 and SU(2) ``project`` contract a skew matrix without reading a
form component per pair: G2 through a table of Theta's components built
once per structure, SU(2) through the fixed self-dual patterns, each into
raw accumulators that are canonicalised once.

``G2Structure(c)``, ``SU3Structure(c)`` and ``SU2Structure(c)`` each check
the coframe's dimension and build their forms; ``structure(c)`` looks the
class up by that dimension.  A ``Geometry`` derives the torsion ->
nabla^{+/-} -> curvature -> p1 chain of one coframe and the structure's
residuals on it, each piece once.

Derived once per family, then substituted: every form of that chain is a
polynomial in the fiber matrix (the Koszul 1/2 is its only division), so
putting numbers in commutes with the derivation.  The Geometry of a
numeric frame of dimension 7 or 5 derives nothing: each field is the held
symbolic kA's or h21's, specialised to the frame's entries by
``CoefExpr.substitute`` (``_field``).  A gauge on such a frame meets the
family in one place, ``anomaly.anomaly_residual``, which reads its residual
off the family's held one (``anomaly.family_residual``).  Frames with a
symbol in their fiber matrix, and the 6-leg ones, derive directly.
``build_DB`` reads its gauge connection from the held nabla^- of kA or h21
the same way.

The hold rule, by value: a frame or gauge whose matrix equals one of the
program's table matrices lives for the process, and any other lives with
its report, since a report may bring any matrix and holding it would grow
the held set with every report.  ``catalogue_geometry`` holds the Geometry
of each frame of the first kind, the kA and h21 families among them.  All
that is held for one frame lives in its Geometry's ``held`` dict, so it
lives exactly as long as that frame: for the process on a catalogue frame,
for the report on a config frame.  That is the gauges of table matrices
(``anomaly.held_gauge``), the outcomes of the checks that read the frame
alone, or it and one more held thing named in their key (a contraction's
direct frame, a table gauge's rows), the seed-free values a report reads
off it (|A|^2), the float
sweeps of its elements and, on a family frame, the family's residual per
gauge kind.  A Gauge keeps the outcomes of the checks and the values (the
rank or lambda^2 of its matrix) that read it alone in its own ``held``.
Every such value is kept one way,
through ``held_in``.  A config frame's Geometry refers to its family, never
the other way, so it is still freed with its report.
``catalogue_geometry.cache_clear()`` drops the held frames and everything
they hold.

The module functions ``g2_/su2_instanton_residual``, ``g2_/su2_holonomy_residual``,
``su2_/su3_structure_residuals``, ``psi_compatibility_residuals`` and ``scalar_identity_residual``
stay because perfbench/tracing.py counts their calls by name; the methods delegate to them.
"""

from __future__ import annotations

import weakref
from fractions import Fraction
from functools import cache, cached_property

from . import ring
from .connection import ConnectionForms, curvature, gauge_rows, koszul, levi_civita, pontryagin4, scalar_curvature
from .forms import (
    OMEGA,
    PSI,
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
from .frames import FREE_FRAME, build_coframe


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

class G2Structure:
    """The G2 form Theta of a 7-leg coframe and its Hodge dual."""

    def __init__(self, c: CoframeSpec):
        if c.dim != 7:
            raise DimensionMismatch("G2 structure needs a 7-dim coframe")
        self.coframe = c
        self.theta = (
            omega_bar(c, 1).wedge(c.basis(7))
            + omega_bar(c, 2).wedge(c.basis(5))
            - omega_bar(c, 3).wedge(c.basis(6))
            + c.basis(5, 6, 7)
        )
        self.star_theta = hodge_star(self.theta)

    def residuals(self) -> dict[str, FormExpr]:
        """d star Theta - 2 df wedge star Theta and d Theta wedge Theta."""
        two_df = df_form(self.coframe) * 2
        return {"coclosed": exterior_derivative(self.star_theta) - two_df.wedge(self.star_theta),
                "pure_type": exterior_derivative(self.theta).wedge(self.theta)}

    def torsion(self) -> FormExpr:
        """T = star(2 df wedge Theta - d Theta)."""
        two_df = df_form(self.coframe) * 2
        return hodge_star(two_df.wedge(self.theta) - exterior_derivative(self.theta))

    @cached_property
    def contractions(self) -> dict[tuple, tuple]:
        """(a, b) -> ((m, t, sign), ...): 2 Theta(ebar_a, ebar_b, ebar_m) = sign * t for a < b.

        Each component t ebar^{ijk} (i < j < k) of Theta gives its three pairs,
        with the sign of the permutation that sorts (a, b, m) times 2.
        """
        table: dict = {}
        for (i, j, k), t in self.theta.comps.items():
            for ab, m, sign in (((i, j), k, 2), ((i, k), j, -2), ((j, k), i, 2)):
                table.setdefault(ab, []).append((m, t, sign))
        return {ab: tuple(entries) for ab, entries in table.items()}

    def project(self, M: dict) -> dict[int, ring.CoefExpr]:
        """m -> sum_{a<b} 2 M_ab Theta(ebar_a, ebar_b, ebar_m) for a skew {(a, b): coef}, nonzero ones."""
        table = self.contractions
        accs: dict = {m: {} for m in range(1, 8)}
        for ab, coef in M.items():
            for m, t, sign in table.get(ab, ()):
                ring._mul_into(accs[m], coef, t, sign)
        out = {}
        for m, acc in accs.items():
            total = ring._canonical(acc)
            if total:
                out[m] = total
        return out

    def instanton_residual(self, curv) -> dict[tuple, ring.CoefExpr]:
        return g2_instanton_residual(curv, self)

    def holonomy_residual(self, curv) -> dict[tuple, ring.CoefExpr]:
        return g2_holonomy_residual(curv, self)


def _contract(curv, project, endomorphism: bool) -> dict[tuple, ring.CoefExpr]:
    """{(a, b, label): value} over project(M) for each skew {(a, b): coef} the curvature holds.

    The form slots give M = Omega^i_j for each pair (i, j) of curv.pairs();
    the endomorphism slots give, transposed, M_ij = Omega^i_j(ebar_k, ebar_l)
    for each vector pair (k, l).
    """
    slots: dict = {}
    for (i, j) in curv.pairs():
        comps = curv.entry(i, j).comps
        if not endomorphism:
            slots[(i, j)] = comps
            continue
        for kl, coef in comps.items():
            slots.setdefault(kl, {})[(i, j)] = coef
    return {(*ab, label): val for ab, M in slots.items() for label, val in project(M).items()}


def g2_instanton_residual(curv, g: G2Structure) -> dict[tuple, ring.CoefExpr]:
    """residual(i, j, m) = sum_{k,l} Omega^i_j(ebar_k, ebar_l) Theta(ebar_k, ebar_l, ebar_m)."""
    return _contract(curv, g.project, endomorphism=False)


def g2_holonomy_residual(curv, g: G2Structure) -> dict[tuple, ring.CoefExpr]:
    """residual(k, l, m) = sum_{i,j} Omega^i_j(ebar_k, ebar_l) Theta(ebar_i, ebar_j, ebar_m).

    Contracts the endomorphism slots against Theta: vanishing for every
    (k, l, m) says each curvature matrix lies in the g2 subalgebra, i.e.
    the connection's holonomy preserves the structure.  This is the
    contraction that vanishes identically for the (+)-torsion connection;
    g2_instanton_residual contracts the form slots instead.
    """
    return _contract(curv, g.project, endomorphism=True)


# ---------------------------------------------------------------------------
# SU(2) (dimension 5)

class SU2Structure:
    """The almost-contact quadruple (eta, F = omegabar_1, omegabar_2, omegabar_3) of a 5-leg coframe."""

    def __init__(self, c: CoframeSpec):
        if c.dim != 5:
            raise DimensionMismatch("SU(2) structure needs a 5-dim coframe")
        self.coframe = c
        self.eta, self.F, self.omega2, self.omega3 = c.basis(5), omega_bar(c, 1), omega_bar(c, 2), omega_bar(c, 3)

    def residuals(self) -> dict[str, FormExpr]:
        return su2_structure_residuals(self)

    def torsion(self) -> FormExpr:
        """T = eta wedge d eta + 2 d^psi f wedge F."""
        deta = exterior_derivative(self.eta)
        return self.eta.wedge(deta) + dpsi_f_form(self.coframe).wedge(self.F) * 2

    def project(self, M: dict) -> dict[str, ring.CoefExpr]:
        """Nonzero self-dual (w1..w3) and mixed (m1..m4) parts of a skew {(a, b): coef}.

        M lies in su(2) exactly when both vanish: it is then a combination of
        the anti-self-dual horizontal 2-forms.
        """
        parts = {}
        for r, pattern in OMEGA.items():
            acc: dict = {}
            for p, sign in pattern.items():
                if p in M:
                    ring._add_into(acc, M[p], sign)
            parts[f"w{r}"] = ring._canonical(acc, 2)
        for k in range(1, 5):
            parts[f"m{k}"] = M.get((k, 5), ring.ZERO)
        return {label: val for label, val in parts.items() if val}

    def instanton_residual(self, curv) -> dict[tuple, ring.CoefExpr]:
        return su2_instanton_residual(curv, self)

    def holonomy_residual(self, curv) -> dict[tuple, ring.CoefExpr]:
        return su2_holonomy_residual(curv, self)


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


def su2_instanton_residual(curv, s: SU2Structure) -> dict[tuple, ring.CoefExpr]:
    """Self-dual and mixed components of each curvature entry.

    Vanishing of all entries is equivalent to the psi-compatibility pair
    Omega(psi X, psi Y) = Omega(X, Y), sum_k Omega(ebar_k, psi ebar_k) = 0.
    """
    return _contract(curv, s.project, endomorphism=False)


def su2_holonomy_residual(curv, s: SU2Structure) -> dict[tuple, ring.CoefExpr]:
    """Endomorphism-side analogue of su2_instanton_residual.

    For each fixed vector pair (k, l) the skew matrix
    M_{ij} = Omega^i_j(ebar_k, ebar_l) is tested for membership in the
    su(2) span of the anti-self-dual horizontal 2-forms; identically zero
    for the (+)-torsion connection.
    """
    return _contract(curv, s.project, endomorphism=True)


def psi_compatibility_residuals(om: FormExpr) -> dict[str, ring.CoefExpr]:
    """Direct transcription of the psi-invariance conditions for one 2-form."""
    out = {"trace": ring.sum_exprs(om.value_at(k, i) * s for k, (s, i) in PSI.items())}
    for k in range(1, 6):
        for l in range(k + 1, 6):
            sk, ik = PSI.get(k, (0, 0))
            sl, il = PSI.get(l, (0, 0))
            lhs = om.value_at(ik, il) * (sk * sl) if sk and sl else ring.CoefExpr()
            diff = lhs - om.value_at(k, l)
            if diff:
                out[f"inv{k}{l}"] = diff
    return out


# ---------------------------------------------------------------------------
# SU(3) (dimension 6)

class SU3Structure:
    """The SU(3) triple (F, Psi+, Psi-) of a 6-leg coframe."""

    def __init__(self, c: CoframeSpec):
        if c.dim != 6:
            raise DimensionMismatch("SU(3) structure needs a 6-dim coframe")
        self.coframe = c
        self.F = omega_bar(c, 1) + c.basis(5, 6)
        self.psi_plus = omega_bar(c, 2).wedge(c.basis(5)) - omega_bar(c, 3).wedge(c.basis(6))
        self.psi_minus = omega_bar(c, 2).wedge(c.basis(6)) + omega_bar(c, 3).wedge(c.basis(5))

    def residuals(self) -> dict[str, FormExpr]:
        return su3_structure_residuals(self)


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

_STRUCTURES = {7: G2Structure, 6: SU3Structure, 5: SU2Structure}


def structure(c: CoframeSpec):
    """The structure a coframe carries: G2 (7 legs), SU(3) (6) or SU(2) (5)."""
    if c.dim not in _STRUCTURES:
        raise DimensionMismatch(f"no special structure on a {c.dim}-dim coframe")
    return _STRUCTURES[c.dim](c)


def specialised(value, c: CoframeSpec, values: dict):
    """value, read on a family frame, on the coframe c with each symbol of values put to its value.

    value is a form, a connection or curvature matrix, a ring element or a
    dict of these; a form or matrix drops the entries that become zero, a
    dict keeps every key.
    """
    if isinstance(value, FormExpr):
        return FormExpr(c, value.degree, {idx: g.substitute(values) for idx, g in value.comps.items()})
    if isinstance(value, ring.CoefExpr):
        return value.substitute(values)
    if isinstance(value, dict):
        return {key: specialised(v, c, values) for key, v in value.items()}
    return type(value)(c, {pair: specialised(form, c, values) for pair, form in value.entries.items()})


def _family(c: CoframeSpec) -> tuple:
    """(the Geometry of c's free family, {its symbol: c's number}) when every entry of c is a number
    and c.dim names a family in FREE_FRAME, else (None, None)."""
    nums = [x.as_number() for row in c.A for x in row]
    if c.dim not in FREE_FRAME or None in nums:
        return None, None
    family = catalogue_geometry(FREE_FRAME[c.dim])
    return family, dict(zip((sym for row in _family_symbols(family) for sym in row), nums))


def _family_symbols(family: Geometry) -> tuple:
    """The one symbol of each entry of a free family's fiber matrix, in the rows of its A, held on the family."""
    return held_in(family, "entry-symbols", lambda: tuple(
        tuple(sym for x in row for sym in x.symbols()) for row in family.coframe.A))


def _field(derive):
    """A Geometry field, derived on first use and then kept.

    The one place the route is chosen: on a frame with a family, the field
    is the family's, specialised to the frame's numbers; on any other frame
    derive computes it.
    """
    name = derive.__name__

    def field(self):
        if self.family is None:
            return derive(self)
        return specialised(getattr(self.family, name), self.coframe, self.values)

    field.__doc__ = derive.__doc__
    return cached_property(field)


def held_in(holder, key, build):
    """holder.held[key], built by build() on first use: it lives as long as holder, a Geometry or Gauge.

    A build() that raises keeps nothing.
    """
    if key not in holder.held:
        holder.held[key] = build()
    return holder.held[key]


class Geometry:
    """Torsion, connections, curvatures, p1, structure and structure residuals of one coframe.

    Each attribute is derived on first use and then kept, so every caller
    holding this object shares one derivation.  On a numeric frame of
    dimension 7 or 5, ``family`` is the held Geometry of the symbolic kA or
    h21 and ``values`` puts the frame's numbers in for the family's symbols;
    every field but the structure is then read off the family's (``_field``).
    Elsewhere ``family`` and ``values`` are None.  ``held`` is the one store
    of what is kept with this coframe (see the hold rule above).
    """

    def __init__(self, c: CoframeSpec):
        self.coframe = c
        self.held: dict = {}
        self.family, self.values = _family(c)

    @_field
    def torsion(self) -> FormExpr:
        return direct_torsion(self.coframe)

    @_field
    def dT(self) -> FormExpr:
        return exterior_derivative(self.torsion)

    @_field
    def lc(self):
        return levi_civita(self.coframe)

    @_field
    def curv_lc(self):
        return curvature(self.lc)

    @_field
    def minus(self):
        return koszul(self.coframe, self.torsion, -1)

    @_field
    def curv_minus(self):
        return curvature(self.minus)

    @_field
    def curv_plus(self):
        return curvature(koszul(self.coframe, self.torsion, +1))

    @_field
    def p1_minus(self) -> FormExpr:
        return pontryagin4(self.curv_minus)

    @cached_property
    def structure(self):
        return structure(self.coframe)  # the module function: methods do not see class names

    @_field
    def integrability_residuals(self) -> dict[int, FormExpr]:
        return self.coframe.integrability_residuals()

    @_field
    def structure_residuals(self) -> dict[str, FormExpr]:
        return self.structure.residuals()

    @_field
    def structure_torsion(self) -> FormExpr:
        """The structure's own route to the torsion 3-form."""
        return self.structure.torsion()

    @_field
    def instanton_minus(self) -> dict[tuple, ring.CoefExpr]:
        """The structure's instanton residual of nabla^-, its nonzero entries.

        Each entry of the kA or h21 family's has a jet term free of the fiber
        matrix, so no entry vanishes when the family's is specialised.
        """
        return self.structure.instanton_residual(self.curv_minus)

    @_field
    def holonomy_plus(self) -> dict[tuple, ring.CoefExpr]:
        """The structure's holonomy residual of nabla^+, its nonzero entries (none on kA or h21)."""
        return self.structure.holonomy_residual(self.curv_plus)

    @_field
    def scalar_identity(self) -> dict[int, ring.CoefExpr]:
        """phi_factor -> scalar_identity_residual for phi = -f and phi = -2f."""
        return {phi: scalar_identity_residual(self.coframe, phi) for phi in (-1, -2)}


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


@cache
def catalogue_geometry(catalog_id: str, **params) -> Geometry:
    """The Geometry of build_coframe(catalog_id, **params), held for the process.

    Only for frames whose parameters come from the program's own tables
    (symbolic entries passed as None, which the builders turn into
    constants), so the held set is bounded by the catalogue.
    """
    return geometry(build_coframe(catalog_id, **params))


def build_DB(B, c: CoframeSpec) -> ConnectionForms:
    """The nabla^- coefficient formulas with the fiber matrix replaced by B.

    Read from nabla^- of the symbolic member of the same family,
    frames.FREE_FRAME[c.dim], whose geometry the process holds, by
    substituting B's entries for its symbols, so no connection table is
    hard-coded.  B may hold symbols, as the family's own D_B rows do
    (anomaly.family_residual).  The held forms are never mutated:
    substitute makes copies.
    """
    if c.dim not in FREE_FRAME:
        raise DimensionMismatch("build_DB supports dims 7 and 5")
    family = catalogue_geometry(FREE_FRAME[c.dim])
    rows = zip(_family_symbols(family), gauge_rows("DB", B, c))
    # B's entry takes the place of the twin's symbol; the twin's forms carried over to c, which has its dimension
    return specialised(family.minus, c, {sym: b for syms, brow in rows for sym, b in zip(syms, brow)})


# ---------------------------------------------------------------------------
# scalar curvature identity probe

def torsion_norm_squared(T: FormExpr) -> ring.CoefExpr:
    """Full contraction sum_{i,j,k} T(ebar_i, ebar_j, ebar_k)^2 = 6 sum_{i<j<k}."""
    cs = list(T.comps.values())
    return ring.dot(cs, cs) * 6


def scalar_identity_residual(c: CoframeSpec, phi_factor: Fraction) -> ring.CoefExpr:
    """s - (8 |d phi|^2 - ||T||^2 / 12 - 6 delta d phi) for phi = phi_factor * f."""
    geo = geometry(c)
    s = scalar_curvature(geo.curv_lc)
    dphi = df_form(c) * ring.rat(Fraction(phi_factor))
    cs = list(dphi.comps.values())
    norm_dphi = ring.dot(cs, cs)
    # codifferential on 1-forms: delta = -star d star
    codiff = -hodge_star(exterior_derivative(hodge_star(dphi)))
    delta_dphi = codiff.comps.get((), ring.ZERO)
    rhs = 8 * norm_dphi - ring.rat(1, 12) * torsion_norm_squared(geo.torsion) - 6 * delta_dphi
    return s - rhs
