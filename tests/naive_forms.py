"""Reference implementations the tests compare the program's kernels against.

The wedge and exterior derivative follow the per-pair algorithm: one
``CoefExpr`` product per index pair, negated when the merge sign is odd,
summed into the result with ``+``.  The merge sign is counted here from
inversions, so a sign dropped anywhere in ``nilforms.forms`` cannot cancel
out of a comparison with these.  The float evaluation, the ball's float jets
and the G2/SU(2) projections are the per-call loops the cached plans and
tables replaced, with every float operation in the same order; the exact
evaluation is the term-by-term Fraction walk the integer sums replaced.  The
interior product and the sigma_i pair forms are used by the tests alone.

The direct route derives a numeric frame's geometry and gauge p1 on that
frame itself, torsion -> Koszul -> curvature -> p1, where the program reads
them off the symbolic kA or h21 family by exact substitution: it is the
independent second derivation those specialised fields are compared with.
"""
from __future__ import annotations

import math
from fractions import Fraction

from nilforms import ring
from nilforms.connection import ConnectionForms, build_instanton_DLambda, curvature, koszul, pontryagin4, scalar_curvature
from nilforms.forms import OMEGA, SIGMA, CoframeSpec, FormExpr, df_form, exterior_derivative, hodge_star
from nilforms.gstruct import direct_torsion, structure, torsion_norm_squared


def interior(a, k: int):
    """Contraction with the frame vector ebar_k."""
    out = {}
    for idx, g in a.comps.items():
        if k in idx:
            t = idx.index(k)
            out[idx[:t] + idx[t + 1:]] = g if t % 2 == 0 else -g
    return a.coframe.form(a.degree - 1, out)


def sigma_bar(c, i: int):
    """The anti-self-dual pair form sigma_i of SIGMA."""
    return c.form(2, SIGMA[i])


def naive_wedge(a, b):
    out = {}
    for i1, c1 in a.comps.items():
        for i2, c2 in b.comps.items():
            if set(i1) & set(i2):
                continue
            inversions = sum(1 for x in i1 for y in i2 if x > y)
            term = c1 * c2 if inversions % 2 == 0 else -(c1 * c2)
            key = tuple(sorted(i1 + i2))
            out[key] = out.get(key, ring.ZERO) + term
    return a.coframe.form(a.degree + b.degree, out)


def naive_d(a):
    """d(g ebar^I) = dg ^ ebar^I + g sum_t (-1)^t ebar^{I<t} ^ d ebar^{I_t} ^ ebar^{I>t}."""
    c = a.coframe
    out = c.zero(a.degree + 1)
    for idx, g in a.comps.items():
        for i in range(1, min(4, c.dim) + 1):
            dg = ring.expf(-c.weights[i - 1]) * g.partial(i)
            out = out + naive_wedge(c.form(1, {(i,): dg}), c.form(len(idx), {idx: 1}))
        for t, leg in enumerate(idx):
            left = c.form(t, {idx[:t]: 1})
            right = c.form(len(idx) - t - 1, {idx[t + 1:]: 1})
            piece = naive_wedge(naive_wedge(left, c.dbar(leg)), right) * g
            out = out + (-piece if t % 2 else piece)
    return out


def naive_curvature(conn) -> dict:
    """Omega^i_j = d omega^i_j + sum_k omega^i_k ^ omega^k_j for i < j."""
    dim = conn.coframe.dim
    out = {}
    for (i, j) in conn.pairs():
        om = naive_d(conn.entry(i, j))
        for k in range(1, dim + 1):
            if k != i and k != j:
                om = om + naive_wedge(conn.entry(i, k), conn.entry(k, j))
        out[(i, j)] = om
    return out


def naive_pontryagin4(curv):
    """sum_{i<j} Omega^i_j ^ Omega^i_j."""
    out = curv.coframe.zero(4)
    for (i, j) in curv.pairs():
        om = curv.entry(i, j)
        out = out + naive_wedge(om, om)
    return out


# ---------------------------------------------------------------------------
# the connection layer read entry by entry, through FormExpr.value_at

def naive_levi_civita(c) -> dict:
    """Koszul: omega^i_j(ebar_k) = (d ebar^i(j, k) - d ebar^k(i, j) + d ebar^j(k, i)) / 2, i < j."""
    d = c.dim
    dbar = {k: c.dbar(k) for k in range(1, d + 1)}
    half = ring.rat(1, 2)
    out = {}
    for i in range(1, d + 1):
        for j in range(i + 1, d + 1):
            comps = {}
            for k in range(1, d + 1):
                g = (dbar[i].value_at(j, k) - dbar[k].value_at(i, j) + dbar[j].value_at(k, i)) * half
                if g:
                    comps[(k,)] = g
            out[(i, j)] = c.form(1, comps)
    return out


def torsion_slice(T) -> dict:
    """1-form matrix slice^i_j = sum_k T(ebar_i, ebar_j, ebar_k) ebar^k, i < j."""
    c = T.coframe
    out = {}
    for i in range(1, c.dim + 1):
        for j in range(i + 1, c.dim + 1):
            comps = {(k,): T.value_at(i, j, k) for k in range(1, c.dim + 1)}
            out[(i, j)] = c.form(1, comps)
    return out


def naive_torsion_connection(T, s) -> dict:
    """nabla^{(s)} = omega^LC - (s/2) torsion_slice(T), entry by entry with FormExpr arithmetic."""
    lc = naive_levi_civita(T.coframe)
    slc = torsion_slice(T)
    return {pair: lc[pair] - slc[pair] * ring.rat(s, 2) for pair in lc}


def riemann(curv, i, j, k, l):
    """R(ebar_i, ebar_j, ebar_k, ebar_l) = Omega^l_k(ebar_i, ebar_j)."""
    return curv.entry(l, k).value_at(i, j)


def first_structure_residual(conn) -> dict:
    """d ebar^i + omega^i_j ^ ebar^j for every leg (zero iff torsion-free)."""
    c = conn.coframe
    out = {}
    for i in range(1, c.dim + 1):
        res = c.dbar(i)
        for j in range(1, c.dim + 1):
            if j != i:
                res = res + naive_wedge(conn.entry(i, j), c.basis(j))
        out[i] = res
    return out


# ---------------------------------------------------------------------------
# float evaluation, ball jets and structure projections, one call at a time

def evaluate_reference(e, table) -> float:
    """CoefExpr.evaluate term by term: sorted, decoded and converted on every call."""
    terms = e.terms
    total = 0.0
    for key in sorted(terms, key=ring._decode):
        k, syms, _ = ring._decode(key)
        val = float(terms[key])
        try:
            if k:
                val *= math.exp(k * table[ring.jet_sym()])
            for sym, power in syms:
                val *= table[sym] ** power
        except KeyError as exc:
            raise ring.UnboundSymbol(f"symbol {exc.args[0]} not bound") from None
        total += val
    return total


def evaluate_exact_reference(e, table, e2f) -> Fraction:
    """ring.evaluate_exact term by term in Fractions, in the order of e.terms."""
    total = Fraction(0)
    for key, coef in e.terms.items():
        k, syms, _ = ring._decode(key)
        if k % 2:
            raise ring.UnboundSymbol("odd e^{kf} power has no exact rational value")
        val = coef * e2f ** (k // 2)
        try:
            for sym, power in syms:
                val *= table[sym] ** power
        except KeyError as exc:
            raise ring.UnboundSymbol(f"symbol {exc.args[0]} not bound") from None
        total += val
    return total


def ball_jets_reference(absA2, x) -> dict:
    """The ball's float jets of f with |A|^2 kept as given, so a Fraction meets each float as it comes."""
    absA2 = Fraction(absA2) if not isinstance(absA2, float) else absA2
    r2 = sum(c * c for c in x)
    g = (absA2 * (1 - r2)) / 4
    gi = {i: -(absA2 * x[i - 1]) / 2 for i in ring.COORDS}

    def gij(i, j):
        return -(absA2) / 2 if i == j else 0 * g

    out = {ring.jet_sym(): 0.5 * math.log(1) + 0.5 * 1 * math.log(g)}
    g2 = g * g
    g3 = g2 * g
    for i in ring.COORDS:
        out[ring.jet_sym(i)] = float(gi[i] / (2 * g))
        for j in ring.COORDS[i - 1:]:
            out[ring.jet_sym(i, j)] = float(gij(i, j) / (2 * g) - gi[i] * gi[j] / (2 * g2))
            for k in ring.COORDS[j - 1:]:
                s = gij(i, j) * gi[k] + gij(i, k) * gi[j] + gij(j, k) * gi[i]
                out[ring.jet_sym(i, j, k)] = float((0 * g) / (2 * g) - s / (2 * g2) + gi[i] * gi[j] * gi[k] / g3)
    return out


def g2_project_reference(theta, M) -> dict:
    """G2Structure.project through Theta.value_at for every pair and every m."""
    out = {}
    for m in range(1, 8):
        total = ring.sum_exprs(coef * tc * 2 for (a, b), coef in M.items() if (tc := theta.value_at(a, b, m)))
        if total:
            out[m] = total
    return out


def su2_project_reference(M) -> dict:
    """SU2Structure.project: each self-dual part summed with ring products, then halved."""
    half = ring.rat(1, 2)
    parts = {
        f"w{r}": ring.sum_exprs(M[p] * sign for p, sign in pattern.items() if p in M) * half
        for r, pattern in OMEGA.items()
    }
    for k in range(1, 5):
        parts[f"m{k}"] = M.get((k, 5), ring.ZERO)
    return {label: val for label, val in parts.items() if val}


# ---------------------------------------------------------------------------
# the direct route on a numeric frame

def direct_scalar_identity(c, phi_factor, curv_lc, T):
    """s - (8 |d phi|^2 - ||T||^2 / 12 - 6 delta d phi) for phi = phi_factor * f, from the given curvature and torsion."""
    dphi = df_form(c) * ring.rat(phi_factor)
    norm_dphi = ring.sum_exprs(coef * coef for coef in dphi.comps.values())
    delta_dphi = (-hodge_star(exterior_derivative(hodge_star(dphi)))).comps.get((), ring.ZERO)
    rhs = 8 * norm_dphi - ring.rat(1, 12) * torsion_norm_squared(T) - 6 * delta_dphi
    return scalar_curvature(curv_lc) - rhs


def direct_fields(c) -> dict:
    """Each field of gstruct.Geometry but the structure, derived on c itself."""
    T = direct_torsion(c)
    lc, minus = koszul(c), koszul(c, T, -1)
    curv_lc, curv_minus, curv_plus = curvature(lc), curvature(minus), curvature(koszul(c, T, +1))
    s = structure(c)
    return {
        "torsion": T,
        "dT": exterior_derivative(T),
        "lc": lc,
        "curv_lc": curv_lc,
        "minus": minus,
        "curv_minus": curv_minus,
        "curv_plus": curv_plus,
        "p1_minus": pontryagin4(curv_minus),
        "integrability_residuals": c.integrability_residuals(),
        "structure_residuals": s.residuals(),
        "structure_torsion": s.torsion(),
        "instanton_minus": s.instanton_residual(curv_minus),
        "holonomy_plus": s.holonomy_residual(curv_plus),
        "scalar_identity": {phi: direct_scalar_identity(c, phi, curv_lc, T) for phi in (-1, -2)},
    }


def direct_DB(B, c) -> ConnectionForms:
    """D_B: nabla^- of the frame of fiber matrix B, derived there by Koszul and moved to c."""
    cb = CoframeSpec(B if isinstance(B[0], (list, tuple)) else [B])
    wm = koszul(cb, direct_torsion(cb), -1)
    return ConnectionForms(c, {pair: FormExpr(c, 1, form.comps) for pair, form in wm.entries.items()})


def direct_gauge_p1(c, kind, rows):
    """p1 of D_Lambda or D_B on c, from its connection's curvature."""
    conn = build_instanton_DLambda(rows, c) if kind == "DLambda" else direct_DB(rows, c)
    return pontryagin4(curvature(conn))
