"""Reference implementations the tests compare the program's kernels against.

The wedge and exterior derivative follow the per-pair algorithm: one
``CoefExpr`` product per index pair, negated when the merge sign is odd,
summed into the result with ``+``.  The merge sign is counted here from
inversions, so a sign dropped anywhere in ``nilforms.forms`` cannot cancel
out of a comparison with these.  The float evaluation, the ball's float jets,
the chain rule of a profile's jets and the G2/SU(2) projections are the
per-call, one-point loops the cached plans and column tables replaced, with
every float operation in the same order; the Halton radical inverse is the
digit-by-digit loop its integer recurrence replaced; the error fold is
the one-call-per-value reduce max_error replaced; Lambda's rank is the
Fraction elimination its minors replaced; the exact
evaluation is the term-by-term Fraction walk the integer sums replaced, and
the ring products, sums and substitutions are the Fraction-per-term walks
the integer-numerator kernels replaced.  Strict JSON is the copy-then-dump
the one-walk writer replaced.  The interior product and the sigma_i pair
forms are used by the tests alone.

The direct route derives a numeric frame's geometry, gauge p1 and anomaly
residual on that frame itself, torsion -> Koszul -> curvature -> p1, where
the program reads them off the symbolic kA or h21 family by exact
substitution: it is the independent second derivation those specialised
values are compared with.
"""
from __future__ import annotations

import json
import math
from fractions import Fraction

from nilforms import ring
from nilforms.elliptic import weierstrass_p
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
# the ring kernels, one Fraction per term

def mul_reference(a, b):
    """a * b from the decoded terms: one Fraction product per pair of terms."""
    return ring.from_monomials(
        (Fraction(c1) * Fraction(c2), k1 + k2, p1 + p2)
        for c1, k1, p1 in a.monomials() for c2, k2, p2 in b.monomials()
    )


def sum_reference(*exprs):
    """The sum of exprs from their decoded terms, in Fractions."""
    return ring.from_monomials((Fraction(c), k, p) for e in exprs for c, k, p in e.monomials())


def difference_reference(a, b):
    """a - b from their decoded terms, in Fractions."""
    return ring.from_monomials([(Fraction(c), k, p) for c, k, p in a.monomials()]
                               + [(-Fraction(c), k, p) for c, k, p in b.monomials()])


def substitute_reference(e, mapping: dict):
    """e.substitute(mapping), mapping constant names to numbers or ring elements, term by term.

    A number (or constant element) multiplies the term's Fraction
    coefficient once per power; a non-constant element is multiplied in
    with mul_reference.
    """
    pieces = []
    for coef, k, powers in e.monomials():
        coef, rest, elements = Fraction(coef), [], []
        for sym, p in powers:
            val = mapping.get(sym[1]) if not ring.is_jet(sym) else None
            if val is None:
                rest.append((sym, p))
                continue
            q = ring.coerce(val).as_fraction()
            if q is None:
                elements += [val] * p
            else:
                for _ in range(p):
                    coef *= q
        piece = ring.from_monomials([(coef, k, rest)])
        for val in elements:
            piece = mul_reference(piece, val)
        pieces.append(piece)
    return sum_reference(*pieces)


# ---------------------------------------------------------------------------
# float evaluation, ball jets and structure projections, one call at a time

def worst_of(worst: float, err: float) -> float:
    """max(worst, err), except that a nan wins: max(0.0, nan) is 0.0, which passes any tolerance.

    functools.reduce(worst_of, errors, 0.0) is the one-call-per-value fold numeric.max_error replaced.
    """
    return err if err > worst or err != err else worst


def column_table(tables) -> dict:
    """One float table of columns from one-point tables with the same symbols: {symbol: [value per table]}."""
    return {sym: [t[sym] for t in tables] for sym in tables[0]} if tables else {}


def radical_inverse(k: int, base: int, perm) -> float:
    """The base-b digits of k, each mapped through perm, mirrored about the point."""
    num, den = 0, 1
    while k:
        k, digit = divmod(k, base)
        num = num * base + perm[digit]
        den *= base
    return num / den


def half_log_jets(g, gi, gij, gijk) -> dict:
    """{jet symbol: value} of (1/2) log g at one point from the jets of g there (keys: index tuples)."""
    jets = {}
    g2 = g * g
    g3 = g2 * g
    for idx in [(i,) for i in ring.COORDS] + list(gij) + list(gijk):
        if len(idx) == 1:
            jets[ring.jet_sym(*idx)] = gi[idx[0]] / (2 * g)
        elif len(idx) == 2:
            i, j = idx
            jets[ring.jet_sym(*idx)] = gij[idx] / (2 * g) - gi[i] * gi[j] / (2 * g2)
        else:
            i, j, k = idx
            s = gij[(i, j)] * gi[k] + gij[(i, k)] * gi[j] + gij[(j, k)] * gi[i]
            jets[ring.jet_sym(*idx)] = gijk[idx] / (2 * g) - s / (2 * g2) + gi[i] * gi[j] * gi[k] / g3
    return jets


def evaluate_reference(e, table) -> float:
    """CoefExpr.evaluate term by term: sorted, decoded and converted on every call."""
    total = 0.0
    for coef, k, syms in sorted(e.monomials(), key=lambda t: t[1:]):
        val = float(coef)
        try:
            if k:
                val *= math.exp(k * table[ring.jet_sym()])
            for sym, power in syms:
                val *= table[sym] ** power
        except KeyError as exc:
            raise ring.UnboundSymbol(f"symbol {exc.args[0]} not bound") from None
        total += val
    return total


def evaluate_exact_reference(e, nums, N, e2f) -> Fraction:
    """ring.evaluate_exact term by term in Fractions, in the order of e.terms: a jet of order m is
    nums[sym] / N^m, a constant nums[sym], and e^{2f} is a / b for e2f = (a, b)."""
    total = Fraction(0)
    for coef, k, syms in e.monomials():
        if k % 2:
            raise ring.UnboundSymbol("odd e^{kf} power has no exact rational value")
        val = coef * Fraction(*e2f) ** (k // 2)
        try:
            for sym, power in syms:
                val *= Fraction(nums[sym], N ** len(sym[1]) if ring.is_jet(sym) else 1) ** power
        except KeyError as exc:
            raise ring.UnboundSymbol(f"symbol {exc.args[0]} not bound") from None
        total += val
    return total


def evaluate_exact_denominator(e, N, e2f) -> int:
    """e.den * N^wmax * a^A * b^B: what ring.evaluate_exact's numerator on a table of elements is over,
    with wmax the highest sum of order times power over a term's jets and h = k/2 running from -A to B."""
    hw = [(k // 2, sum(len(sym[1]) * p for sym, p in syms if ring.is_jet(sym))) for _, k, syms in e.monomials()]
    a, b = e2f
    A, B = max(0, -min(h for h, _ in hw)), max(0, max(h for h, _ in hw))
    return e.den * N ** max(w for _, w in hw) * a ** A * b ** B


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


def profile_jets_reference(prof, x) -> dict:
    """prof's float table at the one point x: f and every jet, by the one-point
    jets of P and the chain rule half_log_jets, as each profile computed them."""
    I2 = [(i, j) for i in ring.COORDS for j in ring.COORDS if i <= j]
    I3 = [(i, j, k) for (i, j) in I2 for k in ring.COORDS if j <= k]
    scale, s = 1, 1
    if prof.name == "ball":
        return ball_jets_reference(prof.params["absA2"], x)
    if prof.name == "fundamental":
        cent = prof.params["center"]
        y = [x[i] - cent[i] for i in range(4)]
        g, gi = sum(v * v for v in y), {i: 2 * y[i - 1] for i in ring.COORDS}
        gij, gijk = {idx: 2 * (idx[0] == idx[1]) for idx in I2}, dict.fromkeys(I3, 0)
        scale, s = prof.params["c"], -1
    elif prof.name == "weierstrass":
        d, a2 = prof.params["d"], prof.params["alpha"] * prof.params["alpha"]
        u, up = weierstrass_p(float(x[0]), d)
        g = a2 * u
        gi, gij, gijk = dict.fromkeys(ring.COORDS, 0.0), dict.fromkeys(I2, 0.0), dict.fromkeys(I3, 0.0)
        gi[1] = a2 * up
        gij[(1, 1)] = a2 * (6.0 * u * u - 2.0 * d * d)
        gijk[(1, 1, 1)] = a2 * 12.0 * u * up
    else:
        g, gi, gij, gijk = 1.0, dict.fromkeys(ring.COORDS, 0.0), dict.fromkeys(I2, 0.0), dict.fromkeys(I3, 0.0)
        scale = math.exp(2.0 * prof.params["f0"])
    out = {ring.jet_sym(): 0.5 * math.log(scale) + 0.5 * s * math.log(g)}
    for sym, val in half_log_jets(g, gi, gij, gijk).items():
        out[sym] = float(val) if s > 0 else -float(val)
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

def lam_rank_reference(rows) -> int:
    """The rank of a matrix of numbers over the rationals by Gaussian elimination in Fractions.

    The elimination connection.lam_rank's minors replaced.
    """
    mat = [[Fraction(x) for x in r] for r in rows]
    rank = 0
    for col in range(len(mat[0]) if mat else 0):
        piv = next((r for r in range(rank, len(mat)) if mat[r][col]), None)
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        for r in range(len(mat)):
            if r != rank and mat[r][col]:
                fac = mat[r][col] / mat[rank][col]
                mat[r] = [a - fac * b for a, b in zip(mat[r], mat[rank])]
        rank += 1
    return rank


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


def direct_residuals(c, kind, rows, alphaPs) -> list:
    """The anomaly residual of D on c for each alphaP, from direct_fields and direct_gauge_p1.

    dT - (alphaP/4)(p1(nabla^-) - p1(D)) = -r e^{-4f} ebar^{1234}, and every
    other component of it must vanish.
    """
    fields = direct_fields(c)
    diff = fields["p1_minus"] - direct_gauge_p1(c, kind, rows)
    out = []
    for alphaP in alphaPs:
        F = fields["dT"] - diff * (ring.coerce(alphaP) * ring.rat(1, 4))
        assert not any(g for idx, g in F.comps.items() if idx != (1, 2, 3, 4)), "non-volume anomaly form"
        out.append(-F.comps.get((1, 2, 3, 4), ring.ZERO) * ring.expf(4))
    return out


def strict_json_reference(obj) -> str:
    """report.strict_json as a copy of obj that JSON can hold, dumped by the json module."""
    return json.dumps(_sanitize(obj), sort_keys=True, indent=2, allow_nan=False) + "\n"


def _sanitize(obj):
    """obj with every value JSON can hold as it is: a Fraction as its string, a
    non-finite float as "NaN"/"Infinity"/"-Infinity", anything else (a ring
    element) as its repr."""
    if isinstance(obj, dict):
        return {str(k): _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    if isinstance(obj, Fraction):
        return str(obj)
    if isinstance(obj, float):
        if math.isfinite(obj):
            return float(obj)
        return "NaN" if math.isnan(obj) else ("Infinity" if obj > 0 else "-Infinity")
    if isinstance(obj, (int, str, bool)) or obj is None:
        return obj
    return repr(obj)
