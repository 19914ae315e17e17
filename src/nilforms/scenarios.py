"""Catalogued verification scenarios and their deterministic reports.

Each scenario bundles a frame, a dilaton profile, an auxiliary connection
and a parameter regime, runs a fixed list of symbolic and numeric checks,
and assembles a JSON-serializable report.  Check failures and exceptions
are captured into the report, never raised past it; a config key or an
override the scenario does not read, or a value it cannot use, raises
BadParams before any check runs.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

from . import anomaly, numeric, ring
from .connection import gauge_rows, lam_rank, lam_squared
from .elliptic import cubic_residual, half_period, half_period_agm, weierstrass_p
from .forms import horizontal_volume
from .frames import FREE_FRAME, abs_A_squared, build_coframe
from .gstruct import catalogue_geometry, geometry, held_in, specialised
from .profiles import BadParams, profile
from .report import SCENARIOS, strict_json
from .ring import rat

SCHEMA_VERSION = 1


class CheckResult(NamedTuple):
    id: str
    status: str  # "pass" | "fail" | "error"
    residual: float | None
    details: dict


class ScenarioReport(NamedTuple):
    name: str
    seed: int
    checks: list
    values: dict
    overrides: tuple = ()

    @property
    def passed(self) -> bool:
        return all(c.status == "pass" for c in self.checks)

    def to_json(self) -> str:
        return strict_json({
            "schema_version": SCHEMA_VERSION,
            "scenario": self.name,
            "seed": self.seed,
            "overrides": list(self.overrides),
            "passed": self.passed,
            "summary": {
                "total": len(self.checks),
                "passed": sum(1 for c in self.checks if c.status == "pass"),
                "failed": sum(1 for c in self.checks if c.status != "pass"),
            },
            "checks": [c._asdict() for c in self.checks],
            "values": self.values,
        })


def _ck(checks: list, cid: str, fn, held_by=None) -> None:
    """Run the check cid, fn() -> (ok, residual, details), and append its result to checks.

    When fn reads only the values of held_by, a Geometry or Gauge, its
    output is kept in held_by.held (held_in), and each report gets its own
    copy of details.  An error is never kept: it is raised again on every
    report.
    """
    try:
        ok, residual, details = fn() if held_by is None else held_in(held_by, cid, fn)
    except Exception as exc:  # captured into the report, never thrown past it
        checks.append(CheckResult(cid, "error", None, {"exception": repr(exc)}))
        return
    checks.append(CheckResult(cid, "pass" if ok else "fail", residual, dict(details)))


# ---------------------------------------------------------------------------
# shared check bodies

def _forms_all_zero(forms: dict) -> tuple[bool, int]:
    bad = sum(1 for f in forms.values() if f)
    return bad == 0, bad


def _all_zero(forms: dict, counted: str):
    """Every value of forms vanishes; the details count them under the key counted, and the nonzero ones."""
    ok, bad = _forms_all_zero(forms)
    return ok, None, {counted: len(forms), "nonzero": bad}


def _integrable_pure(geo):
    """The G2 form is integrable, of pure type and normalized."""
    g = geo.structure
    res = geo.structure_residuals
    r1, r2 = res["coclosed"], res["pure_type"]
    norm_ok = g.theta.wedge(g.star_theta) == geo.coframe.form(7, {tuple(range(1, 8)): rat(7)})
    ok = (not r1.comps) and (not r2.comps) and norm_ok
    return ok, None, {
        "coclosed_terms": len(r1.comps),
        "pure_type_terms": len(r2.comps),
        "normalization_7vol": norm_ok,
    }


def _closed_form(gauge):
    """Anomaly residual vs the gauge's closed form; read first, so a rank-two D_Lambda errors with its refusal."""
    r = gauge.anomaly_residual
    return r == gauge.displayed_residual, None, {"terms": len(r)}


def _torsion_chain(geo):
    """Torsion block formula vs the structure route, and the dT closed form."""
    match = geo.structure_torsion == geo.torsion
    volume = horizontal_volume(geo.dT)
    closed_form = volume is not None and volume == -ring.onshell_factor(abs_A_squared(geo.coframe))
    return match and closed_form, None, {
        "route_equality": match,
        "dT_pure_volume": volume is not None,
        "dT_closed_form": closed_form,
    }


def _minus_instanton_factors(geo):
    """Every entry of nabla^-'s instanton residual is a ring multiple of the on-shell factor of |A|^2."""
    return _factor_through(geo.instanton_minus, ring.onshell_factor(abs_A_squared(geo.coframe)))


def _factor_through(entries: dict, factor):
    """Every nonzero ring element of entries must be an exact ring multiple of factor."""
    nonzero = [coef for coef in entries.values() if coef]
    for n, coef in enumerate(nonzero, 1):
        if ring.try_divide(coef, factor) is None:
            return False, None, {"nonzero": n, "unfactored": repr(coef)}
    return True, None, {"coefficients": len(entries), "nonzero": len(nonzero)}


# ---------------------------------------------------------------------------
# what differs between the 7-leg (G2) and the 5-leg (SU(2)) theorems

class _Theorem(NamedTuple):
    structure_check: str  # check id
    structure_body: object  # its body: geo -> (ok, residual, details)
    A: list  # integer fiber matrix of the numeric frame
    lam: list  # gauge matrix Lambda of the negative regime
    B: list  # gauge matrix B of the positive regime
    rank2_lambda: list | None  # rank-two Lambda of the designed failure, if catalogued
    npoints: int = 64
    alphaP: int = 1


_THEOREMS = {
    7: _Theorem(
        "structure-integrable-pure", _integrable_pure,
        A=[[1, 0, 0], [0, 1, 0], [0, 0, 1]],
        lam=[[1, 0, 0], [0, 0, 0], [0, 0, 0]],
        B=[[0, 0, 0], [0, 0, 0], [0, 0, 0]],
        rank2_lambda=[[1, 0, 0], [0, 1, 0], [0, 0, 0]],
    ),
    5: _Theorem(
        "structure-residuals", lambda geo: _all_zero(geo.structure_residuals, "residuals"),
        A=[[1, 1, 1]], lam=[2, -1, 1], B=[0, 0, 0], rank2_lambda=None,
    ),
}


def _frame_geometry(dim: int, A=None):
    """The Geometry of the theorem's frame of dim legs: symbolic when A is None, else of fiber matrix A.

    The symbolic frame and the default numeric one come from the program's tables.
    """
    cid = FREE_FRAME[dim]
    if A is None:
        return catalogue_geometry(cid)
    params = {"A": tuple(map(tuple, A))} if dim == 7 else dict(zip(("a1", "a2", "a3"), A[0]))
    if A == _THEOREMS[dim].A:
        return catalogue_geometry(cid, **params)
    return geometry(build_coframe(cid, **params))


def _theorem_gauges(geos, kind: str, rows) -> list:
    """The gauge (kind, rows) on each of geos, under the hold rule of frames and gauges alike.

    A frame or gauge whose matrix equals one of the program's table matrices
    lives for the process, and any other lives with its report.  So rows
    equal to one of the theorem table's matrices of kind (lam or
    rank2_lambda for DLambda, B for DB) give a gauge kept in its frame's
    Geometry (anomaly.held_gauge), which lives as long as that frame (the
    report's own, for a config frame); other rows give a gauge of the report.
    """
    th = _THEOREMS[geos[0].coframe.dim]
    held = rows in ((th.lam, th.rank2_lambda) if kind == "DLambda" else (th.B,))
    return [anomaly.held_gauge(geo, kind, rows) if held else anomaly.Gauge(geo.coframe, kind, rows)
            for geo in geos]


def _theorem_frames(checks: list, dim: int, A_num) -> tuple:
    """The symbolic and numeric Geometry of a theorem and the numeric frame's |A|^2 (held on it),
    after the three checks on the symbolic frame."""
    th = _THEOREMS[dim]
    geo, geo_num = _frame_geometry(dim), _frame_geometry(dim, A_num)
    _ck(checks, "frame-integrability", lambda: _all_zero(geo.integrability_residuals, "legs"), geo)
    _ck(checks, th.structure_check, lambda: th.structure_body(geo), geo)
    _ck(checks, "torsion-chain", lambda: _torsion_chain(geo), geo)
    return geo, geo_num, held_in(geo_num, "abs-A-squared", lambda: abs_A_squared(geo_num.coframe).as_fraction())


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _number(value) -> Fraction | None:
    """value read exactly by ring.exact (0.1 -> 1/10, "1/2"), or None when it is no number."""
    try:
        return ring.exact(value).as_fraction()
    except (TypeError, ValueError, ArithmeticError):
        return None


def _params(name: str, dim: int, config: dict, keys: tuple, overrides: tuple, min_points: int = 1) -> list:
    """The values of keys, the config keys a scenario reads, defaults filled in.

    Raises BadParams, before any check runs, for a key or an override the
    scenario does not read, a repeated override or a value it cannot use.
    Defaults come from the dimension's row of _THEOREMS.  lam and B are read
    by connection.gauge_rows, as a Gauge reads them, and B must have
    |B|^2 < |A|^2, A read before it; the override rank2-lambda sets lam to
    the theorem's rank-two Lambda.
    """
    th = _THEOREMS.get(dim)  # None for the contractions, which read no key
    unread = [key for key in config if key not in keys]
    if unread:
        reads = ", ".join(map(repr, keys)) if keys else "no config keys"
        raise BadParams(f"{name}: unknown config key {', '.join(map(repr, unread))} (it reads {reads})")
    repeated = list(dict.fromkeys(ov for ov in overrides if overrides.count(ov) > 1))
    if repeated:
        raise BadParams(f"{name}: repeated override {', '.join(map(repr, repeated))}")
    rank2 = "lam" in keys and th.rank2_lambda is not None
    unread = [ov for ov in overrides if ov != "rank2-lambda" or not rank2]
    if unread:
        reads = "'rank2-lambda'" if rank2 else "none; rank2-lambda applies to the 7D negative theorem alone"
        raise BadParams(f"{name}: unknown override {', '.join(map(repr, unread))} (it reads {reads})")
    out = []
    for key in keys:
        value = config.get(key, getattr(th, key))
        if key == "A":
            ok = isinstance(value, (list, tuple)) and len(value) == dim - 4 and all(
                isinstance(row, (list, tuple)) and len(row) == 3 and all(map(_is_int, row)) for row in value
            ) and any(map(any, value))
            want = f"a nonzero {dim - 4}x3 matrix of integers"
        elif key == "npoints":
            ok, want = _is_int(value) and value >= min_points, f"an integer >= {min_points}"
        elif key == "alphaP":
            ok, want = _number(value) is not None and _number(value) > 0, "a positive number"
        else:  # lam, B
            kind, want = "DLambda" if key == "lam" else "DB", "a matrix of numbers"
            try:
                rows = gauge_rows(kind, value, _frame_geometry(dim).coframe)
                ok = all(x.as_fraction() is not None for row in rows for x in row)
            except (TypeError, ValueError, ArithmeticError) as exc:
                ok, want = False, f"{want} ({exc})"
            if ok and key == "B":  # c* is proportional to |A|^2 - |B|^2, which must be positive
                absA2 = sum(a * a for row in out[keys.index("A")] for a in row)
                entries = [b for row in rows for b in row]
                ok = ring.dot(entries, entries).as_fraction() < absA2
                want = f"a matrix of numbers with |B|^2 < |A|^2 = {absA2}"
        if not ok:
            raise BadParams(f"{name}: config {key!r} must be {want}, got {value!r}")
        out.append(_number(value) if key == "alphaP" else value)
    if "rank2-lambda" in overrides:
        out[keys.index("lam")] = th.rank2_lambda
    return out


# ---------------------------------------------------------------------------
# numeric helpers

def _line_points(tau: float, n: int):
    return [(0.1 * tau + 1.8 * tau * k / (n - 1), 0.0, 0.0, 0.0) for k in range(n)]


def _exact_sweep(prof, points, exprs) -> list:
    """[[e at x for x in points] for e in exprs] on the exact jets of prof they read.

    Each point, (integer numerators, one denominator) as _rational_points
    gives it, has a table that holds the jets as ints over one denominator.
    """
    want = numeric.jets_read(exprs)
    cols = [[] for _ in exprs]
    for x in points:
        g, D, nums = prof.jets_exact(x, want)
        for col, e in zip(cols, exprs):
            col.append(ring.evaluate_exact(e, nums, D, g))
    return cols


def _table(prof, points, sweeps, consts=None) -> dict:
    """The float table of points, with the jets of prof that some of sweeps read and consts {name: value}."""
    want = tuple(sorted({jet for sweep in sweeps for jet in sweep.jets}))
    return numeric.build_assignment(prof, points, consts, want)


def _float_sweep(sweep, table) -> float:
    """numeric.max_error of |e| over the elements of a numeric.Sweep at each point of a float table.

    The sweep holds one element of each {e, -e} class, and |e| and |-e|
    evaluate to the same float, so this is the largest |e| over every
    element it was built from, bit for bit; max_error depends on neither
    order nor repeats, nan included.  A frame's Geometry keeps the sweeps
    of its own elements (held_in).
    """
    return numeric.max_error([abs(v) for e in sweep.exprs for v in e.evaluate(table)])


def _rational_points(seed: int):
    """Five deterministic rational sample points away from the origin, each as (integer numerators, one denominator)."""
    pts = []
    s = seed % 97 + 2
    for k in range(5):
        num = [((s + 3 * k + i) % 7) + 1 for i in range(4)]
        den = [((s * (k + 2) + i) % 7) + 2 + num[i] for i in range(4)]
        q = math.lcm(*den)
        pts.append((tuple(n * (q // d) for n, d in zip(num, den)), q))
    return pts


# ---------------------------------------------------------------------------
# scenario bodies

def _weierstrass_negative(checks, values, *, name: str, dim: int, seed: int, config: dict, overrides):
    """Shared body of thm-7d-negative / thm-5d-negative."""
    A_num, lam, npoints = _params(name, dim, config, ("A", "lam", "npoints"), overrides, min_points=2)
    values["lam"] = lam
    geo, geo_num, absA2q = _theorem_frames(checks, dim, A_num)  # held to the end
    gauge, gauge_num = _theorem_gauges((geo, geo_num), "DLambda", lam)
    csym, cnum = geo.coframe, geo_num.coframe

    rank = held_in(gauge, "lam-rank", lambda: lam_rank(gauge_rows("DLambda", lam, csym)))
    values["lam_rank"] = rank
    _ck(checks, "gauge-rank-one", lambda: (rank == 1, None, {"rank": rank}))

    _ck(checks, "gauge-instanton", lambda: _all_zero(gauge.instanton_residual, "entries"), gauge)
    _ck(checks, "minus-instanton-factors", lambda: _minus_instanton_factors(geo), geo)
    _ck(checks, "plus-holonomy-zero", lambda: _all_zero(geo.holonomy_plus, "entries"), geo)

    values["p1_volume_reading"] = "unbarred"

    _ck(checks, "anomaly-residual-closed-form", lambda: _closed_form(gauge), gauge)

    def _reduction():
        ode = gauge.reduced_residual
        return ode == anomaly.solv4_ode(abs_A_squared(csym)), None, {"ode_terms": len(ode)}

    _ck(checks, "reduction-first-integral", _reduction, gauge)
    _ck(checks, "u-substitution-identity", lambda: (not any(anomaly.u_substitution_residuals()), None, {}))

    # numeric leg: Weierstrass profile under the constraint 2|A|^2 = alpha^2 lam^2; |A|^2 and lam^2 are held
    lam2q = held_in(gauge_num, "lam-squared", lambda: lam_squared(lam, cnum).as_fraction())
    values["absA2"] = absA2q
    values["lam2"] = lam2q

    def _numeric_ode():
        absA2n, lam2n = float(absA2q), float(lam2q)  # either may be beyond the floats
        if lam2n <= 0:
            raise BadParams("constraint needs lam^2 > 0")
        alpha = math.sqrt(2.0 * absA2n / lam2n)
        d = anomaly.d_parameter(absA2n, alpha)
        tau = half_period(d)
        values["alpha"] = alpha
        values["d"] = d
        values["tau_plus"] = tau
        values["alphaP"] = -alpha * alpha

        def maxima():
            prof = profile("weierstrass", d=d, alpha=alpha)
            pts = _line_points(tau, npoints)
            wps = [weierstrass_p(x[0], d) for x in pts]  # (p, p') once per line point
            worst_ode = numeric.max_error(abs(cubic_residual(wp, d)) for wp in wps)
            worst_per = numeric.max_error(
                abs(weierstrass_p(x[0] + 2 * tau, d)[0] - wp[0]) for x, wp in zip(pts, wps)
            )
            # one table of the line points feeds the first integral (C0 = 0) and the reduced residual
            first, ode = numeric.Sweep((anomaly.first_integral(),)), numeric.Sweep((gauge_num.reduced_residual,))
            table = _table(prof, pts, (first, ode), {"alpha": alpha, "absA2": absA2n})
            return worst_ode, worst_per, _float_sweep(first, table), _float_sweep(ode, table)

        # alpha, d and tau read only the numeric gauge's |A|^2 and lam^2, so its maxima are held with it
        worst_ode, worst_per, worst_first, worst_res = held_in(
            gauge_num, ("weierstrass-profile-numeric", npoints), maxima)
        ok = worst_ode <= 1e-9 and worst_per <= 1e-8 and worst_first <= 1e-7 and worst_res <= 1e-6
        return ok, worst_ode, {
            "cubic": worst_ode,
            "periodicity": worst_per,
            "first_integral": worst_first,
            "reduced_residual": worst_res,
        }

    _ck(checks, "weierstrass-profile-numeric", _numeric_ode)

    def _half_period_agm():
        gap = abs(half_period(1.0) - half_period_agm(1.0))
        return gap <= 1e-10, gap, {}

    _ck(checks, "half-period-agm", _half_period_agm)


def _fundamental_positive(checks, values, *, name: str, dim: int, seed: int, config: dict, overrides):
    """Shared body of thm-7d-positive / thm-5d-positive (gauge choice B = O)."""
    A_num, B, alphaP = _params(name, dim, config, ("A", "B", "alphaP"), overrides)
    geo, geo_num, absA2q = _theorem_frames(checks, dim, A_num)  # held to the end
    csym = geo.coframe
    gauge, gauge_num = _theorem_gauges((geo, geo_num), "DB", B)
    absB2 = gauge.abs_B_squared.as_fraction()
    values["absB2"] = absB2

    _ck(checks, "gauge-instanton-condition",
        lambda: _factor_through(gauge.instanton_residual, ring.onshell_factor(gauge.abs_B_squared)), gauge)

    _ck(checks, "anomaly-residual-closed-form", lambda: _closed_form(gauge), gauge)

    def _p1_difference():
        volume = horizontal_volume(geo.p1_minus - gauge.p1)
        want = (abs_A_squared(csym) - gauge.abs_B_squared) * ring.lap_e_m2f() * rat(-3)
        return volume is not None and volume == want, None, {"pure_volume": volume is not None}

    _ck(checks, "p1-difference-closed-form", _p1_difference, gauge)

    # engine-derived constant c*: e^{2f} = c*/|x-e|^2 kills the residual
    def _cstar():
        # residual on the profile: lap e^{2f} = 0 and lap e^{-2f} = 8/c exactly,
        # measured from the engine polynomials on the c = 1 profile
        prof1 = profile("fundamental", c=1)
        pts = _rational_points(seed)
        harm, k_list = _exact_sweep(prof1, pts, (ring.lap_e2f(), ring.lap_e_m2f()))
        k_vals = set(k_list)
        if any(h != 0 for h in harm) or len(k_vals) != 1:
            return False, None, {"harmonic": [str(h) for h in harm]}
        kconst = k_vals.pop()  # lap e^{-2f} on the c=1 profile; scales as k/c
        # solve  2|A|^2 - (3/4) alphaP (|A|^2-|B|^2) k / c = 0  for c
        cstar_over_alphaP = Fraction(3, 4) * (absA2q - absB2) * kconst / (2 * absA2q)
        values["lap_e_m2f_c1"] = kconst
        values["cstar_over_alphaP"] = cstar_over_alphaP
        values["comparison_constant_over_alphaP"] = Fraction(3, 4)
        values["cstar_vs_comparison_ratio"] = cstar_over_alphaP / Fraction(3, 4)
        # certify residual(c*) == 0 exactly, alphaP kept symbolic via alphaP = 1
        cstar = cstar_over_alphaP * alphaP
        prof = profile("fundamental", c=cstar)
        (worst,) = _exact_sweep(prof, pts, (gauge_num.anomaly_residual.substitute({"alphaP": alphaP}),))
        ok = all(w == 0 for w in worst)
        values["alphaP"] = alphaP
        values["cstar"] = cstar
        return ok, None, {"residuals": [str(w) for w in worst]}

    _ck(checks, "fundamental-cstar-derivation", _cstar)

    def _harmonic():
        prof = profile("fundamental", alphaP=alphaP)
        (vals,) = _exact_sweep(prof, _rational_points(seed + 1), (ring.lap_e2f(),))
        return all(v == 0 for v in vals), None, {"points": len(vals)}

    _ck(checks, "profile-harmonic-exact", _harmonic)


def _ball_7d(checks, values, *, name: str, dim: int, seed: int, config: dict, overrides):
    A_num, npoints = _params(name, dim, config, ("A", "npoints"), overrides)
    geo, geo_num, absA2q = _theorem_frames(checks, dim, A_num)  # held to the end
    values["absA2"] = absA2q
    values["p1_volume_reading"] = "unbarred"

    prof = profile("ball", absA2=absA2q)

    def _ball_equation():
        pts = [(nums, 2 * q) for nums, q in _rational_points(seed)]  # halved, to keep |x| < 1
        (vals,) = _exact_sweep(prof, pts, (ring.onshell_factor(rat(absA2q)),))
        return all(v == 0 for v in vals), None, {"points": len(vals)}

    _ck(checks, "ball-solves-instanton-equation", _ball_equation)

    _ck(checks, "minus-instanton-factors", lambda: _minus_instanton_factors(geo), geo)

    def _numeric_residuals():
        sweep = held_in(geo_num, "instanton-dT-sweep", lambda: numeric.Sweep(
            [*geo_num.instanton_minus.values(), *geo_num.dT.comps.values()]))
        pts = numeric.profile_points(prof, n=npoints, seed=seed)
        worst = _float_sweep(sweep, _table(prof, pts, (sweep,)))
        return worst <= 1e-9, worst, {"points": len(pts)}

    _ck(checks, "instanton-and-closed-torsion-numeric", _numeric_residuals)

    def _normalization_probe():
        sweeps = {phi_factor: numeric.Sweep((e,)) for phi_factor, e in geo_num.scalar_identity.items()}
        table = _table(prof, numeric.profile_points(prof, n=16, seed=seed + 7), sweeps.values())
        outcome = {f"phi={phi_factor}f": _float_sweep(sweep, table) for phi_factor, sweep in sweeps.items()}
        satisfied = [k for k, v in outcome.items() if v <= 1e-8]
        values["scalar_identity_normalization"] = satisfied
        values["scalar_identity_residuals"] = outcome
        # the probe records the outcome; it passes when exactly one choice fits, and its residual
        # is the smallest that is not nan (min would keep a nan that comes first)
        best = min((v for v in outcome.values() if v == v), default=math.nan)
        return len(satisfied) == 1, best, outcome

    _ck(checks, "dilaton-normalization-probe", _normalization_probe)


class _Contraction(NamedTuple):
    family: str  # catalogue id of the 7-leg eps-family, eps symbolic by default
    direct: str  # catalogue id of the frame its eps -> 0 limit must equal; the legs above its dim drop
    lam7: list  # Lambda on the 7-leg frame; zero in the dropped legs' columns
    a_num: dict  # the numbers the decay check puts in for the family's other symbols


_CONTRACTIONS = {
    6: _Contraction("eps6", "h5", [[1, 1, 0], [0, 0, 0], [0, 0, 0]],
                    {"a": Fraction(5, 4), "b": Fraction(3, 4)}),
    5: _Contraction("eps5", "h21", [[1, 0, 0], [2, 0, 0], [0, 0, 0]],
                    {"a1": 1, "a2": Fraction(-1, 2), "a3": Fraction(1, 4)}),
}

_EPS = ring.const_sym("eps")


def _decay_sweeps(fam, t: _Contraction, dim: int) -> dict:
    """{eps: the float sweep of the dropped-leg coefficients of fam's curv_minus at eps and t.a_num}, kept in fam.held.

    fam is the eps-family with eps symbolic.  A coefficient of component idx
    of entry (i, j) is on a dropped leg when i, j or a leg of idx is above
    dim, the direct frame's; each goes into the sweeps at eps = 1/10, 1/100
    and 1/1000 by substitute.
    """
    def build():
        cur = fam.curv_minus
        coefs = [coef for (i, j) in cur.pairs() for idx, coef in cur.entry(i, j).comps.items()
                 if max(i, j, *idx) > dim]
        nums = {ring.const_sym(name): v for name, v in t.a_num.items()}
        return {float(e): numeric.Sweep(coef.substitute({**nums, _EPS: e}) for coef in coefs)
                for e in (Fraction(1, 10), Fraction(1, 100), Fraction(1, 1000))}

    return held_in(fam, "dropped-leg-sweeps", build)


def _contraction(checks, values, *, name: str, dim: int, seed: int, config: dict, overrides):
    _params(name, dim, config, (), overrides)
    t = _CONTRACTIONS[dim]
    # the family with eps symbolic and the direct frame; each limit check puts eps = 0 into the family
    fam, geo = catalogue_geometry(t.family), catalogue_geometry(t.direct)
    direct = geo.coframe

    _ck(checks, "family-integrability", lambda: (_forms_all_zero(fam.integrability_residuals)[0], None, {}), fam)

    def _coframe_limit():
        # the family's fiber matrix at eps = 0: the direct frame's rows, then a zero row per dropped leg
        limit = tuple(tuple(x.substitute({_EPS: 0}) for x in row) for row in fam.coframe.A)
        return limit == direct.A + ((ring.ZERO,) * 3,) * (fam.coframe.dim - direct.dim), None, {"dim": direct.dim}

    _ck(checks, "contracted-coframe-equals-direct", _coframe_limit, geo)
    _ck(checks, "contracted-torsion-equals-direct",
        lambda: (specialised(fam.torsion, direct, {_EPS: 0}) == geo.torsion, None, {}), geo)

    def _structure_limit():
        ok, bad = _forms_all_zero(geo.structure_residuals)
        return ok, None, {"nonzero": bad}

    _ck(checks, "contracted-structure-residuals", _structure_limit, geo)

    def _residual_limit():
        # the family's residual at eps = 0, the degenerate rows kept, against the direct frame's
        lam_direct = [row[:direct.dim - 4] for row in t.lam7]  # the same Lambda on the direct frame
        r_path = anomaly.held_gauge(fam, "DLambda", t.lam7).anomaly_residual.substitute({_EPS: 0})
        r_direct = anomaly.held_gauge(geo, "DLambda", lam_direct).anomaly_residual
        return r_path == r_direct, None, {"terms": len(r_direct)}

    _ck(checks, "contracted-anomaly-equals-direct", _residual_limit, geo)

    def _decay():
        prof = profile("ball", absA2=3)
        dropped = _decay_sweeps(fam, t, direct.dim)  # eps -> the sweep of the curvature coefficients on a dropped leg
        pts = numeric.profile_points(prof, n=12, seed=seed)
        table = _table(prof, pts, dropped.values())
        maxima = {e: _float_sweep(sweep, table) for e, sweep in dropped.items()}
        r1 = maxima[0.1] / maxima[0.01]
        r2 = maxima[0.01] / maxima[0.001]
        ok = abs(r1 - 10.0) <= 1.0 and abs(r2 - 10.0) <= 1.0
        values["dropped_leg_maxima"] = maxima
        values["decay_ratios"] = [r1, r2]
        return ok, None, {"ratios": [r1, r2]}

    _ck(checks, "dropped-leg-curvature-decay", _decay)


# ---------------------------------------------------------------------------
# public driver

# scenario -> (body, dimension of its frames)
_BODIES = {
    "thm-7d-negative": (_weierstrass_negative, 7),
    "thm-7d-positive": (_fundamental_positive, 7),
    "ball-7d": (_ball_7d, 7),
    "thm-5d-negative": (_weierstrass_negative, 5),
    "thm-5d-positive": (_fundamental_positive, 5),
    "contraction-6d": (_contraction, 6),
    "contraction-5d": (_contraction, 5),
}


def run_scenario(name: str, seed: int = 0, config: dict | None = None, overrides=()) -> ScenarioReport:
    seed = int(seed)
    config = {} if config is None else dict(config)
    overrides = tuple(overrides)
    if name not in SCENARIOS:
        raise KeyError(f"unknown scenario {name!r}; choose from {SCENARIOS}")

    checks: list[CheckResult] = []
    values: dict = {}
    body, dim = _BODIES[name]
    body(checks, values, name=name, dim=dim, seed=seed, config=config, overrides=overrides)
    return ScenarioReport(name, seed, checks, values, overrides)
