"""End-to-end acceptance suite: one test per certified criterion.

Each test rebuilds what it needs from scratch, enforces the stated numeric
tolerance, and asserts its own wall-clock budget, so `pytest -v` prints one
self-contained pass/fail line per criterion.
"""
from __future__ import annotations

import math
import random
import time
from fractions import Fraction

import expected_tables as tables
from naive_forms import interior, riemann
from nilforms import anomaly, ring
from nilforms.connection import (
    build_instanton_DLambda,
    curvature,
    koszul,
    lam_rank,
    lam_squared,
    levi_civita,
    pontryagin4,
)
from nilforms.elliptic import (
    cubic_residual,
    half_period,
    half_period_agm,
    weierstrass_p,
)
from nilforms.forms import exterior_derivative, hodge_star
from nilforms.frames import (
    abs_A_squared,
    h3,
    h5,
    h21,
    k_a,
    quaternionic_heisenberg,
)
from nilforms.gstruct import (
    build_g2,
    build_su2,
    direct_torsion,
    g2_holonomy_residual,
    g2_instanton_residual,
    su2_holonomy_residual,
    su2_instanton_residual,
)
from nilforms.profiles import profile
from nilforms.ring import const, expf, jet, lap_e2f, lap_e_m2f, rat
from nilforms.scenarios import run_scenario


def _done(num: int, t0: float, budget: float) -> None:
    elapsed = time.perf_counter() - t0
    print(f"[criterion-{num:02d}] PASS in {elapsed:.2f}s (budget {budget:.0f}s)")
    assert elapsed <= budget


def _family(c):
    T = direct_torsion(c)
    lc = levi_civita(c)
    return T, lc, koszul(c, T, -1), koszul(c, T, +1)


def _volume_multiple(c, coef):
    """coef * e^{-4f} ebar^{1234} extended by zeros to the frame dimension."""
    return c.form(4, {(1, 2, 3, 4): coef.scale_expf(-4)})


def _rand_rank_one(rng):
    while True:
        u = [rng.randint(-3, 3) for _ in range(3)]
        v = [rng.randint(-3, 3) for _ in range(3)]
        lam = [[ui * vj for vj in v] for ui in u]
        if any(any(row) for row in lam):
            return lam


# ---------------------------------------------------------------------------

def test_criterion_01_connection_and_curvature_forms():
    """Every nonzero minus-connection 1-form and every curvature 2-form is
    reproduced from the Koszul + torsion + curvature pipeline alone."""
    t0 = time.perf_counter()
    c = k_a()
    _T, _lc, wm, _wp = _family(c)
    table = tables.minus_connection_table(c)
    checked = 0
    for (i, j), want in table.items():
        assert not (wm.entry(i, j) - want), (i, j)
        checked += 1
    for (i, j) in tables.ZERO_PAIRS:
        assert not wm.entry(i, j), (i, j)
        checked += 1
    for (a, b, sign) in tables.MIRROR_PAIRS:
        assert not (wm.entry(*a) - wm.entry(*b) * sign), (a, b)
        checked += 1
    assert checked == 24
    cur = curvature(wm)
    ctable = tables.minus_curvature_table(c)
    assert len(ctable) == 21
    for (i, j), want in ctable.items():
        assert not (cur.entry(i, j) - want), (i, j)
    _done(1, t0, 10.0)


def test_criterion_02_torsion_and_its_differential():
    """The torsion 3-form and its exact differential as a pure volume form."""
    t0 = time.perf_counter()
    c = k_a()
    T = direct_torsion(c)
    assert not (T - tables.torsion_fixture(c))
    dT = exterior_derivative(T)
    assert not (dT - tables.torsion_divergence_fixture(c))
    _done(2, t0, 2.0)


def test_criterion_03_pontryagin_volume_forms():
    """First Pontryagin 4-forms of the minus connection and of five random
    rank-one gauge connections, as exact volume multiples."""
    t0 = time.perf_counter()
    c = k_a()
    _T, _lc, wm, _wp = _family(c)
    p1m = pontryagin4(curvature(wm))
    bracket = (
        rat(8) * ring.hessian2()
        + rat(8) * ring.p_laplacian4()
        - rat(3) * abs_A_squared(c) * lap_e_m2f()
    )
    assert not (p1m - _volume_multiple(c, bracket))
    rng = random.Random(20240817)
    for _ in range(5):
        lam = _rand_rank_one(rng)
        assert lam_rank(lam, c) == 1
        p1g = pontryagin4(curvature(build_instanton_DLambda(lam, c)))
        want = _volume_multiple(c, rat(-4) * lam_squared(lam, c))
        assert not (p1g - want), lam
    rep = run_scenario("thm-7d-negative")
    assert rep.values["p1_volume_reading"] == "unbarred"
    _done(3, t0, 60.0)


def test_criterion_04_instanton_conditions():
    """Rank-one gauge fields pass the instanton contraction, a ten-case
    rank-two suite fails it, the minus-connection residual carries the
    on-shell factor, and the plus connection preserves the structure —
    in seven and in five dimensions."""
    t0 = time.perf_counter()
    c = k_a()
    _T, _lc, wm, wp = _family(c)
    g = build_g2(c)
    cur_m, cur_p = curvature(wm), curvature(wp)

    lam1 = [[1, 0, 0], [0, 0, 0], [0, 0, 0]]
    assert g2_instanton_residual(curvature(build_instanton_DLambda(lam1, c)), g) == {}

    rng = random.Random(46)
    rank_two_cases = 0
    while rank_two_cases < 10:
        a, b = _rand_rank_one(rng), _rand_rank_one(rng)
        lam = [[a[i][j] + b[i][j] for j in range(3)] for i in range(3)]
        if lam_rank(lam, c) != 2:
            continue
        rank_two_cases += 1
        res = g2_instanton_residual(curvature(build_instanton_DLambda(lam, c)), g)
        assert res, lam
    assert rank_two_cases == 10

    factor = lap_e2f() + rat(2) * abs_A_squared(c)
    res_m = g2_instanton_residual(cur_m, g)
    assert res_m
    assert all(ring.try_divide(v, factor) is not None for v in res_m.values())
    assert g2_holonomy_residual(cur_p, g) == {}

    c5 = h21()
    _T5, _lc5, wm5, wp5 = _family(c5)
    s = build_su2(c5)
    assert su2_instanton_residual(curvature(build_instanton_DLambda([2, -1, 1], c5)), s) == {}
    factor5 = lap_e2f() + rat(2) * abs_A_squared(c5)
    res5 = su2_instanton_residual(curvature(wm5), s)
    assert res5
    assert all(ring.try_divide(v, factor5) is not None for v in res5.values())
    assert su2_holonomy_residual(curvature(wp5), s) == {}
    _done(4, t0, 30.0)


def test_criterion_05_curvature_pair_symmetry():
    """R+(X,Y,Z,U) - R-(Z,U,X,Y) = (1/2) dT(X,Y,Z,U) over all quadruples."""
    t0 = time.perf_counter()
    c = k_a()
    T, _lc, wm, wp = _family(c)
    cur_m, cur_p = curvature(wm), curvature(wp)
    dT = exterior_derivative(T)
    half = rat(1, 2)
    for i in range(1, 8):
        for j in range(1, 8):
            for k in range(1, 8):
                for l in range(1, 8):
                    lhs = riemann(cur_p, i, j, k, l) - riemann(cur_m, k, l, i, j)
                    rhs = dT.value_at(i, j, k, l) * half
                    assert not (lhs - rhs), (i, j, k, l)
    _done(5, t0, 30.0)


def test_criterion_06_one_variable_reduction_and_elliptic_profile():
    """Exact one-variable reduction and u-substitution, plus the numeric
    contract of the elliptic profile: cubic first integral, periodicity,
    Laurent control, and the closed-form half period."""
    t0 = time.perf_counter()
    c = k_a()
    lam = [[1, 0, 0], [0, 0, 0], [0, 0, 0]]
    r = anomaly.anomaly_residual(c, "alphaP", ("DLambda", lam))
    red = anomaly.reduce_onevar(r, abs_A_squared(c), lam_squared(lam, c))
    assert not (red - anomaly.solv4_ode(abs_A_squared(c)))
    assert not anomaly.u_identity_residual(const("absA2"))
    assert not anomaly.weierstrass_cubic_match()

    d = 1.0
    tau = half_period(d)
    for i in range(181):
        x = (0.1 + 1.8 * i / 180) * tau
        assert abs(cubic_residual(x, d)) <= 1e-9
    for x in (0.3 * tau, 0.8 * tau, 1.6 * tau):
        u, up = weierstrass_p(x, d)
        u2, up2 = weierstrass_p(x + 2 * tau, d)
        assert abs(u - u2) <= 1e-8 * max(1.0, abs(u))
        assert abs(up - up2) <= 1e-8 * max(1.0, abs(up))
    fitted = 0.0
    for i in range(1, 21):
        x = 0.2 * tau * i / 20
        u, _ = weierstrass_p(x, d)
        fitted = max(fitted, abs(x * x * u - 1.0 - (d * d / 5.0) * x ** 4) / x ** 6)
    assert math.isfinite(fitted) and fitted < 1.0
    assert abs(half_period(1.0) - half_period_agm(1.0)) <= 1e-10
    _done(6, t0, 5.0)


def test_criterion_07_positive_constant_derivation():
    """Exact profile identities and the derivation of the positive-regime
    constant, with its size logged against the comparison value."""
    t0 = time.perf_counter()
    ball = profile("ball", absA2=3)
    for x in ((Fraction(1, 4), Fraction(-1, 3), 0, Fraction(2, 5)), (0, 0, 0, 0)):
        g, jets = ball.jets_exact(x)
        assert ring.evaluate_exact(lap_e2f(), jets, g) + 2 * Fraction(3) == 0
    fund = profile("fundamental", c=3)
    for x in ((Fraction(1, 3), Fraction(1, 2), 0, Fraction(-2, 5)), (1, 1, 0, 0)):
        g, jets = fund.jets_exact(x)
        assert ring.evaluate_exact(lap_e2f(), jets, g) == 0

    rep = run_scenario("thm-7d-positive")
    assert rep.passed
    cstar_check = next(c for c in rep.checks if c.id == "fundamental-cstar-derivation")
    assert cstar_check.status == "pass"
    got = rep.values["cstar_over_alphaP"]
    cmp = rep.values["comparison_constant_over_alphaP"]
    print(
        f"[criterion-07] derived constant / alphaP = {got}; "
        f"comparison value = {cmp}; ratio = {got / cmp} (logged, not asserted)"
    )
    _done(7, t0, 5.0)


def test_criterion_08_contraction_limits():
    """The contracted families reproduce the lower-dimensional frames exactly
    at eps = 0 and the dropped-leg curvature decays linearly in eps."""
    t0 = time.perf_counter()
    for name in ("contraction-6d", "contraction-5d"):
        rep = run_scenario(name)
        assert rep.passed, [(c.id, c.status) for c in rep.checks if c.status != "pass"]
        for cid in (
            "contracted-coframe-equals-direct",
            "contracted-torsion-equals-direct",
            "contracted-anomaly-equals-direct",
        ):
            assert next(c for c in rep.checks if c.id == cid).status == "pass"
        r1, r2 = rep.values["decay_ratios"]
        assert abs(r1 - 10.0) <= 1.0 and abs(r2 - 10.0) <= 1.0
    _done(8, t0, 30.0)


# ---------------------------------------------------------------------------
# criterion 9: randomized structural identities, 1000 exact cases each

_POOL = None


def _pool():
    global _POOL
    if _POOL is None:
        frames = [
            quaternionic_heisenberg(),
            k_a(),
            h5(1, 2),
            h3(1),
            h21(1, 0, 2),
            h21(),
        ]
        _POOL = [(c, _family(c)) for c in frames]
    return _POOL


def _rand_coef(rng, max_jet_order):
    out = ring.ZERO
    for _ in range(rng.randint(1, 2)):
        term = rat(rng.randint(-3, 3)) or ring.ONE
        pick = rng.random()
        if pick < 0.35:
            term = term * jet(rng.randint(1, 4))
        elif pick < 0.5 and max_jet_order >= 2:
            term = term * jet(rng.randint(1, 4), rng.randint(1, 4))
        elif pick < 0.65:
            term = term * const(rng.choice("pq"))
        if rng.random() < 0.4:
            term = term * expf(2 * rng.randint(-1, 1))
        out = out + term
    return out


def _rand_form(rng, c, degree, max_jet_order=1):
    import itertools

    combos = list(itertools.combinations(range(1, c.dim + 1), degree))
    comps = {}
    for idx in rng.sample(combos, min(len(combos), rng.randint(1, 3))):
        comps[idx] = _rand_coef(rng, max_jet_order)
    return c.form(degree, comps)


def test_criterion_09_randomized_structural_identities():
    """d∘d = 0, the Leibniz rule, double Hodge star, Koszul skewness and the
    first structure equation, 1000 randomized exact cases each."""
    t0 = time.perf_counter()
    pool = _pool()
    rng = random.Random(99)

    for _ in range(1000):
        c, _fam = rng.choice(pool)
        a = _rand_form(rng, c, rng.randint(0, c.dim - 2))
        assert not exterior_derivative(exterior_derivative(a))

    for _ in range(1000):
        c, _fam = rng.choice(pool)
        p = rng.randint(0, 2)
        q = rng.randint(0, c.dim - p - 1)
        a = _rand_form(rng, c, p)
        b = _rand_form(rng, c, q)
        lhs = exterior_derivative(a.wedge(b))
        rhs = exterior_derivative(a).wedge(b) + a.wedge(exterior_derivative(b)) * ((-1) ** p)
        assert not (lhs - rhs)

    for _ in range(1000):
        c, _fam = rng.choice(pool)
        p = rng.randint(0, c.dim)
        a = _rand_form(rng, c, p, max_jet_order=2)
        sign = (-1) ** (p * (c.dim - p))
        assert not (hodge_star(hodge_star(a)) - a * sign)

    def raw(c, i, j, k):
        return (
            c.dbar(i).value_at(j, k)
            - c.dbar(k).value_at(i, j)
            + c.dbar(j).value_at(k, i)
        ) * rat(1, 2)

    for _ in range(1000):
        c, _fam = rng.choice(pool)
        i, j, k = (rng.randint(1, c.dim) for _ in range(3))
        assert not (raw(c, i, j, k) + raw(c, j, i, k))

    for _ in range(1000):
        c, fam = rng.choice(pool)
        T, lc, wm, wp = fam
        sign, conn = rng.choice(((0, lc), (-1, wm), (1, wp)))
        i = rng.randint(1, c.dim)
        total = exterior_derivative(c.basis(i))
        for j in range(1, c.dim + 1):
            if j != i:
                total = total + conn.entry(i, j).wedge(c.basis(j))
        want = interior(T, i) * sign if sign else c.zero(2)
        assert not (total - want)
    _done(9, t0, 60.0)


def test_criterion_10_dilaton_normalization_probe():
    """The scalar-curvature identity probe reports which dilaton multiple
    satisfies it on the ball sample."""
    t0 = time.perf_counter()
    rep = run_scenario("ball-7d")
    assert rep.passed
    probe = next(c for c in rep.checks if c.id == "dilaton-normalization-probe")
    assert probe.status == "pass"
    outcome = rep.values["scalar_identity_normalization"]
    residuals = rep.values["scalar_identity_residuals"]
    assert outcome == ["phi=-1f"]
    assert residuals["phi=-1f"] <= 1e-8
    print(f"[criterion-10] probe outcome: {outcome[0]} satisfies to 1e-8; residuals = {residuals}")
    _done(10, t0, 5.0)
