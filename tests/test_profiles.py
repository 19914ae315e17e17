"""Tests for the dilaton profiles and their jet chain rule."""
from __future__ import annotations

import functools
import math
import re
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

import naive_forms
from call_counts import call_counts, count
from nilforms import ring
from nilforms.elliptic import half_period, weierstrass_p
from nilforms.numeric import profile_points
from nilforms.profiles import JETS, PROFILES, Admitted, BadParams, over_one_denominator, profile
from nilforms.ring import jet_sym, lap_e2f
from nilforms.scenarios import _rational_points


def _at(prof, x, want=JETS) -> dict:
    """prof's float table at the one point x: {symbol: value}."""
    return {sym: col[0] for sym, col in prof.jets([x], want).items()}


def _exact_at(prof, x, want=JETS):
    """prof.jets_exact at a point of rationals."""
    return prof.jets_exact(over_one_denominator(x), want)


def _fd_jet_check(prof, x, coords=(1, 2, 3, 4), step=1e-5, tol=5e-8):
    """First/second/third jets against central differences of lower jets."""
    base = _at(prof, x)
    for i in coords:
        xp = tuple(c + (step if k == i - 1 else 0.0) for k, c in enumerate(x))
        xm = tuple(c - (step if k == i - 1 else 0.0) for k, c in enumerate(x))
        up, um = _at(prof, xp), _at(prof, xm)
        for idx in [()] + [(j,) for j in coords] + [(j, k) for j in coords for k in coords if j <= k]:
            if len(idx) == 3:
                continue
            target = tuple(sorted(idx + (i,)))
            fd = (up[jet_sym(*idx)] - um[jet_sym(*idx)]) / (2 * step)
            sym = base[jet_sym(*target)]
            assert abs(sym - fd) <= tol * (1.0 + abs(sym)), (i, idx)


# ---------------------------------------------------------------------------
# catalogue

def test_catalogue_and_unknown_name():
    assert PROFILES == ("ball", "fundamental", "weierstrass", "constant")
    with pytest.raises(BadParams, match="unknown profile"):
        profile("parabolic")


# ---------------------------------------------------------------------------
# ball

def test_ball_values_and_domain():
    prof = profile("ball", absA2=3)
    assert prof.exact
    assert prof.e2f((0, 0, 0, 0)) == Fraction(3, 4)
    x = (Fraction(1, 2), 0, 0, 0)
    assert prof.e2f(x) == Fraction(3, 4) * Fraction(3, 4)
    assert prof.in_domain((0.9, 0, 0, 0))
    assert not prof.in_domain((1.0, 0, 0, 0))
    with pytest.raises(BadParams, match="outside the domain"):
        prof.e2f((1.2, 0, 0, 0))
    assert prof.singular_distance((0.6, 0, 0, 0)) == pytest.approx(0.4)


def test_ball_rejects_nonpositive_absA2():
    with pytest.raises(BadParams):
        profile("ball", absA2=0)


def test_ball_solves_laplace_identity_exactly():
    prof = profile("ball", absA2=3)
    for x in ((Fraction(1, 5), Fraction(-1, 3), 0, Fraction(1, 2)), (0, 0, 0, 0)):
        g, D, nums = _exact_at(prof, x)
        val = ring.evaluate_exact(lap_e2f(), nums, D, g)
        assert val + 2 * Fraction(3) == 0


def test_ball_fd_jets():
    _fd_jet_check(profile("ball", absA2=3), (0.21, -0.1, 0.05, 0.3))


@pytest.mark.parametrize("absA2", [Fraction(7, 3), 3, Fraction(1, 10**9), 0.7])
def test_ball_float_jets_match_the_mixed_fraction_formula_bit_for_bit(absA2):
    prof = profile("ball", absA2=absA2)
    pts = profile_points(prof, n=12, seed=2)
    table = prof.jets(pts)
    for p, x in enumerate(pts):
        want = naive_forms.ball_jets_reference(absA2, x)
        assert {sym: float.hex(col[p]) for sym, col in table.items()} == {sym: float.hex(v) for sym, v in want.items()}


# ---------------------------------------------------------------------------
# fundamental

def test_fundamental_defaults_and_guards():
    prof = profile("fundamental", alphaP=2)
    assert prof.params["c"] == Fraction(6)
    assert profile("fundamental", c=5).params["c"] == Fraction(5)
    for bad in (dict(alphaP=0), dict(c=0), dict(c=1, center=(0, 0, 0)), dict(), dict(c=1, alphaP=2)):
        with pytest.raises(BadParams):
            profile("fundamental", **bad)


def test_fundamental_is_exactly_harmonic():
    prof = profile("fundamental", c=5, center=(1, 0, 0, 0))
    for x in ((Fraction(1, 3), Fraction(1, 2), 0, Fraction(-2, 5)), (0, 1, 1, 0)):
        g, D, nums = _exact_at(prof, x)
        assert ring.evaluate_exact(lap_e2f(), nums, D, g) == 0


def test_fundamental_domain_and_distance():
    prof = profile("fundamental", c=1, center=(1, 0, 0, 0))
    assert not prof.in_domain((1, 0, 0, 0))
    assert prof.in_domain((1, 0, 0, 1))
    assert prof.singular_distance((1, 0, 0, 2)) == pytest.approx(2.0)


def test_fundamental_fd_jets():
    _fd_jet_check(profile("fundamental", c=5), (0.4, 0.5, 0.35, 0.6))


# ---------------------------------------------------------------------------
# weierstrass

def test_weierstrass_guards():
    with pytest.raises(BadParams):
        profile("weierstrass", d=0, alpha=1)
    with pytest.raises(BadParams):
        profile("weierstrass", d=1, alpha=0)


def test_weierstrass_domain_excludes_poles():
    prof = profile("weierstrass", d=1.0, alpha=1.0)
    tau = half_period(1.0)
    assert not prof.exact
    assert prof.in_domain((0.5 * tau, 0, 0, 0))
    assert not prof.in_domain((2 * tau, 0, 0, 0))
    assert prof.singular_distance((0.25 * tau, 1, 2, 3)) == pytest.approx(0.25 * tau)


def test_weierstrass_value_and_fd_jets():
    alpha = 1.3
    prof = profile("weierstrass", d=1.0, alpha=alpha)
    tau = half_period(1.0)
    x = (0.8 * tau, 0.0, 0.0, 0.0)
    u, _ = weierstrass_p(x[0], 1.0)
    assert _at(prof, x)[jet_sym()] == pytest.approx(0.5 * math.log(alpha * alpha * u))
    _fd_jet_check(prof, x, coords=(1,), tol=5e-7)
    jets = _at(prof, x)
    assert jets[jet_sym(2)] == 0.0 and jets[jet_sym(2, 3)] == 0.0


# ---------------------------------------------------------------------------
# constant

def test_constant_profile():
    prof = profile("constant", f0=0.25)
    assert _at(prof, (9.0, 9.0, 9.0, 9.0))[jet_sym()] == pytest.approx(0.25)
    jets = _at(prof, (0, 0, 0, 0))
    assert all(v == 0.0 for k, v in jets.items() if k != jet_sym())
    assert prof.singular_distance((0, 0, 0, 0)) == math.inf
    with pytest.raises(BadParams):
        _exact_at(prof, (0, 0, 0, 0))


def test_constant_profile_keeps_a_tiny_e2f():
    prof = profile("constant", f0=-200)
    assert _at(prof, (0, 0, 0, 0))[jet_sym()] == pytest.approx(-200.0)
    assert all(v == 0.0 for k, v in _at(prof, (0, 0, 0, 0)).items() if k != jet_sym())


# ---------------------------------------------------------------------------
# exact jets against an independent oracle, and their cost

_JET_INDICES = (
    [(i,) for i in range(1, 5)]
    + [(i, j) for i in range(1, 5) for j in range(i, 5)]
    + [(i, j, k) for i in range(1, 5) for j in range(i, 5) for k in range(j, 5)]
)


@functools.lru_cache(maxsize=None)
def _sympy_oracle():
    """Sympy's g and its derivatives of (1/2) log g up to order three, per exact profile."""
    sp = pytest.importorskip("sympy")
    x, x0 = sp.symbols("x1:5"), sp.symbols("z1:5")  # z: the center
    absA2, c = sp.symbols("absA2 c", positive=True)
    gs = {
        "ball": absA2 / 4 * (1 - sum(v ** 2 for v in x)),
        "fundamental": c / sum((x[i] - x0[i]) ** 2 for i in range(4)),
    }
    oracle = {}
    for name, g in gs.items():
        d = {(): sp.expand_log(sp.log(g), force=True) / 2}  # valid on the domain, where g > 0
        for idx in _JET_INDICES:  # each jet from the one an index below it
            d[idx] = sp.diff(d[idx[:-1]], x[idx[-1] - 1])
        del d[()]
        oracle[name] = (g, d)
    return x, x0, absA2, c, oracle


_coord = st.builds(Fraction, st.integers(-30, 30), st.integers(1, 12))
_ball_coord = st.builds(lambda n, d: Fraction(n, 2 * (abs(n) + d)), st.integers(-9, 9), st.integers(1, 9))  # |x_i| < 1/2
_positive = st.builds(Fraction, st.integers(1, 60), st.integers(1, 20))


def _exact_value(expr, at: dict, memo: dict) -> Fraction:
    """A sympy expression of +, *, integer powers, rationals and symbols at {symbol: Fraction}."""
    if expr not in memo:
        if expr.is_Symbol:
            memo[expr] = at[expr]
        elif expr.is_Rational:
            memo[expr] = Fraction(int(expr.p), int(expr.q))
        elif expr.is_Pow and expr.exp.is_Integer:
            memo[expr] = _exact_value(expr.base, at, memo) ** int(expr.exp)
        elif expr.is_Add or expr.is_Mul:
            vals = [_exact_value(a, at, memo) for a in expr.args]
            memo[expr] = sum(vals) if expr.is_Add else math.prod(vals)
        else:
            raise TypeError(f"no exact evaluation for {expr!r}")
    return memo[expr]


@settings(max_examples=25, deadline=None)
@given(absA2=_positive, c=_positive, center=st.tuples(*[_coord] * 4).filter(any),
       xb=st.tuples(*[_ball_coord] * 4), xf=st.tuples(*[_coord] * 4))
def test_exact_jets_match_sympy_derivatives(absA2, c, center, xb, xf):
    assume(xf != center)
    x, x0, absA2_s, c_s, oracle = _sympy_oracle()
    for name, prof, pt in (("ball", profile("ball", absA2=absA2), xb),
                           ("fundamental", profile("fundamental", c=c, center=center), xf)):
        at = {absA2_s: absA2, c_s: c, **dict(zip(x, pt)), **dict(zip(x0, center))}
        memo: dict = {}
        g_s, d = oracle[name]
        g, D, nums = _exact_at(prof, pt)
        assert g == _exact_value(g_s, at, memo), name
        assert {sym: Fraction(n, D) for sym, n in nums.items()} == {
            jet_sym(*idx): _exact_value(e, at, memo) for idx, e in d.items()}, name


@pytest.mark.parametrize("name, params, shrink", [("ball", {"absA2": 3}, 2), ("fundamental", {"c": 1}, 1)])
def test_exact_jets_build_one_fraction_per_point(name, params, shrink):
    # g alone: every jet is an int over the point's one denominator
    prof = profile(name, **params)
    pts = [(nums, shrink * q) for nums, q in _rational_points(0)]  # the ball needs |x| < 1
    calls = count(call_counts(lambda: [prof.jets_exact(x) for x in pts]), Fraction.__new__)
    assert calls <= len(pts)


# ---------------------------------------------------------------------------
# jets on request

_ONE_OF_EACH = {
    "ball": profile("ball", absA2=Fraction(7, 3)),
    "fundamental": profile("fundamental", c=Fraction(5, 2), center=(Fraction(1, 3), 0, Fraction(-1, 4), 0)),
    "weierstrass": profile("weierstrass", d=0.8, alpha=1.3),
    "constant": profile("constant", f0=-0.4),
}
_requests = st.lists(st.sampled_from((jet_sym(), *JETS)), unique=True)  # f may be asked for too
_float_coord = st.floats(-0.45, 0.45, allow_nan=False)


@settings(max_examples=80, deadline=None)
@given(name=st.sampled_from(PROFILES), want=_requests, x=st.tuples(*[_float_coord] * 4))
def test_requested_float_jets_are_the_full_tables_bits(name, want, x):
    prof = _ONE_OF_EACH[name]
    assume(prof.in_domain(x) and prof.singular_distance(x) >= 1e-3)
    full, got = _at(prof, x), _at(prof, x, want)
    assert set(got) == {jet_sym(), *want}
    assert {sym: float.hex(v) for sym, v in got.items()} == {sym: float.hex(full[sym]) for sym in got}


@settings(max_examples=40, deadline=None)
@given(want=_requests, xb=st.tuples(*[_ball_coord] * 4), xf=st.tuples(*[_coord] * 4))
def test_requested_exact_jets_are_the_full_table_restricted(want, xb, xf):
    for name, x in (("ball", xb), ("fundamental", xf)):
        prof = _ONE_OF_EACH[name]
        if not prof.in_domain(x):
            continue
        g, D, full = _exact_at(prof, x)
        assert _exact_at(prof, x, want) == (g, D, {sym: full[sym] for sym in want if sym != jet_sym()}), name


# ---------------------------------------------------------------------------
# a float table is columns over a point set

_points = st.lists(st.tuples(*[_float_coord] * 4), min_size=1, max_size=6)


@settings(max_examples=80, deadline=None)
@given(name=st.sampled_from(PROFILES), want=_requests, pts=_points)
def test_each_profiles_columns_are_the_one_point_chain_rule_bit_for_bit(name, want, pts):
    prof = _ONE_OF_EACH[name]
    pts = [x for x in pts if prof.in_domain(x) and prof.singular_distance(x) >= 1e-3]
    table = prof.jets(pts, want)
    assert set(table) == {jet_sym(), *want} and all(len(col) == len(pts) for col in table.values())
    for p, x in enumerate(pts):
        ref = naive_forms.profile_jets_reference(prof, x)
        assert {sym: float.hex(col[p]) for sym, col in table.items()} == {sym: float.hex(ref[sym]) for sym in table}


@pytest.mark.parametrize("name, outside", [("ball", (0.6, 0.0, 0.9, 0.0)),
                                           ("fundamental", (Fraction(1, 3), 0, Fraction(-1, 4), 0)),
                                           ("weierstrass", (0.0, 0.1, 0.2, 0.3))])
def test_a_point_outside_the_domain_is_named(name, outside):
    prof = _ONE_OF_EACH[name]
    inside = [(0.1, 0.2, 0.0, -0.1), (0.3, -0.2, 0.1, 0.0)]
    with pytest.raises(BadParams, match=rf"{name}: point {re.escape(repr(outside))} outside the domain"):
        prof.jets([*inside, outside, (0.2, 0.1, 0.1, 0.1)])
    if prof.exact:
        with pytest.raises(BadParams, match=f"{name}: point .* outside the domain"):
            _exact_at(prof, outside)


@pytest.mark.parametrize("name", PROFILES)
def test_a_sweeps_points_are_tested_for_the_domain_once(name):
    # profile_points tests each point it draws, and the table of the points it gives tests
    # none again; the same points as a plain list are each tested, with the same table
    prof = _ONE_OF_EACH[name]
    drawn = count(call_counts(lambda: profile_points(prof, n=12, seed=2)), prof.in_domain)
    pts = profile_points(prof, n=12, seed=2)
    assert drawn >= len(pts) == 12
    assert count(call_counts(lambda: prof.jets(pts)), prof.in_domain) == 0
    assert count(call_counts(lambda: prof.jets(list(pts))), prof.in_domain) == len(pts)
    assert prof.jets(pts) == prof.jets(list(pts))


def test_points_admitted_by_another_profile_are_tested():
    prof, outside = _ONE_OF_EACH["ball"], (0.6, 0.0, 0.9, 0.0)
    with pytest.raises(BadParams, match="ball: point .* outside the domain"):
        prof.jets(Admitted([outside], profile("ball", absA2=3)))
