"""Tests for the dilaton profiles and their jet chain rule."""
from __future__ import annotations

import math
from fractions import Fraction

import pytest

from nilforms import ring
from nilforms.anomaly import lap_e2f
from nilforms.elliptic import half_period, weierstrass_p
from nilforms.profiles import PROFILES, BadParams, profile
from nilforms.ring import jet_sym


def _fd_jet_check(prof, x, coords=(1, 2, 3, 4), step=1e-5, tol=5e-8):
    """First/second/third jets against central differences of lower jets."""
    base = prof.jets(x)
    for i in coords:
        xp = tuple(c + (step if k == i - 1 else 0.0) for k, c in enumerate(x))
        xm = tuple(c - (step if k == i - 1 else 0.0) for k, c in enumerate(x))
        up, um = prof.jets(xp), prof.jets(xm)
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
        g, jets = prof.jets_exact(x)
        val = ring.evaluate_exact(lap_e2f(), jets, g)
        assert val + 2 * Fraction(3) == 0


def test_ball_fd_jets():
    _fd_jet_check(profile("ball", absA2=3), (0.21, -0.1, 0.05, 0.3))


# ---------------------------------------------------------------------------
# fundamental

def test_fundamental_defaults_and_guards():
    prof = profile("fundamental", alphaP=2)
    assert prof.params["c"] == Fraction(6)
    assert profile("fundamental", c=5).params["c"] == Fraction(5)
    for bad in (dict(alphaP=0), dict(c=0), dict(c=1, center=(0, 0, 0)), dict()):
        with pytest.raises(BadParams):
            profile("fundamental", **bad)


def test_fundamental_is_exactly_harmonic():
    prof = profile("fundamental", c=5, center=(1, 0, 0, 0))
    for x in ((Fraction(1, 3), Fraction(1, 2), 0, Fraction(-2, 5)), (0, 1, 1, 0)):
        g, jets = prof.jets_exact(x)
        assert ring.evaluate_exact(lap_e2f(), jets, g) == 0


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
    assert prof.value(x) == pytest.approx(0.5 * math.log(alpha * alpha * u))
    _fd_jet_check(prof, x, coords=(1,), tol=5e-7)
    jets = prof.jets(x)
    assert jets[jet_sym(2)] == 0.0 and jets[jet_sym(2, 3)] == 0.0


# ---------------------------------------------------------------------------
# constant

def test_constant_profile():
    prof = profile("constant", f0=0.25)
    assert prof.value((9.0, 9.0, 9.0, 9.0)) == pytest.approx(0.25)
    jets = prof.jets((0, 0, 0, 0))
    assert all(v == 0.0 for k, v in jets.items() if k != jet_sym())
    assert prof.singular_distance((0, 0, 0, 0)) == math.inf
    with pytest.raises(BadParams):
        prof.jets_exact((0, 0, 0, 0))
