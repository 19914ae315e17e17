"""Tests for the real Weierstrass slice with cubic 4u^3 - 4 d^2 u."""
from __future__ import annotations

import math

import pytest

from nilforms import elliptic
from nilforms.elliptic import (
    AtPole,
    cubic_residual,
    half_period,
    half_period_agm,
    laurent_coefficients,
    weierstrass_p,
)

DS = (0.5, 1.0, 2.3)


def test_half_period_positive_and_scaling():
    tau1 = half_period(1.0)
    assert tau1 > 0
    for d in DS:
        assert half_period(d) == pytest.approx(tau1 / math.sqrt(d), rel=1e-12)


def test_half_period_agm_matches_quadrature():
    for d in DS:
        assert abs(half_period(d) - half_period_agm(d)) < 1e-10


def test_half_period_rejects_nonpositive():
    with pytest.raises(ValueError):
        half_period(0.0)
    with pytest.raises(ValueError):
        half_period(-1.0)


def test_cubic_residual_small_on_real_slice():
    for d in DS:
        tau = half_period(d)
        for i in range(91):
            x = (0.1 + 1.8 * i / 90) * tau
            assert abs(cubic_residual(x, d)) < 1e-9


def test_periodicity():
    for d in DS:
        tau = half_period(d)
        for x in (0.31 * tau, 0.77 * tau, 1.4 * tau):
            p, pp = weierstrass_p(x, d)
            q, qp = weierstrass_p(x + 2 * tau, d)
            assert abs(p - q) <= 1e-8 * max(1.0, abs(p))
            assert abs(pp - qp) <= 1e-8 * max(1.0, abs(pp))


def test_evenness_through_the_half_period():
    d = 1.0
    tau = half_period(d)
    for x in (0.4 * tau, 0.6 * tau, 0.9 * tau):
        p, pp = weierstrass_p(x, d)
        q, qp = weierstrass_p(2 * tau - x, d)
        assert p == pytest.approx(q, rel=1e-10, abs=1e-10)
        assert pp == pytest.approx(-qp, rel=1e-10, abs=1e-10)


def test_pole_detection():
    d = 1.0
    tau = half_period(d)
    for x in (0.0, 2 * tau, -2 * tau, 1e-12 * tau):
        with pytest.raises(AtPole):
            weierstrass_p(x, d)


def test_positive_root_at_half_period():
    for d in DS:
        tau = half_period(d)
        p, pp = weierstrass_p(tau, d)
        assert p == pytest.approx(d, abs=1e-10)
        assert abs(pp) < 1e-10


def test_laurent_coefficients():
    for d in DS:
        c = laurent_coefficients(d)
        assert c[2] == pytest.approx(d * d / 5.0, rel=1e-14)
        assert c[3] == 0.0
        assert c[4] == pytest.approx(d ** 4 / 75.0, rel=1e-12)
        assert c[5] == 0.0


def _recurrence(d: float) -> list:
    """c_k by the recurrence c_2 = g2/20, c_3 = 0, c_k = 3 sum_{m=2}^{k-2} c_m c_{k-m} / ((2k+1)(k-3))."""
    c = [0.0] * 9
    c[2] = 4.0 * d * d / 20.0
    for k in range(4, 9):
        c[k] = 3.0 * sum(c[m] * c[k - m] for m in range(2, k - 1)) / ((2 * k + 1) * (k - 3))
    return c


def test_laurent_coefficients_keep_only_the_last_d():
    for k in range(1, 201):
        d = k / 7
        got = laurent_coefficients(d)
        assert [x.hex() for x in got] == [x.hex() for x in _recurrence(d)]
        assert laurent_coefficients(d) is got  # the last d is not recomputed
        assert len(elliptic._last_coefs) <= 1


def test_the_kept_coefficients_cannot_be_edited_by_a_caller():
    d = 1.7
    before = weierstrass_p(0.3, d)
    with pytest.raises(TypeError):
        laurent_coefficients(d)[2] = 0.0
    assert weierstrass_p(0.3, d) == before


def test_d_scaling_law():
    tau1 = half_period(1.0)
    for d in (0.5, 2.3):
        tau = half_period(d)
        for x in (0.3 * tau, 0.7 * tau, 1.2 * tau):
            p, pp = weierstrass_p(x, d)
            p1, pp1 = weierstrass_p(math.sqrt(d) * x, 1.0)
            assert p == pytest.approx(d * p1, rel=1e-10)
            assert pp == pytest.approx(d ** 1.5 * pp1, rel=1e-9, abs=1e-9)


def test_laurent_series_dominates_near_zero():
    d = 1.0
    tau = half_period(d)
    for x in (0.05 * tau, 0.1 * tau, 0.2 * tau):
        p, _pp = weierstrass_p(x, d)
        assert abs(x * x * p - 1.0 - (d * d / 5.0) * x ** 4) < 0.05 * x ** 6


# ---------------------------------------------------------------------------
# independent oracle: mpmath's complete elliptic integral and Jacobi sn

ORACLE_DS = (0.01, 1.0, 100.0)


def test_half_period_matches_mpmath_ellipk():
    mp = pytest.importorskip("mpmath").mp
    with mp.workdps(30):
        for d in ORACLE_DS:
            exact = mp.ellipk(mp.mpf(1) / 2) / mp.sqrt(2 * mp.mpf(d))
            assert abs((half_period(d) - exact) / exact) <= 1e-14


def test_weierstrass_p_matches_mpmath_jacobi_sn():
    """p(x) = -d + 2d / sn^2(x sqrt(2d) | m = 1/2) on the real slice, and
    p'(x) = -4d sqrt(2d) cn dn / sn^3 there.

    p' vanishes at tau+, so its error is measured against |p'| + d^1.5, the
    scale of p' on the slice, rather than relative to p' alone.
    """
    mp = pytest.importorskip("mpmath").mp
    with mp.workdps(30):
        for d in ORACLE_DS:
            tau = half_period(d)
            dm = mp.mpf(d)
            for k in range(1, 40):
                x = 2 * tau * k / 40
                u = mp.mpf(x) * mp.sqrt(2 * dm)
                sn, cn, dn = (mp.ellipfun(kind, u, m=mp.mpf(1) / 2) for kind in ("sn", "cn", "dn"))
                exact = -dm + 2 * dm / sn ** 2
                p, pp = weierstrass_p(x, d)
                assert abs((p - exact) / exact) <= 1e-12, (d, k)
                exact_pp = -4 * dm * mp.sqrt(2 * dm) * cn * dn / sn ** 3
                assert abs(pp - exact_pp) <= 1e-10 * (abs(exact_pp) + dm ** 1.5), (d, k)
