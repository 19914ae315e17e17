"""Real slice of the Weierstrass elliptic function for g2 = 4 d^2, g3 = 0.

The cubic is 4u^3 - 4 d^2 u = 4 u (u - d)(u + d) with roots (d, 0, -d);
the real slice through the positive root has half period

    tau+ = integral_d^infinity du / sqrt(4u^3 - 4 d^2 u) = Gamma(1/4)^2 / (4 sqrt(2 pi d)),

and p(tau+) = d.  Evaluation folds the argument into (0, 2 tau+] by
periodicity and evenness, runs the Laurent series inside |z| <= tau+/4,
and applies at most two duplication steps.
"""

from __future__ import annotations

import math


class AtPole(Exception):
    """Raised when the evaluation point is too close to a lattice pole."""


_SERIES_KMAX = 8          # Laurent terms up to z^(2k-2) = z^14
_SERIES_RADIUS = 0.25     # fraction of tau+ where the series is trusted
_POLE_TOL = 1e-9          # fraction of tau+ treated as "at the pole"

_GAMMA_QUARTER_SQ = math.gamma(0.25) ** 2
_last_coefs: dict[float, tuple[float, ...]] = {}  # the coefficients of the last d only: a report uses one d


def half_period(d: float) -> float:
    """tau+ from the lemniscatic closed form Gamma(1/4)^2 / (4 sqrt(2 pi d))."""
    d = float(d)
    if d <= 0:
        raise ValueError("half_period needs d > 0")
    return _GAMMA_QUARTER_SQ / (4.0 * math.sqrt(2.0 * math.pi * d))


def half_period_agm(d: float) -> float:
    """Closed form tau+ = K(1/sqrt 2)/sqrt(2 d) with K from the AGM."""
    a, b = 1.0, math.sqrt(0.5)
    for _ in range(32):
        if a == b:
            break
        a, b = 0.5 * (a + b), math.sqrt(a * b)
    K = math.pi / (2.0 * a)
    return K / math.sqrt(2.0 * float(d))


def laurent_coefficients(d: float) -> tuple[float, ...]:
    """c_k for p(z) = z^-2 + sum_{k>=2} c_k z^{2k-2} (index = position k), k <= _SERIES_KMAX.

    The tuple is the one kept for the last d, so no caller can edit a later p at that d.
    """
    d = float(d)
    if d in _last_coefs:
        return _last_coefs[d]
    g2 = 4.0 * d * d
    c = [0.0] * (_SERIES_KMAX + 1)
    c[2] = g2 / 20.0  # c[3] stays 0: g3 = 0
    for k in range(4, _SERIES_KMAX + 1):
        s = sum(c[m] * c[k - m] for m in range(2, k - 1))
        c[k] = 3.0 * s / ((2 * k + 1) * (k - 3))
    _last_coefs.clear()
    _last_coefs[d] = c = tuple(c)
    return c


def _series(z: float, d: float) -> tuple[float, float]:
    c = laurent_coefficients(d)
    z2 = z * z
    p = 1.0 / z2
    pp = -2.0 / (z2 * z)
    zpow = z2  # z^{2k-2} starting at k = 2
    for k in range(2, len(c)):
        p += c[k] * zpow
        pp += (2 * k - 2) * c[k] * zpow / z
        zpow *= z2
    return p, pp


def _duplicate(p: float, pp: float, g2: float) -> tuple[float, float]:
    ppp = 6.0 * p * p - 0.5 * g2          # p'' = 6 p^2 - g2/2
    q = ppp / (2.0 * pp)
    p2 = q * q - 2.0 * p
    qprime = (12.0 * p * pp * pp - ppp * ppp) / (2.0 * pp * pp)  # p''' = 12 p p'
    pp2 = q * qprime - pp
    return p2, pp2


def weierstrass_p(x: float, d: float) -> tuple[float, float]:
    """(p(x), p'(x)) on the real slice; raises AtPole near lattice points."""
    d = float(d)
    tau = half_period(d)
    period = 2.0 * tau
    z = x - period * math.floor(x / period)
    sign = 1.0
    if z > tau:  # evenness: p(2 tau - z) = p(z), p' flips
        z = period - z
        sign = -1.0
    if z < _POLE_TOL * tau:
        raise AtPole(f"x = {x!r} is within {_POLE_TOL} tau of a pole")
    n = 0
    while z > _SERIES_RADIUS * tau:
        z *= 0.5
        n += 1
    p, pp = _series(z, d)
    g2 = 4.0 * d * d
    for _ in range(n):
        p, pp = _duplicate(p, pp, g2)
    return p, sign * pp


def cubic_residual(x, d: float) -> float:
    """p'^2 - (4 p^3 - 4 d^2 p) at x, relative to the cubic's size.

    x is a point of the real slice, or the pair (p, p') that weierstrass_p
    gives at one, so a caller that holds the pair does not evaluate p again.
    """
    p, pp = x if isinstance(x, tuple) else weierstrass_p(x, d)
    lhs = pp * pp
    rhs = 4.0 * p ** 3 - 4.0 * d * d * p
    scale = max(abs(lhs), abs(rhs), 1.0)
    return (lhs - rhs) / scale
