"""Radial/one-variable dilaton profiles with jets up to third order.

Each profile describes f through g = e^{2f}; the jets of f follow from the
chain rule

    f_i   = g_i/(2g)
    f_ij  = g_ij/(2g) - g_i g_j/(2 g^2)
    f_ijk = g_ijk/(2g) - (g_ij g_k + g_ik g_j + g_jk g_i)/(2 g^2)
            + g_i g_j g_k / g^3.

The "ball" and "fundamental" profiles have rational g-jets, so they can
also be evaluated exactly over Fraction coordinates; "weierstrass" and
"constant" (whose g = e^{2 f0} is a float) are float-only, and their
``jets_exact`` raises BadParams.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable, Sequence

from .elliptic import half_period, weierstrass_p
from .ring import COORDS, jet_sym


class BadParams(Exception):
    """Raised for malformed or out-of-range profile parameters."""


def _fjets_from_g(g, gi, gij, gijk):
    """Jet dictionary of f = (1/2) log g from the jets of g (keys: index tuples)."""
    jets = {}
    g2 = g * g
    g3 = g2 * g
    for i in COORDS:
        jets[(i,)] = gi[i] / (2 * g)
    for i in COORDS:
        for j in COORDS:
            if j < i:
                continue
            jets[(i, j)] = gij[(i, j)] / (2 * g) - gi[i] * gi[j] / (2 * g2)
    for i in COORDS:
        for j in COORDS:
            for k in COORDS:
                if not (i <= j <= k):
                    continue
                s = gij[(i, j)] * gi[k] + gij[(i, k)] * gi[j] + gij[(j, k)] * gi[i]
                jets[(i, j, k)] = gijk[(i, j, k)] / (2 * g) - s / (2 * g2) + gi[i] * gi[j] * gi[k] / g3
    return jets


def _sym(i, j):
    return (i, j) if i <= j else (j, i)


class DilatonProfile:
    """A dilaton f on (a subset of) R^4 given by g = e^{2f}."""

    def __init__(self, name: str, params: dict, gjets: Callable, in_domain: Callable,
                 singular_distance: Callable, exact: bool):
        self.name = name
        self.params = dict(params)
        self._gjets = gjets
        self._in_domain = in_domain
        self._singular_distance = singular_distance
        self.exact = exact  # True when g-jets are rational in the coordinates

    def in_domain(self, x: Sequence[float]) -> bool:
        return self._in_domain(x)

    def singular_distance(self, x: Sequence[float]) -> float:
        """Distance from x to the profile's singular set (inf if empty)."""
        return self._singular_distance(x)

    def e2f(self, x: Sequence[float]):
        if not self.in_domain(x):
            raise BadParams(f"{self.name}: point {x!r} outside the domain")
        g, _gi, _gij, _gijk = self._gjets(x)
        return g

    def value(self, x: Sequence[float]) -> float:
        """f(x)."""
        return 0.5 * math.log(self.e2f(x))

    def jets(self, x: Sequence[float]) -> dict:
        """{jet symbol: value} for f and its derivatives up to order three."""
        if not self.in_domain(x):
            raise BadParams(f"{self.name}: point {x!r} outside the domain")
        g, gi, gij, gijk = self._gjets(x)
        raw = _fjets_from_g(g, gi, gij, gijk)
        out = {jet_sym(): 0.5 * math.log(float(g))}
        for idx, val in raw.items():
            out[jet_sym(*idx)] = float(val)
        return out

    def jets_exact(self, x: Sequence[Fraction]) -> tuple[Fraction, dict]:
        """(g, {jet symbol: Fraction}) with exact arithmetic; f itself is omitted."""
        if not self.exact:
            raise BadParams(f"{self.name}: no exact jet evaluation")
        xq = [Fraction(c) for c in x]
        if not self.in_domain(xq):
            raise BadParams(f"{self.name}: point {x!r} outside the domain")
        g, gi, gij, gijk = self._gjets(xq)
        raw = _fjets_from_g(g, gi, gij, gijk)
        return g, {jet_sym(*idx): val for idx, val in raw.items()}


def _ball(absA2) -> DilatonProfile:
    if absA2 <= 0:
        raise BadParams("ball: absA2 must be positive")
    absA2 = Fraction(absA2) if not isinstance(absA2, float) else absA2

    def gjets(x):
        r2 = sum(c * c for c in x)
        g = (absA2 * (1 - r2)) / 4
        gi = {i: -(absA2 * x[i - 1]) / 2 for i in COORDS}
        gij = {_sym(i, j): (-(absA2) / 2 if i == j else 0 * g) for i in COORDS for j in COORDS if i <= j}
        gijk = {(i, j, k): 0 * g for i in COORDS for j in COORDS for k in COORDS if i <= j <= k}
        return g, gi, gij, gijk

    def in_domain(x):
        return sum(c * c for c in x) < 1

    def singular_distance(x):
        return 1.0 - math.sqrt(sum(float(c) ** 2 for c in x))

    return DilatonProfile("ball", {"absA2": absA2}, gjets, in_domain, singular_distance, exact=True)


def _fundamental(alphaP=None, c=None, center=(0, 0, 0, 0)) -> DilatonProfile:
    if c is None:
        if alphaP is None:
            raise BadParams("fundamental: give alphaP (with c = 3 alphaP) or c directly")
        if alphaP <= 0:
            raise BadParams("fundamental: alphaP must be positive")
        c = 3 * alphaP  # the constant for which the anomaly residual vanishes
    if c <= 0:
        raise BadParams("fundamental: c must be positive")
    if len(center) != 4:
        raise BadParams("fundamental: center must have four coordinates")
    c = Fraction(c) if not isinstance(c, float) else c
    cent = tuple(Fraction(e) if not isinstance(e, float) else e for e in center)

    def gjets(x):
        y = [x[i] - cent[i] for i in range(4)]
        rho = sum(v * v for v in y)
        rho2, rho3, rho4 = rho ** 2, rho ** 3, rho ** 4  # once per point, not per component
        g = c / rho
        gi = {i: -2 * c * y[i - 1] / rho2 for i in COORDS}
        gij = {}
        for i in COORDS:
            for j in COORDS:
                if j < i:
                    continue
                val = 8 * c * y[i - 1] * y[j - 1] / rho3
                if i == j:
                    val = val - 2 * c / rho2
                gij[(i, j)] = val
        gijk = {}
        for i in COORDS:
            for j in COORDS:
                for k in COORDS:
                    if not (i <= j <= k):
                        continue
                    s = (
                        (y[k - 1] if i == j else 0)
                        + (y[j - 1] if i == k else 0)
                        + (y[i - 1] if j == k else 0)
                    )
                    gijk[(i, j, k)] = 8 * c * s / rho3 - 48 * c * y[i - 1] * y[j - 1] * y[k - 1] / rho4
        return g, gi, gij, gijk

    def in_domain(x):
        return any(x[i] != cent[i] for i in range(4))

    def singular_distance(x):
        return math.sqrt(sum((float(x[i]) - float(cent[i])) ** 2 for i in range(4)))

    return DilatonProfile("fundamental", {"c": c, "center": cent}, gjets, in_domain, singular_distance, exact=True)


def _weierstrass(d, alpha) -> DilatonProfile:
    d = float(d)
    alpha = float(alpha)
    if d <= 0:
        raise BadParams("weierstrass: d must be positive")
    if alpha == 0:
        raise BadParams("weierstrass: alpha must be nonzero")
    a2 = alpha * alpha
    tau = half_period(d)

    def gjets(x):
        u, up = weierstrass_p(float(x[0]), d)
        g = a2 * u
        gi = {i: 0.0 for i in COORDS}
        gi[1] = a2 * up
        gij = {_sym(i, j): 0.0 for i in COORDS for j in COORDS if i <= j}
        gij[(1, 1)] = a2 * (6.0 * u * u - 2.0 * d * d)
        gijk = {(i, j, k): 0.0 for i in COORDS for j in COORDS for k in COORDS if i <= j <= k}
        gijk[(1, 1, 1)] = a2 * 12.0 * u * up
        return g, gi, gij, gijk

    def in_domain(x):
        period = 2.0 * tau
        z = float(x[0]) % period
        return min(z, period - z) > 1e-6 * tau

    def singular_distance(x):
        period = 2.0 * tau
        z = float(x[0]) % period
        return min(z, period - z)

    # refuse parameters whose jets leave the floats: probe next to the pole cut and at the half period
    for x1 in (2e-6 * tau, tau):
        try:
            g, *rest = gjets((x1, 0.0, 0.0, 0.0))
            finite = g > 0 and all(map(math.isfinite, [g, *_fjets_from_g(g, *rest).values()]))
        except ArithmeticError:  # a division by an underflowed power
            finite = False
        if not finite:
            raise BadParams(f"weierstrass: d={d!r}, alpha={alpha!r} give jets outside the float range")
    return DilatonProfile("weierstrass", {"d": d, "alpha": alpha}, gjets, in_domain, singular_distance, exact=False)


def _constant(f0) -> DilatonProfile:
    f0f = float(f0)
    try:
        g0 = math.exp(2.0 * f0f)
    except OverflowError:
        raise BadParams(f"constant: e^(2 f0) overflows a float at f0={f0f!r}") from None
    if g0 * g0 * g0 == 0.0:  # the chain rule divides by (e^{2 f0})^3
        raise BadParams(f"constant: (e^(2 f0))^3 underflows a float at f0={f0f!r}")

    def gjets(x):
        gi = {i: 0.0 for i in COORDS}
        gij = {_sym(i, j): 0.0 for i in COORDS for j in COORDS if i <= j}
        gijk = {(i, j, k): 0.0 for i in COORDS for j in COORDS for k in COORDS if i <= j <= k}
        return g0, gi, gij, gijk

    return DilatonProfile("constant", {"f0": f0f}, gjets, lambda x: True, lambda x: math.inf, exact=False)


PROFILES = ("ball", "fundamental", "weierstrass", "constant")


def profile(name: str, **params) -> DilatonProfile:
    """Build a dilaton profile from the catalogue by name."""
    try:
        if name == "ball":
            return _ball(**params)
        if name == "fundamental":
            return _fundamental(**params)
        if name == "weierstrass":
            return _weierstrass(**params)
        if name == "constant":
            return _constant(**params)
    except (TypeError, KeyError) as exc:
        raise BadParams(f"{name}: {exc}") from exc
    raise BadParams(f"unknown profile {name!r}; choose from {PROFILES}")
