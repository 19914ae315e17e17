"""Dilaton profiles f on (a subset of) R^4, with jets up to third order.

Every profile is a constant plus half a logarithm, f = f0 + (s/2) log P, so
g = e^{2f} = e^{2 f0} P^s and one chain rule (``_half_log_jets``) gives the
jets of f from those of P; f0 never enters a division.

    profile       e^{2 f0}   s    P
    ball          1          +1   g = (|A|^2/4)(1 - r^2)
    fundamental   c          -1   rho = |x - x0|^2
    weierstrass   1          +1   g = alpha^2 wp(x1)
    constant      e^{2 f0}   +1   1

Ball and fundamental are also exact: P is the quadratic 1 - r^2 or rho, so
at a rational point every jet is an integer over a power of an integer
(``_quadratic_exact``), one Fraction per jet, and ``e2f`` there is read from
these exact jets.  Weierstrass (wp is transcendental) and constant (whose
e^{2 f0} is a float) are float-only, and their ``jets_exact`` raises
BadParams.  The ball's float jets take |A|^2 and -|A|^2/2 as floats converted
once, so at a float point they run on floats alone.
"""

from __future__ import annotations

import math
from fractions import Fraction
from numbers import Rational
from typing import Callable, Sequence

from .elliptic import half_period, weierstrass_p
from .ring import COORDS, jet_sym


class BadParams(Exception):
    """Raised for malformed or out-of-range profile parameters."""


# (index tuple, jet symbol) for the jets of order one, two and three, built once
_J1 = tuple(((i,), jet_sym(i)) for i in COORDS)
_J2 = tuple(((i, j), jet_sym(i, j)) for i in COORDS for j in COORDS if i <= j)
_J3 = tuple(((i, j, k), jet_sym(i, j, k)) for i in COORDS for j in COORDS for k in COORDS if i <= j <= k)
_F = jet_sym()


def _half_log_jets(g, gi, gij, gijk):
    """{jet symbol: value} of (1/2) log g from the jets of g (keys: index tuples)."""
    jets = {}
    g2 = g * g
    g3 = g2 * g
    for (i,), sym in _J1:
        jets[sym] = gi[i] / (2 * g)
    for (i, j), sym in _J2:
        jets[sym] = gij[(i, j)] / (2 * g) - gi[i] * gi[j] / (2 * g2)
    for (i, j, k), sym in _J3:
        s = gij[(i, j)] * gi[k] + gij[(i, k)] * gi[j] + gij[(j, k)] * gi[i]
        jets[sym] = gijk[(i, j, k)] / (2 * g) - s / (2 * g2) + gi[i] * gi[j] * gi[k] / g3
    return jets


def _quadratic_exact(x, p0: int, e: int, s: int, center, scale):
    """(g, {jet symbol: Fraction}) at a rational x for g = scale * P^s, where
    P = p0 + e|x - center|^2 (e = +-1) must be positive, else None.

    Over a common denominator, x - center = n/q and P = N/q^2 with integers n_i
    and N; as P_i = 2e n_i/q and P_ij = 2e delta_ij, the jets of f are

        f_i   = s e q n_i / N
        f_ij  = s q^2 (e delta_ij N - 2 n_i n_j) / N^2
        f_ijk = s q^3 (8 e n_i n_j n_k - 2 (delta_ij n_k + delta_ik n_j + delta_jk n_i) N) / N^3
    """
    ratios = [v.as_integer_ratio() for v in x]
    q = math.lcm(*(b for _, b in ratios), *(cd for _, cd in center))
    n = {i: a * (q // b) - cn * (q // cd) for i, (a, b), (cn, cd) in zip(COORDS, ratios, center)}
    N = p0 * q * q + e * sum(v * v for v in n.values())
    if N <= 0:
        return None
    sn, sd = scale.as_integer_ratio()
    g = Fraction(sn * N, sd * q * q) if s > 0 else Fraction(sn * q * q, sd * N)
    c1, c2, c3 = s * e * q, s * q * q, s * q * q * q
    N2, N3 = N * N, N ** 3
    jets = {sym: Fraction(c1 * n[i], N) for (i,), sym in _J1}
    for (i, j), sym in _J2:
        jets[sym] = Fraction(c2 * ((e * N if i == j else 0) - 2 * n[i] * n[j]), N2)
    for (i, j, k), sym in _J3:
        dn = (n[k] if i == j else 0) + (n[j] if i == k else 0) + (n[i] if j == k else 0)
        jets[sym] = Fraction(c3 * (8 * e * n[i] * n[j] * n[k] - 2 * dn * N), N3)
    return g, jets


class DilatonProfile:
    """A dilaton f = f0 + (s/2) log P on (a subset of) R^4, with e^{2 f0} = scale."""

    def __init__(self, name: str, params: dict, pjets: Callable, in_domain: Callable,
                 singular_distance: Callable, *, scale=1, s: int = 1, exact_jets: Callable | None = None):
        self.name = name
        self.params = dict(params)
        self._pjets = pjets  # x -> the jets (P, P_i, P_ij, P_ijk) of P
        self.in_domain = in_domain
        self.singular_distance = singular_distance  # from x to the singular set (inf if empty)
        self._scale = scale
        self._s = s
        self._exact_jets = exact_jets  # rational x -> (g, jets), or None outside the domain
        self.exact = exact_jets is not None

    def _jets_of_p(self, x):
        if not self.in_domain(x):
            raise BadParams(f"{self.name}: point {x!r} outside the domain")
        return self._pjets(x)

    def _f(self, P) -> float:
        return 0.5 * math.log(self._scale) + 0.5 * self._s * math.log(P)

    def e2f(self, x: Sequence[float]):
        """e^{2f}(x); exact, from the exact jets, at a rational x when the profile is exact."""
        if self.exact and all(isinstance(v, Rational) for v in x):
            return self.jets_exact(x)[0]
        P = self._jets_of_p(x)[0]
        return self._scale * P if self._s > 0 else self._scale / P

    def value(self, x: Sequence[float]) -> float:
        """f(x)."""
        return self._f(self._jets_of_p(x)[0])

    def jets(self, x: Sequence[float]) -> dict:
        """{jet symbol: value} for f and its derivatives up to order three."""
        P, Pi, Pij, Pijk = self._jets_of_p(x)
        out = {_F: self._f(P)}
        for sym, val in _half_log_jets(P, Pi, Pij, Pijk).items():
            out[sym] = float(val) if self._s > 0 else -float(val)
        return out

    def jets_exact(self, x: Sequence[Fraction]) -> tuple[Fraction, dict]:
        """(g, {jet symbol: Fraction}) with exact arithmetic; f itself is omitted."""
        if not self.exact:
            raise BadParams(f"{self.name}: no exact jet evaluation")
        out = self._exact_jets(x)
        if out is None:
            raise BadParams(f"{self.name}: point {x!r} outside the domain")
        return out


def _ball(absA2) -> DilatonProfile:
    if absA2 <= 0:
        raise BadParams("ball: absA2 must be positive")
    absA2 = Fraction(absA2) if not isinstance(absA2, float) else absA2
    # A Fraction meets a float by turning itself into one, so the float jets
    # take these constants once and keep every operand and result bit for bit.
    try:
        fabsA2, fhess = float(absA2), float(-absA2 / 2)
    except OverflowError:  # beyond the floats: the float jets raise where they meet it, the exact ones stay
        fabsA2, fhess = absA2, -absA2 / 2

    def gjets(x):
        r2 = sum(c * c for c in x)
        g = (fabsA2 * (1 - r2)) / 4
        gi = {i: -(fabsA2 * x[i - 1]) / 2 for i in COORDS}
        gij = {(i, j): (fhess if i == j else 0 * g) for (i, j), _ in _J2}
        gijk = {idx: 0 * g for idx, _ in _J3}
        return g, gi, gij, gijk

    def in_domain(x):
        return sum(c * c for c in x) < 1

    def singular_distance(x):
        return 1.0 - math.sqrt(sum(float(c) ** 2 for c in x))

    quarter = absA2 / 4  # exactly: g = (|A|^2/4) P with P = 1 - r^2
    return DilatonProfile("ball", {"absA2": absA2}, gjets, in_domain, singular_distance,
                          exact_jets=lambda x: _quadratic_exact(x, 1, -1, 1, ((0, 1),) * 4, quarter))


_HESS_RHO = {idx: 2 * (idx[0] == idx[1]) for idx, _ in _J2}
_ZERO3 = {idx: 0 for idx, _ in _J3}


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
    cent_q = tuple(e.as_integer_ratio() for e in cent)

    def rhojets(x):
        y = [x[i] - cent[i] for i in range(4)]
        return sum(v * v for v in y), {i: 2 * y[i - 1] for i in COORDS}, _HESS_RHO, _ZERO3

    def in_domain(x):
        return any(x[i] != cent[i] for i in range(4))

    def singular_distance(x):
        return math.sqrt(sum((float(x[i]) - float(cent[i])) ** 2 for i in range(4)))

    return DilatonProfile("fundamental", {"c": c, "center": cent}, rhojets, in_domain, singular_distance,
                          scale=c, s=-1, exact_jets=lambda x: _quadratic_exact(x, 0, 1, -1, cent_q, c))


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
        gij = {idx: 0.0 for idx, _ in _J2}
        gij[(1, 1)] = a2 * (6.0 * u * u - 2.0 * d * d)
        gijk = {idx: 0.0 for idx, _ in _J3}
        gijk[(1, 1, 1)] = a2 * 12.0 * u * up
        return g, gi, gij, gijk

    def singular_distance(x):
        period = 2.0 * tau
        z = float(x[0]) % period
        return min(z, period - z)

    # refuse parameters whose jets leave the floats: probe next to the pole cut and at the half period
    for x1 in (2e-6 * tau, tau):
        try:
            g, *rest = gjets((x1, 0.0, 0.0, 0.0))
            finite = g > 0 and all(map(math.isfinite, [g, *_half_log_jets(g, *rest).values()]))
        except ArithmeticError:  # a division by an underflowed power
            finite = False
        if not finite:
            raise BadParams(f"weierstrass: d={d!r}, alpha={alpha!r} give jets outside the float range")
    return DilatonProfile("weierstrass", {"d": d, "alpha": alpha}, gjets,
                          lambda x: singular_distance(x) > 1e-6 * tau, singular_distance)


_ONE_JETS = (1.0, {i: 0.0 for i in COORDS}, {idx: 0.0 for idx, _ in _J2}, {idx: 0.0 for idx, _ in _J3})


def _constant(f0) -> DilatonProfile:
    f0f = float(f0)
    try:
        g0 = math.exp(2.0 * f0f)
    except OverflowError:
        raise BadParams(f"constant: e^(2 f0) overflows a float at f0={f0f!r}") from None
    if g0 == 0.0:  # f = (1/2) log e^{2 f0} needs a positive float
        raise BadParams(f"constant: e^(2 f0) underflows a float at f0={f0f!r}")
    return DilatonProfile("constant", {"f0": f0f}, lambda x: _ONE_JETS, lambda x: True, lambda x: math.inf,
                          scale=g0)


_BUILDERS = {"ball": _ball, "fundamental": _fundamental, "weierstrass": _weierstrass, "constant": _constant}
PROFILES = tuple(_BUILDERS)


def profile(name: str, **params) -> DilatonProfile:
    """Build a dilaton profile from the catalogue by name.

    A parameter the builder does not take, or a missing one, raises
    BadParams naming it.
    """
    if name not in _BUILDERS:
        raise BadParams(f"unknown profile {name!r}; choose from {PROFILES}")
    build = _BUILDERS[name]
    code = build.__code__  # the builders take plain positional-or-keyword parameters
    takes = code.co_varnames[:code.co_argcount]
    for key in params:
        if key not in takes:
            raise BadParams(f"{name}: unknown parameter {key!r} (takes {', '.join(takes)})")
    for key in takes[:len(takes) - len(build.__defaults__ or ())]:
        if key not in params:
            raise BadParams(f"{name}: missing parameter {key!r}")
    try:
        return build(**params)
    except (TypeError, KeyError) as exc:
        raise BadParams(f"{name}: {exc}") from exc
