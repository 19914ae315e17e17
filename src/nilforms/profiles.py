"""Dilaton profiles f on (a subset of) R^4, with jets up to third order.

Every profile is a constant plus half a logarithm, f = f0 + (s/2) log P, so
g = e^{2f} = e^{2 f0} P^s and one chain rule (``_half_log_jets``) gives the
jets of f from those of P; f0 never enters a division.

    profile       e^{2 f0}   s    P
    ball          1          +1   g = (|A|^2/4)(1 - r^2)
    fundamental   c          -1   rho = |x - x0|^2
    weierstrass   1          +1   g = alpha^2 wp(x1)
    constant      e^{2 f0}   +1   1

A float table is columns over a point set: ``jets(points, want)`` gives
{symbol: [value at each point]}, each column built by one comprehension
over the points, with the operations and their order that the chain rule
applies at each point.  So a value does not depend on the other points of
the set or on what else is asked for.

Ball and fundamental are also exact: P is the quadratic 1 - r^2 or rho, so
one route (``_quadratic_exact``) gives their jets at a rational point,
given as integer numerators over one denominator q, and at the symbolic
point x = (x1, .., x4) of four ring constants (``jets_at_every_x``).  A
jet of order m is its numerator, an int or a ring element, over N^m for one
N, and e^{2f} is one (numerator, denominator) pair, of which ``e2f`` makes
the point's Fraction; ``ring.evaluate_exact`` reads the table.  An identity
whose numerator is the zero element at the symbolic point holds for every
x.  Weierstrass (wp is transcendental) and constant (whose e^{2 f0} is a
float) are float-only, and their ``jets_exact`` raises BadParams.  The
ball's float jets take |A|^2 and -|A|^2/2 as floats converted once, so at
float points they run on floats alone.

``jets`` and ``jets_exact`` build only the jets a caller asks for (and f,
in floats), each by the formula the full table uses, so a jet has the same
value whatever else is asked; the full table is the request for all of JETS.
"""

from __future__ import annotations

import math
from fractions import Fraction
from numbers import Rational
from typing import Callable, Sequence

from . import ring
from .elliptic import half_period, weierstrass_p
from .ring import COORDS, BadParams, jet_sym


# the sorted index tuples of order two and three
_I2 = tuple((i, j) for i in COORDS for j in COORDS if i <= j)
_I3 = tuple((i, j, k) for i in COORDS for j in COORDS for k in COORDS if i <= j <= k)
_F = jet_sym()
# every jet of f of order one to three, in table order: the full table is a request for them all
JETS = tuple(jet_sym(*idx) for idx in tuple((i,) for i in COORDS) + _I2 + _I3)


def _half_log_jets(g, gi, gij, gijk, want=JETS):
    """{jet symbol: column} of (1/2) log g for the jets in want, from the columns
    of the jets of g (keys: index tuples), one value per point.

    Each column is one comprehension over the points, with the operations of
    the one-point chain rule in its order.  A symbol of want that is not a
    jet of order one to three (f itself) is skipped.
    """
    two = [2 * v for v in g]
    two2 = [2 * (v * v) for v in g]
    g3 = [v * v * v for v in g]
    jets = {}
    for sym in want:
        idx = sym[1]
        order = len(idx)
        if order == 1:
            jets[sym] = [a / t for a, t in zip(gi[idx[0]], two)]
        elif order == 2:
            i, j = idx
            jets[sym] = [b / t - a1 * a2 / t2 for b, a1, a2, t, t2 in zip(gij[idx], gi[i], gi[j], two, two2)]
        elif order == 3:
            i, j, k = idx
            jets[sym] = [c / t - (bij * ak + bik * aj + bjk * ai) / t2 + ai * aj * ak / t3
                         for c, bij, bik, bjk, ai, aj, ak, t, t2, t3
                         in zip(gijk[idx], gij[(i, j)], gij[(i, k)], gij[(j, k)], gi[i], gi[j], gi[k], two, two2, g3)]
    return jets


def _columns(values: dict, n: int) -> dict:
    """{key: [value] * n}: the columns of jets of P that are the same at every point."""
    return {key: [v] * n for key, v in values.items()}


def over_one_denominator(x) -> tuple:
    """A point of rationals as (integer numerators, their one positive denominator), the form jets_exact reads."""
    ratios = [v.as_integer_ratio() for v in x]
    q = math.lcm(*(b for _, b in ratios))
    return tuple(a * (q // b) for a, b in ratios), q


def _quadratic_exact(point, want, p0: int, e: int, s: int, center, scale):
    """((a, b), N, {jet symbol: numerator}) at x = (coordinates, denominator) for g = scale * P^s, where
    P = p0 + e|x - center|^2 (e = +-1) and scale is a (numerator, denominator) pair: e^{2f} is a/b,
    and each jet in want of order m is its numerator over N^m.  The coordinates are ints (the
    numerators of a rational point) or ring elements (a symbolic point), and so are N, a, b and the
    numerators; a point of numbers where P is not positive gives None.  A symbol of want that is not a
    jet of order one to three is skipped.

    Over a common denominator, x - center = n/q and P = N/q^2 with n_i and N ints or elements;
    as P_i = 2e n_i/q and P_ij = 2e delta_ij, the jets of f are

        f_i   = s e q n_i / N
        f_ij  = s q^2 (e delta_ij N - 2 n_i n_j) / N^2
        f_ijk = s q^3 (8 e n_i n_j n_k - 2 (delta_ij n_k + delta_ik n_j + delta_jk n_i) N) / N^3

    N does not depend on want, so a jet's numerator is the same whatever else is asked.
    """
    xs, d = point
    q = math.lcm(d, *(cd for _, cd in center))
    n = {i: a * (q // d) - cn * (q // cd) for i, a, (cn, cd) in zip(COORDS, xs, center)}
    N = p0 * q * q + e * sum(v * v for v in n.values())
    if not isinstance(N, ring.CoefExpr) and N <= 0:  # a number: the domain test
        return None
    sn, sd = scale
    g = (sn * N, sd * q * q) if s > 0 else (sn * q * q, sd * N)
    c1, c2, c3 = s * e * q, s * q * q, s * q * q * q
    jets = {}
    for sym in want:
        idx = sym[1]
        order = len(idx)
        if order == 1:
            jets[sym] = c1 * n[idx[0]]
        elif order == 2:
            i, j = idx
            jets[sym] = c2 * ((e * N if i == j else 0) - 2 * n[i] * n[j])
        elif order == 3:
            i, j, k = idx
            dn = (n[k] if i == j else 0) + (n[j] if i == k else 0) + (n[i] if j == k else 0)
            jets[sym] = c3 * (8 * e * n[i] * n[j] * n[k] - 2 * dn * N)
    return g, N, jets


# name -> (p0, e, s) of the exact profiles: P = p0 + e|x - center|^2 and g = e^{2 f0} P^s
_QUADRATIC = {"ball": (1, -1, 1), "fundamental": (0, 1, -1)}
_ORIGIN = ((0, 1),) * 4


def jets_at_every_x(name: str, scale, want=JETS) -> tuple:
    """_quadratic_exact of the ball or the fundamental profile, centred at the origin with e^{2 f0} = scale
    (a ring element), at the symbolic point x = (x1, .., x4): four ring constants over q = 1.

    Every entry of ((a, b), N, {jet symbol: numerator}) is a ring element, so an element whose
    ring.evaluate_exact numerator on this table is zero vanishes for every x and every value of
    the symbols of scale.
    """
    x = tuple(ring.const(f"x{i}") for i in COORDS)
    return _quadratic_exact((x, 1), want, *_QUADRATIC[name], _ORIGIN, (scale, 1))


class Admitted(tuple):
    """Points each of which profile.in_domain admitted as it was drawn (numeric.profile_points),
    so that profile's jets reads them without testing the domain again."""

    def __new__(cls, points, profile):
        out = super().__new__(cls, points)
        out.profile = profile
        return out


class DilatonProfile:
    """A dilaton f = f0 + (s/2) log P on (a subset of) R^4, with e^{2 f0} = scale."""

    def __init__(self, name: str, params: dict, pjets: Callable, in_domain: Callable,
                 singular_distance: Callable, *, scale=1, s: int = 1, exact_jets: Callable | None = None):
        self.name = name
        self.params = dict(params)
        self._pjets = pjets  # points -> the columns (P, {i: P_i}, {ij: P_ij}, {ijk: P_ijk}) of P's jets
        self.in_domain = in_domain
        self.singular_distance = singular_distance  # from x to the singular set (inf if empty)
        self._scale = scale
        self._s = s
        self._exact_jets = exact_jets  # (rational point, wanted jets) -> ((a, b), N, numerators), or None outside the domain
        self.exact = exact_jets is not None

    def _jets_of_p(self, points):
        if getattr(points, "profile", None) is not self:  # an Admitted of self was tested as it was drawn
            for x in points:
                if not self.in_domain(x):
                    raise BadParams(f"{self.name}: point {x!r} outside the domain")
        return self._pjets(points)

    def e2f(self, x: Sequence[float]):
        """e^{2f}(x); exact, from the exact jets, at a rational x when the profile is exact."""
        if self.exact and all(isinstance(v, Rational) for v in x):
            return Fraction(*self.jets_exact(over_one_denominator(x), ())[0])
        P = self._jets_of_p((x,))[0][0]
        return self._scale * P if self._s > 0 else self._scale / P

    def jets(self, points: Sequence[Sequence[float]], want=JETS) -> dict:
        """{symbol: [value at each of points]} for f and the jets in want (by
        default every derivative up to order three): a float table of columns.

        Each value is the one-point chain rule's at its point, whatever else
        is asked and whatever the other points are.  A point outside the
        domain raises BadParams naming it; the points of an Admitted of this
        profile passed that test when they were drawn and are not tested again.
        """
        P, Pi, Pij, Pijk = self._jets_of_p(points)
        half_log_scale, half_s = 0.5 * math.log(self._scale), 0.5 * self._s
        out = {_F: [half_log_scale + half_s * math.log(p) for p in P]}
        jets = _half_log_jets(P, Pi, Pij, Pijk, want)
        if self._s < 0 or not all(type(p) is float for p in P):  # float() is the identity on a float P's jets
            jets = {sym: [float(v) if self._s > 0 else -float(v) for v in col] for sym, col in jets.items()}
        out.update(jets)
        return out

    def jets_exact(self, point: tuple, want=JETS) -> tuple[tuple, int, dict]:
        """((a, b), N, {jet symbol: int}) with exact arithmetic at a rational point
        (integer numerators, one positive denominator; over_one_denominator
        gives it): e^{2f} is a/b and each jet in want of order m is its int
        over N^m, which want does not change; f itself is omitted."""
        if not self.exact:
            raise BadParams(f"{self.name}: no exact jet evaluation")
        out = self._exact_jets(point, want)
        if out is None:
            nums, q = point
            raise BadParams(f"{self.name}: point {tuple(Fraction(n, q) for n in nums)!r} outside the domain")
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

    # P_ij and P_ijk do not depend on x; in the domain g is a positive float, so 0.0 is 0 * g
    gij = {(i, j): (fhess if i == j else 0.0) for (i, j) in _I2}

    def gjets(xs):
        n = len(xs)
        g = [(fabsA2 * (1 - sum((a * a, b * b, c * c, d * d)))) / 4 for a, b, c, d in xs]
        gi = {i: [-(fabsA2 * x[i - 1]) / 2 for x in xs] for i in COORDS}
        return g, gi, _columns(gij, n), _columns(_ZERO3_FLOAT, n)

    def in_domain(x):
        a, b, c, d = x
        return sum((a * a, b * b, c * c, d * d)) < 1

    def singular_distance(x):
        a, b, c, d = map(float, x)
        return 1.0 - math.sqrt(sum((a ** 2, b ** 2, c ** 2, d ** 2)))

    quarter = absA2 / 4  # exactly: g = (|A|^2/4) P with P = 1 - r^2
    return DilatonProfile("ball", {"absA2": absA2}, gjets, in_domain, singular_distance, exact_jets=lambda x, want:
                          _quadratic_exact(x, want, *_QUADRATIC["ball"], _ORIGIN, quarter.as_integer_ratio()))


_HESS_RHO = {idx: 2 * (idx[0] == idx[1]) for idx in _I2}
_ZERO3 = {idx: 0 for idx in _I3}
_ZERO3_FLOAT = {idx: 0.0 for idx in _I3}


def _fundamental(alphaP=None, c=None, center=(0, 0, 0, 0)) -> DilatonProfile:
    if alphaP is not None and c is not None:
        raise BadParams("fundamental: give alphaP or c, not both")
    if c is None:
        if alphaP is None:
            raise BadParams("fundamental: give alphaP (with c = 3 alphaP) or c directly")
        if alphaP <= 0:
            raise BadParams("fundamental: alphaP must be positive")
        c = 3 * alphaP  # the constant for which the anomaly residual vanishes
    if c <= 0:
        raise BadParams("fundamental: c must be positive")
    try:
        four = len(center) == 4
    except TypeError:  # a number, not coordinates
        four = False
    if not four:
        raise BadParams("fundamental: center must have four coordinates")
    # an int or float is kept as given (x - 0 and x - Fraction(0) are the same float); other rationals become Fractions
    c = c if isinstance(c, (int, float)) else Fraction(c)
    cent = tuple(e if isinstance(e, (int, float)) else Fraction(e) for e in center)
    cent_q = tuple(e.as_integer_ratio() for e in cent)

    def rhojets(xs):
        ys = [[x[i] - cent[i] for i in range(4)] for x in xs]
        rho = [sum(v * v for v in y) for y in ys]
        n = len(xs)
        return rho, {i: [2 * y[i - 1] for y in ys] for i in COORDS}, _columns(_HESS_RHO, n), _columns(_ZERO3, n)

    def in_domain(x):
        return any(x[i] != cent[i] for i in range(4))

    def singular_distance(x):
        return math.sqrt(sum((float(x[i]) - float(cent[i])) ** 2 for i in range(4)))

    return DilatonProfile("fundamental", {"c": c, "center": cent}, rhojets, in_domain, singular_distance,
                          scale=c, s=-1, exact_jets=lambda x, want:
                          _quadratic_exact(x, want, *_QUADRATIC["fundamental"], cent_q, c.as_integer_ratio()))


def _weierstrass(d, alpha) -> DilatonProfile:
    d = float(d)
    alpha = float(alpha)
    if d <= 0:
        raise BadParams("weierstrass: d must be positive")
    if alpha == 0:
        raise BadParams("weierstrass: alpha must be nonzero")
    a2 = alpha * alpha
    tau = half_period(d)

    def gjets(xs):
        _, gi, gij, gijk = _unit_jets(xs)
        wps = [weierstrass_p(float(x[0]), d) for x in xs]
        gi[1] = [a2 * up for _, up in wps]
        gij[(1, 1)] = [a2 * (6.0 * u * u - 2.0 * d * d) for u, _ in wps]
        gijk[(1, 1, 1)] = [a2 * 12.0 * u * up for u, up in wps]
        return [a2 * u for u, _ in wps], gi, gij, gijk

    def singular_distance(x):
        period = 2.0 * tau
        z = float(x[0]) % period
        return min(z, period - z)

    # refuse parameters whose jets leave the floats: probe next to the pole cut and at the half period
    for x1 in (2e-6 * tau, tau):
        try:
            g, *rest = gjets([(x1, 0.0, 0.0, 0.0)])
            finite = g[0] > 0 and all(map(math.isfinite, [*g, *(col[0] for col in _half_log_jets(g, *rest).values())]))
        except ArithmeticError:  # a division by an underflowed power
            finite = False
        if not finite:
            raise BadParams(f"weierstrass: d={d!r}, alpha={alpha!r} give jets outside the float range")
    return DilatonProfile("weierstrass", {"d": d, "alpha": alpha}, gjets,
                          lambda x: singular_distance(x) > 1e-6 * tau, singular_distance)


def _unit_jets(xs):
    """The columns of the jets of P = 1 at xs."""
    n = len(xs)
    zeros = dict.fromkeys(COORDS, 0.0), dict.fromkeys(_I2, 0.0), _ZERO3_FLOAT
    return [1.0] * n, *(_columns(z, n) for z in zeros)


def _constant(f0) -> DilatonProfile:
    f0f = float(f0)
    try:
        g0 = math.exp(2.0 * f0f)
    except OverflowError:
        raise BadParams(f"constant: e^(2 f0) overflows a float at f0={f0f!r}") from None
    if g0 == 0.0:  # f = (1/2) log e^{2 f0} needs a positive float
        raise BadParams(f"constant: e^(2 f0) underflows a float at f0={f0f!r}")
    return DilatonProfile("constant", {"f0": f0f}, _unit_jets, lambda x: True, lambda x: math.inf,
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
