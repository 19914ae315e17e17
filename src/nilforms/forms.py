"""Differential forms with exact coefficients on a rescaled invariant coframe.

A ``CoframeSpec`` fixes a global orthonormal coframe ``ebar^1..ebar^dim``
obtained from an invariant coframe of a 2-step nilpotent Lie group, given by
its fiber matrix A, by the conformal rescaling ``ebar^i = e^{w_i f} e^i``
with weights ``w = (1,1,1,1,0,..)``.  Forms are dictionaries mapping sorted index
tuples to ring coefficients; evaluation on frame vectors follows the
determinant convention, so ``ebar^{12}(ebar_2, ebar_1) = -1``.

Every operator that sums terms into a form (``+``, ``-``, wedge, d)
adds its terms into one raw ring accumulator per component, through
``ring._add_into``, ``_mul_into`` or ``_partial_into``, and reads each
accumulator once with ``ring._canonical``.
"""

from __future__ import annotations

from functools import cache, cached_property
from typing import Mapping

from . import ring
from .ring import CoefExpr

HORIZONTAL = (1, 2, 3, 4)


def horizontal_volume(F: FormExpr) -> CoefExpr | None:
    """c with F = c e^{-4f} ebar^{1234}, which is c dx^{1234}, or None when F has any other component."""
    if any(idx != HORIZONTAL for idx in F.comps):
        return None
    return F.comps.get(HORIZONTAL, ring.ZERO).scale_expf(4)


# The quaternionic sign conventions, written here only.  SIGMA[r] and
# OMEGA[r] give the sign of each horizontal pair in the anti-self-dual
# sigma_r and the self-dual omega_r.  PSI[k] = (sign, image) says
# psi ebar_k = sign * ebar_image (psi kills the legs it omits); it is
# compatible with F = omega_1.
SIGMA = {
    1: {(1, 2): 1, (3, 4): -1},
    2: {(1, 3): 1, (2, 4): 1},
    3: {(1, 4): 1, (2, 3): -1},
}
OMEGA = {
    1: {(1, 2): 1, (3, 4): 1},
    2: {(1, 3): 1, (2, 4): -1},
    3: {(1, 4): 1, (2, 3): 1},
}
PSI = {1: (-1, 2), 2: (1, 1), 3: (-1, 4), 4: (1, 3)}


class DimensionMismatch(Exception):
    """Raised when mixing forms from different coframes or bad index counts."""


def _perm_sign(seq: tuple) -> int:
    inv = 0
    for a in range(len(seq)):
        for b in range(a + 1, len(seq)):
            if seq[a] > seq[b]:
                inv += 1
    return -1 if inv % 2 else 1


@cache
def _merge(left: tuple, right: tuple) -> tuple | None:
    """(sorted left + right, the sign of that sort) for two sorted index tuples,
    or None when they share an index (their wedge is zero)."""
    if not set(left).isdisjoint(right):
        return None
    inv = sum(1 for a in left for b in right if a > b)
    return tuple(sorted(left + right)), -1 if inv % 2 else 1


class CoframeSpec:
    """The rescaled coframe of the fiber matrix A.

    Row r of A (at most three rows of three entries) gives
    d e^{4+r} = sum_m A[r][m] sigma_m; the horizontal legs are closed, so
    dim = 4 + len(A) and the weights are (1,1,1,1,0,..,0).  The structure
    constants ``struct`` are derived from A on first use: a frame read off
    its family (gstruct.Geometry) never reads them.
    """

    def __init__(self, A):
        if len(A) > 3 or any(len(row) != 3 for row in A):
            raise DimensionMismatch(f"the fiber matrix needs at most 3 rows of 3 entries: {A!r}")
        self.A = tuple(tuple(ring.exact(x) for x in row) for row in A)
        self.dim = 4 + len(self.A)
        self.weights = (1, 1, 1, 1) + (0,) * len(self.A)
        self._dbar: dict[int, FormExpr] = {}

    @cached_property
    def struct(self) -> dict[int, dict[tuple, CoefExpr]]:
        """{k: {(i, j): c^k_ij}}, the nonzero structure constants; the three sigmas share no pair."""
        struct = {}
        for k, row in enumerate(self.A, 5):
            pairs = {pair: x if sign > 0 else -x
                     for m, x in enumerate(row, 1) if x for pair, sign in SIGMA[m].items()}
            if pairs:
                struct[k] = pairs
        return struct

    # -- basis forms ---------------------------------------------------------

    def zero(self, degree: int) -> "FormExpr":
        return FormExpr(self, degree, {})

    def basis(self, *indices: int) -> "FormExpr":
        """ebar^{i1...ip} for strictly increasing indices."""
        if list(indices) != sorted(set(indices)):
            raise DimensionMismatch(f"basis indices must be strictly increasing: {indices}")
        for i in indices:
            if not 1 <= i <= self.dim:
                raise DimensionMismatch(f"index {i} outside 1..{self.dim}")
        return FormExpr(self, len(indices), {tuple(indices): ring.ONE})

    def form(self, degree: int, comps: Mapping[tuple, object]) -> "FormExpr":
        out: dict[tuple, CoefExpr] = {}
        for idx, coef in comps.items():
            key = tuple(idx)
            if list(key) != sorted(set(key)) or len(key) != degree:
                raise DimensionMismatch(f"bad component index {key} for degree {degree}")
            c = ring.coerce(coef)
            if c:
                out[key] = c
        return FormExpr(self, degree, out)

    # -- structure -----------------------------------------------------------

    def dbar(self, k: int) -> "FormExpr":
        """d ebar^k = w_k df ^ ebar^k + sum c^k_{ij} e^{(w_k-w_i-w_j) f} ebar^{ij}."""
        if k in self._dbar:
            return self._dbar[k]
        w = self.weights
        parts: dict = {}
        if w[k - 1]:
            _wedge_into(parts, df_form(self) * w[k - 1], self.basis(k))
        for (i, j), coef in self.struct.get(k, {}).items():
            ex = w[k - 1] - w[i - 1] - w[j - 1]
            ring._mul_into(parts.setdefault((i, j), {}), coef, ring.expf(ex), 1)
        out = self._dbar[k] = _form(self, 2, parts)
        return out

    def integrability_residuals(self) -> dict[int, "FormExpr"]:
        return {k: exterior_derivative(self.dbar(k)) for k in range(1, self.dim + 1)}


class FormExpr:
    """Exact-coefficient differential form on a fixed coframe."""

    __slots__ = ("coframe", "degree", "comps")
    __hash__ = None

    def __init__(self, coframe: CoframeSpec, degree: int, comps: Mapping[tuple, CoefExpr]):
        self.coframe = coframe
        self.degree = int(degree)
        self.comps = {idx: c for idx, c in comps.items() if c}

    def __bool__(self) -> bool:
        return bool(self.comps)

    def __eq__(self, other) -> bool:
        if not isinstance(other, FormExpr):
            return NotImplemented
        if not self.comps and not other.comps:
            return True
        return self.degree == other.degree and self.comps == other.comps

    def _check_mate(self, other: "FormExpr"):
        if self.coframe is not other.coframe:
            raise DimensionMismatch("forms live on different coframes")

    def _sum(self, other, sign: int):
        """self + sign * other (sign = +/-1): each component goes into one raw accumulator per index."""
        if not isinstance(other, FormExpr):
            return NotImplemented
        self._check_mate(other)
        if self.comps and other.comps and self.degree != other.degree:
            raise DimensionMismatch("adding forms of different degree")
        parts: dict = {}
        for form, s in ((self, 1), (other, sign)):
            for idx, coef in form.comps.items():
                ring._add_into(parts.setdefault(idx, {}), coef, s)
        return _form(self.coframe, self.degree if self.comps else other.degree, parts)

    def __add__(self, other: "FormExpr") -> "FormExpr":
        return self._sum(other, 1)

    def __neg__(self) -> "FormExpr":
        return FormExpr(self.coframe, self.degree, {i: -c for i, c in self.comps.items()})

    def __sub__(self, other: "FormExpr") -> "FormExpr":
        return self._sum(other, -1)

    def __mul__(self, scalar) -> "FormExpr":
        try:
            c = ring.coerce(scalar)
        except TypeError:
            return NotImplemented
        return FormExpr(self.coframe, self.degree, {i: g * c for i, g in self.comps.items()})

    __rmul__ = __mul__

    def wedge(self, other: "FormExpr") -> "FormExpr":
        self._check_mate(other)
        parts: dict = {}
        _wedge_into(parts, self, other)
        return _form(self.coframe, self.degree + other.degree, parts)

    def value_at(self, *indices: int) -> CoefExpr:
        """Component on frame vectors (determinant convention)."""
        if len(indices) != self.degree:
            raise DimensionMismatch(f"{len(indices)} arguments for a degree-{self.degree} form")
        if len(set(indices)) != len(indices):
            return ring.ZERO
        key = tuple(sorted(indices))
        coef = self.comps.get(key)
        if coef is None:
            return ring.ZERO
        return coef if _perm_sign(tuple(indices)) > 0 else -coef

    def __repr__(self) -> str:
        if not self.comps:
            return "0"
        bits = []
        for idx in sorted(self.comps):
            label = "ebar^" + "".join(str(i) for i in idx) if idx else "1"
            bits.append(f"({self.comps[idx]!r}) {label}")
        return " + ".join(bits)


# ---------------------------------------------------------------------------
# the multiply-accumulate kernel: each component of a result is a raw ring
# accumulator, filled by ring._mul_into/_partial_into and read once at the
# end by ring._canonical

def _wedge_into(parts: dict, a: FormExpr, b: FormExpr, sign: int = 1) -> None:
    """Add sign * a ^ b to parts (sign an int), the merge sign folded into each term product."""
    for i1, c1 in a.comps.items():
        for i2, c2 in b.comps.items():
            m = _merge(i1, i2)
            if m:
                ring._mul_into(parts.setdefault(m[0], {}), c1, c2, m[1] * sign)


def _square_into(parts: dict, a: FormExpr) -> None:
    """Add a ^ a for a 2-form a.

    Even forms commute, so the pairs (A, B) and (B, A) give the same term:
    each unordered pair of components is multiplied once, with twice the
    merge sign.
    """
    comps = list(a.comps.items())
    for n, (i1, c1) in enumerate(comps):
        for i2, c2 in comps[n + 1:]:
            m = _merge(i1, i2)
            if m:
                ring._mul_into(parts.setdefault(m[0], {}), c1, c2, 2 * m[1])


def _form(c: CoframeSpec, degree: int, parts: dict) -> FormExpr:
    """The form whose components are parts, each canonicalised once."""
    return FormExpr(c, degree, {idx: ring._canonical(acc) for idx, acc in parts.items()})


# ---------------------------------------------------------------------------
# calculus operators

def exterior_derivative(a: FormExpr) -> FormExpr:
    """da, accumulated by _d_into and canonicalised once per component."""
    parts: dict = {}
    _d_into(parts, a)
    return _form(a.coframe, a.degree + 1, parts)


def _d_into(parts: dict, a: FormExpr) -> None:
    """Add da to parts: d(g ebar^I) = dg ^ ebar^I + g sum_t (-1)^t ebar^{I<t} ^ d ebar^{I_t} ^ ebar^{I>t},
    written from the index tuples into one raw accumulator per component."""
    c = a.coframe
    for idx, g in a.comps.items():
        # derivative of the coefficient along the frame: e^{-w_i f} d_i g (zero on fiber legs)
        for i in HORIZONTAL[:c.dim]:
            m = _merge((i,), idx)
            if m:
                ring._partial_into(parts.setdefault(m[0], {}), g, i, -c.weights[i - 1], m[1])
        # derivative of the basis monomial: d ebar^leg is a 2-form, so it passes
        # ebar^{I<t} with no sign and merges into the rest of I
        for t, leg in enumerate(idx):
            rest = idx[:t] + idx[t + 1:]
            for pair, coef in c.dbar(leg).comps.items():
                m = _merge(pair, rest)
                if m:
                    ring._mul_into(parts.setdefault(m[0], {}), coef, g, m[1] * (-1) ** t)


def _star(a: FormExpr, legs: tuple) -> FormExpr:
    """Hodge star on the span of the frame legs, oriented ebar^{legs}."""
    comps: dict[tuple, CoefExpr] = {}
    for idx, g in a.comps.items():
        comp = tuple(i for i in legs if i not in idx)
        comps[comp] = g if _perm_sign(idx + comp) > 0 else -g
    return FormExpr(a.coframe, len(legs) - a.degree, comps)


def hodge_star(a: FormExpr) -> FormExpr:
    """Hodge star of the orthonormal barred coframe, oriented ebar^{1..dim}."""
    return _star(a, tuple(range(1, a.coframe.dim + 1)))


def hodge_star_horizontal(a: FormExpr) -> FormExpr:
    """4-dimensional Hodge star on the span of ebar^1..ebar^4."""
    if any(i > 4 for idx in a.comps for i in idx):
        raise DimensionMismatch("horizontal star needs indices within 1..4")
    return _star(a, HORIZONTAL)


# ---------------------------------------------------------------------------
# standard gadgets on the rescaled coframe

def df_form(c: CoframeSpec) -> FormExpr:
    """df = e^{-f} sum_i f_i ebar^i (f depends on the first four coordinates)."""
    comps = {(i,): ring.expf(-c.weights[i - 1]) * ring.jet(i) for i in HORIZONTAL}
    return FormExpr(c, 1, comps)


def dpsi_f_form(c: CoframeSpec) -> FormExpr:
    """d^psi f(X) = -df(psi X) for the almost-complex structure PSI."""
    df = df_form(c)
    return FormExpr(c, 1, {(k,): df.comps[(i,)] * -s for k, (s, i) in PSI.items()})


def omega_bar(c: CoframeSpec, i: int) -> FormExpr:
    """The self-dual pair form omega_i of OMEGA."""
    return c.form(2, OMEGA[i])
