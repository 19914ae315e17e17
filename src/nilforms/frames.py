"""Catalogue of invariant coframes on 2-step nilpotent groups.

Every catalogue entry describes the fiber differentials
``d e^{4+r} = sum_m A[r][m] sigma_m`` against the anti-self-dual pair forms
``sigma_1 = e^{12}-e^{34}``, ``sigma_2 = e^{13}+e^{24}``,
``sigma_3 = e^{14}-e^{23}``; horizontal legs are closed.  The rescaled
coframe carries weights (1,1,1,1,0,..,0).

Catalogue ids:

* ``gH``   7-dim, A = identity (quaternionic Heisenberg group);
* ``kA``   7-dim, general A (symbolic entries a11..a33 by default);
* ``h5``   6-dim, rows (0,b,0) and (a,0,-b);
* ``h3``   6-dim, rows (0,0,0) and (a,0,0);
* ``h21``  5-dim, single row (a1,a2,a3);
* ``eps6`` 7-dim family A_eps = [[0,b,0],[a,0,-b],[0,0,eps]], eps=0 drops leg 7 to h5;
* ``eps5`` 7-dim family A_eps = [[a1,a2,a3],[0,eps,0],[0,0,eps]], eps=0 drops legs 6,7 to h21.
"""

from __future__ import annotations

from typing import Sequence

from . import ring
from .forms import CoframeSpec

CATALOG = ("gH", "kA", "h5", "h3", "h21", "eps6", "eps5")

_SIGMA_PAIRS = (
    {(1, 2): 1, (3, 4): -1},   # sigma_1
    {(1, 3): 1, (2, 4): 1},    # sigma_2
    {(1, 4): 1, (2, 3): -1},   # sigma_3
)


def _sigma_struct_row(coefs: Sequence) -> dict[tuple, ring.CoefExpr]:
    row: dict[tuple, ring.CoefExpr] = {}
    for m, c in enumerate(coefs):
        cc = ring.exact(c)
        if cc:
            for pair, sign in _SIGMA_PAIRS[m].items():  # the three sigmas share no pair
                row[pair] = cc if sign > 0 else -cc
    return row


def _from_rows(rows: Sequence[Sequence], name: str, params: dict) -> CoframeSpec:
    dim = 4 + len(rows)
    rows = tuple(tuple(ring.exact(x) for x in r) for r in rows)
    struct = {4 + 1 + r: _sigma_struct_row(rows[r]) for r in range(len(rows))}
    params = dict(params)
    params["A"] = rows
    return CoframeSpec(dim, struct, params=params, name=name, check=False)


def fiber_rows(c: CoframeSpec) -> tuple:
    """The sigma-coefficient rows A[r][m] recorded at construction."""
    return c.params["A"]


def abs_A_squared(c: CoframeSpec) -> ring.CoefExpr:
    """|A|^2 = sum of squared sigma-coefficients over all fiber legs."""
    out = ring.CoefExpr()
    for row in fiber_rows(c):
        for entry in row:
            out = out + entry * entry
    return out


# ---------------------------------------------------------------------------
# catalogue builders

def k_a(A=None) -> CoframeSpec:
    if A is None:
        A = [[ring.const(f"a{r}{m}") for m in (1, 2, 3)] for r in (1, 2, 3)]
    if len(A) != 3 or any(len(r) != 3 for r in A):
        raise ValueError("kA needs a 3x3 matrix")
    return _from_rows(A, "kA", {})


def quaternionic_heisenberg() -> CoframeSpec:
    return _from_rows([[1, 0, 0], [0, 1, 0], [0, 0, 1]], "gH", {})


def h5(a=None, b=None) -> CoframeSpec:
    a = ring.const("a") if a is None else a
    b = ring.const("b") if b is None else b
    return _from_rows([[0, b, 0], [a, 0, -ring.exact(b)]], "h5", {"a": ring.exact(a), "b": ring.exact(b)})


def h3(a=None) -> CoframeSpec:
    a = ring.const("a") if a is None else a
    return _from_rows([[0, 0, 0], [a, 0, 0]], "h3", {"a": ring.exact(a)})


def h21(a1=None, a2=None, a3=None) -> CoframeSpec:
    vals = [ring.const(f"a{i}") if v is None else v for i, v in ((1, a1), (2, a2), (3, a3))]
    coefs = [ring.exact(v) for v in vals]
    if all(not c for c in coefs):
        raise ValueError("h21 needs (a1,a2,a3) != 0")
    return _from_rows([coefs], "h21", {"a1": coefs[0], "a2": coefs[1], "a3": coefs[2]})


def drop_degenerate_legs(c: CoframeSpec, legs: Sequence[int]) -> CoframeSpec:
    """Remove trailing fiber legs whose differential vanishes identically."""
    legs = sorted(legs)
    if legs != list(range(c.dim - len(legs) + 1, c.dim + 1)):
        raise ValueError("only trailing legs can be dropped")
    for leg in legs:
        if c.struct.get(leg):
            raise ValueError(f"leg {leg} has a nonzero differential")
        for k, row in c.struct.items():
            if any(leg in pair for pair in row):
                raise ValueError(f"leg {leg} appears in d ebar^{k}")
    new_dim = c.dim - len(legs)
    struct = {k: dict(row) for k, row in c.struct.items() if k <= new_dim}
    params = dict(c.params)
    params["A"] = tuple(row for i, row in enumerate(c.params["A"]) if 4 + 1 + i <= new_dim)
    return CoframeSpec(new_dim, struct, params=params, name=c.name + "|drop", check=False)


def contraction_eps6(eps, a=None, b=None, drop: bool = True) -> CoframeSpec:
    a = ring.const("a") if a is None else a
    b = ring.const("b") if b is None else b
    e = ring.exact(eps)
    c = _from_rows(
        [[0, b, 0], [a, 0, -ring.exact(b)], [0, 0, e]],
        "eps6",
        {"a": ring.exact(a), "b": ring.exact(b), "eps": e},
    )
    if drop and not e:
        return drop_degenerate_legs(c, [7])
    return c


def contraction_eps5(eps, a1=None, a2=None, a3=None, drop: bool = True) -> CoframeSpec:
    vals = [ring.const(f"a{i}") if v is None else v for i, v in ((1, a1), (2, a2), (3, a3))]
    coefs = [ring.exact(v) for v in vals]
    e = ring.exact(eps)
    c = _from_rows(
        [coefs, [0, e, 0], [0, 0, e]],
        "eps5",
        {"a1": coefs[0], "a2": coefs[1], "a3": coefs[2], "eps": e},
    )
    if drop and not e:
        return drop_degenerate_legs(c, [6, 7])
    return c


def build_coframe(catalog_id: str, **params) -> CoframeSpec:
    if catalog_id == "gH":
        return quaternionic_heisenberg()
    if catalog_id == "kA":
        return k_a(params.get("A"))
    if catalog_id == "h5":
        return h5(params.get("a"), params.get("b"))
    if catalog_id == "h3":
        return h3(params.get("a"))
    if catalog_id == "h21":
        return h21(params.get("a1"), params.get("a2"), params.get("a3"))
    if catalog_id == "eps6":
        return contraction_eps6(params.get("eps", 0), params.get("a"), params.get("b"),
                                params.get("drop", True))
    if catalog_id == "eps5":
        return contraction_eps5(params.get("eps", 0), params.get("a1"), params.get("a2"),
                                params.get("a3"), params.get("drop", True))
    raise ValueError(f"unknown coframe {catalog_id!r}; known: {CATALOG}")

