"""Catalogue of invariant coframes on 2-step nilpotent groups.

Every catalogue entry describes the fiber differentials
``d e^{4+r} = sum_m A[r][m] sigma_m`` against the anti-self-dual pair forms
``sigma_m`` of ``forms.SIGMA``; horizontal legs are closed.  The rescaled
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


def abs_A_squared(c: CoframeSpec) -> ring.CoefExpr:
    """|A|^2 = sum of squared sigma-coefficients over all fiber legs."""
    out = ring.CoefExpr()
    for row in c.A:
        for entry in row:
            out = out + entry * entry
    return out


def _h5_rows(a, b) -> list:
    a = ring.const("a") if a is None else a
    b = ring.exact(ring.const("b") if b is None else b)
    return [[0, b, 0], [a, 0, -b]]


def _h21_row(a1, a2, a3) -> list:
    return [ring.const(f"a{i}") if v is None else v for i, v in ((1, a1), (2, a2), (3, a3))]


# ---------------------------------------------------------------------------
# catalogue builders

def k_a(A=None) -> CoframeSpec:
    if A is None:
        A = [[ring.const(f"a{r}{m}") for m in (1, 2, 3)] for r in (1, 2, 3)]
    if len(A) != 3 or any(len(r) != 3 for r in A):
        raise ValueError("kA needs a 3x3 matrix")
    return CoframeSpec(A)


def quaternionic_heisenberg() -> CoframeSpec:
    return CoframeSpec([[1, 0, 0], [0, 1, 0], [0, 0, 1]])


def h5(a=None, b=None) -> CoframeSpec:
    return CoframeSpec(_h5_rows(a, b))


def h3(a=None) -> CoframeSpec:
    a = ring.const("a") if a is None else a
    return CoframeSpec([[0, 0, 0], [a, 0, 0]])


def h21(a1=None, a2=None, a3=None) -> CoframeSpec:
    c = CoframeSpec([_h21_row(a1, a2, a3)])
    if not any(c.A[0]):
        raise ValueError("h21 needs (a1,a2,a3) != 0")
    return c


def drop_degenerate_legs(c: CoframeSpec, legs: Sequence[int]) -> CoframeSpec:
    """Remove trailing fiber legs whose differential vanishes identically."""
    keep = c.dim - 4 - len(legs)
    if keep < 0 or sorted(legs) != list(range(5 + keep, c.dim + 1)):
        raise ValueError("only trailing fiber legs can be dropped")
    if any(any(row) for row in c.A[keep:]):
        raise ValueError(f"legs {sorted(legs)} have a nonzero differential")
    return CoframeSpec(c.A[:keep])


def contraction_eps6(eps=0, a=None, b=None, drop: bool = True) -> CoframeSpec:
    c = CoframeSpec(_h5_rows(a, b) + [[0, 0, eps]])
    if drop and not c.A[2][2]:
        return drop_degenerate_legs(c, [7])
    return c


def contraction_eps5(eps=0, a1=None, a2=None, a3=None, drop: bool = True) -> CoframeSpec:
    c = CoframeSpec([_h21_row(a1, a2, a3), [0, eps, 0], [0, 0, eps]])
    if drop and not c.A[1][1]:
        return drop_degenerate_legs(c, [6, 7])
    return c


# catalogue id -> the name of its builder, looked up when a frame is built, so a
# wrapper set on a module attribute (the benchmark's traced run) sees every call
_BUILDERS = {"gH": "quaternionic_heisenberg", "kA": "k_a", "h5": "h5", "h3": "h3", "h21": "h21",
             "eps6": "contraction_eps6", "eps5": "contraction_eps5"}
CATALOG = tuple(_BUILDERS)

# the symbolic frame with a free fiber matrix, by dimension: kA (3 rows) or h21 (1 row)
FREE_FRAME = {7: "kA", 5: "h21"}


def build_coframe(catalog_id: str, **params) -> CoframeSpec:
    """The catalogue coframe catalog_id; params are its builder's keywords."""
    if catalog_id not in _BUILDERS:
        raise ValueError(f"unknown coframe {catalog_id!r}; known: {CATALOG}")
    return globals()[_BUILDERS[catalog_id]](**params)
