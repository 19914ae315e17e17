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
* ``eps6`` 7-dim family A_eps = [[0,b,0],[a,0,-b],[0,0,eps]], h5's rows and a flat leg 7 at eps=0;
* ``eps5`` 7-dim family A_eps = [[a1,a2,a3],[0,eps,0],[0,0,eps]], h21's row and flat legs 6,7 at eps=0.

A parameter passed as None is the symbol of its name, eps included: the
default eps6 and eps5 are the 7-leg families with eps symbolic, the frames
every eps is read off.  Every eps, 0 too, gives 7 legs; the contracted
frame is h5 or h21 itself.
"""

from __future__ import annotations

from . import ring
from .forms import CoframeSpec


def abs_A_squared(c: CoframeSpec) -> ring.CoefExpr:
    """|A|^2 = sum of squared sigma-coefficients over all fiber legs."""
    entries = [entry for row in c.A for entry in row]
    return ring.dot(entries, entries)


def _named(name: str, value):
    """value, or the constant named name when value is None."""
    return ring.const(name) if value is None else value


def _h5_rows(a, b) -> list:
    b = ring.exact(_named("b", b))
    return [[0, b, 0], [_named("a", a), 0, -b]]


def _h21_row(a1, a2, a3) -> list:
    return [_named(f"a{i}", v) for i, v in ((1, a1), (2, a2), (3, a3))]


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
    return CoframeSpec([[0, 0, 0], [_named("a", a), 0, 0]])


def h21(a1=None, a2=None, a3=None) -> CoframeSpec:
    c = CoframeSpec([_h21_row(a1, a2, a3)])
    if not any(c.A[0]):
        raise ValueError("h21 needs (a1,a2,a3) != 0")
    return c


def contraction_eps6(eps=None, a=None, b=None) -> CoframeSpec:
    return CoframeSpec(_h5_rows(a, b) + [[0, 0, _named("eps", eps)]])


def contraction_eps5(eps=None, a1=None, a2=None, a3=None) -> CoframeSpec:
    eps = _named("eps", eps)
    return CoframeSpec([_h21_row(a1, a2, a3), [0, eps, 0], [0, 0, eps]])


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
