"""Exact Bianchi identities for every connection the pipeline builds.

* second Bianchi: d Omega - Omega ^ omega + omega ^ Omega = 0 for any
  connection matrix omega and its curvature Omega = d omega + omega ^ omega;
* first Bianchi: Omega^i_j ^ ebar^j = 0 for the torsion-free Levi-Civita
  connection;
* Chern-Weil: d p1(nabla^-) = 0.

They hold on every coframe with no tolerance, so they guard the Koszul pass,
curvature and p1 from outside the frozen tables: on the catalogue frames
(symbolic entries) and on drawn integer fiber matrices with 0 to 3 rows.
"""
from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from nilforms import ring
from nilforms.connection import (
    build_instanton_DLambda,
    curvature,
    koszul,
    levi_civita,
    pontryagin4,
)
from nilforms.forms import CoframeSpec, exterior_derivative
from nilforms.frames import (
    contraction_eps5,
    contraction_eps6,
    h3,
    h5,
    h21,
    k_a,
    quaternionic_heisenberg,
)
from nilforms.gstruct import build_DB, direct_torsion

CATALOGUE = {
    "gH": quaternionic_heisenberg,
    "kA": k_a,
    "h5": h5,
    "h3": h3,
    "h21": h21,
    "eps6": lambda: contraction_eps6(ring.const("eps")),
    "eps5": lambda: contraction_eps5(ring.const("eps")),
}


def connections(c: CoframeSpec) -> dict:
    """Every connection the pipeline builds on c: LC, nabla^-/+, D_Lambda and (dims 5, 7) D_B."""
    T = direct_torsion(c)
    nfib = c.dim - 4
    lam = [[2 * x for x in range(1, nfib + 1)], [-x for x in range(1, nfib + 1)], [0] * nfib]
    out = {
        "lc": levi_civita(c),
        "minus": koszul(c, T, -1),
        "plus": koszul(c, T, +1),
        "DLambda": build_instanton_DLambda(lam, c),
    }
    if c.dim in (5, 7):
        out["DB"] = build_DB([[1, -2, 0], [0, 1, 3], [2, 0, -1]][:nfib], c)
    return out


def _mat_wedge(X, Y, i: int, j: int):
    """(X ^ Y)^i_j = sum_k X^i_k ^ Y^k_j for two matrices of forms."""
    c = X.coframe
    out = c.zero(X.degree + Y.degree)
    for k in range(1, c.dim + 1):
        out = out + X.entry(i, k).wedge(Y.entry(k, j))
    return out


def second_bianchi(conn) -> dict:
    curv = curvature(conn)
    return {
        (i, j): exterior_derivative(curv.entry(i, j)) - _mat_wedge(curv, conn, i, j) + _mat_wedge(conn, curv, i, j)
        for (i, j) in conn.pairs()
    }


def first_bianchi(lc) -> dict:
    c = lc.coframe
    curv = curvature(lc)
    out = {}
    for i in range(1, c.dim + 1):
        res = c.zero(3)
        for j in range(1, c.dim + 1):
            res = res + curv.entry(i, j).wedge(c.basis(j))
        out[i] = res
    return out


def assert_bianchi(c: CoframeSpec):
    conns = connections(c)
    for name, conn in conns.items():
        bad = {pair: r for pair, r in second_bianchi(conn).items() if r}
        assert not bad, (name, sorted(bad))
    bad = {i: r for i, r in first_bianchi(conns["lc"]).items() if r}
    assert not bad, sorted(bad)
    p1 = pontryagin4(curvature(conns["minus"]))
    assert p1  # the identity below is not read off an empty form
    assert not exterior_derivative(p1)


@pytest.mark.parametrize("name", sorted(CATALOGUE))
def test_bianchi_identities_on_catalogue_frames(name):
    assert_bianchi(CATALOGUE[name]())


@given(st.lists(st.lists(st.integers(-3, 3), min_size=3, max_size=3), min_size=0, max_size=3))
@settings(max_examples=5, deadline=None)
def test_bianchi_identities_on_drawn_integer_frames(A):
    assert_bianchi(CoframeSpec(A))
