"""Numeric frames and gauges read off the symbolic kA / h21 family, against the direct route.

A Geometry on a numeric frame of dimension 7 or 5, and a Gauge's p1 on it,
come from the held symbolic family by exact substitution; every field must
equal the derivation on the frame itself (naive_forms.direct_fields,
direct_gauge_p1) exactly.
"""
from __future__ import annotations

import gc
import weakref
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import naive_forms
from nilforms import anomaly, gstruct, ring, scenarios
from nilforms.anomaly import Gauge, family_gauge
from nilforms.forms import CoframeSpec, exterior_derivative
from nilforms.frames import FREE_FRAME, build_coframe, h5, h21, k_a
from nilforms.gstruct import catalogue_geometry, geometry

_ENTRIES = (0, 1, -1, 2, -3, Fraction(5, 4), Fraction(-1, 3))


def _assert_fields_match(c):
    geo = geometry(c)
    assert geo.family is catalogue_geometry(FREE_FRAME[c.dim])  # the specialised route
    want = naive_forms.direct_fields(c)
    for name, value in want.items():
        assert getattr(geo, name) == value, name
    # the residual dicts list their nonzero entries, in both routes
    assert all(geo.instanton_minus.values()) and all(geo.holonomy_plus.values())


def _catalogue_numeric_frames() -> list:
    """(label, coframe) of every numeric 7- or 5-leg frame the catalogue and the scenarios build."""
    out = [("gH", build_coframe("gH"))]
    for dim, th in scenarios._THEOREMS.items():
        out.append((f"theorem-{dim}", scenarios._frame_geometry(dim, th.A).coframe))
    for dim, t in scenarios._CONTRACTIONS.items():
        for eps in (Fraction(1, 10), Fraction(1, 100), Fraction(1, 1000)):
            out.append((f"{t.family}-{eps}", build_coframe(t.family, eps=eps, **t.a_num)))
    return out


@pytest.mark.parametrize("label, c", _catalogue_numeric_frames(), ids=lambda x: x if isinstance(x, str) else "")
def test_every_catalogue_numeric_frame_matches_the_direct_route(label, c):
    _assert_fields_match(c)


def _fiber(rows: int):
    return st.lists(st.lists(st.sampled_from(_ENTRIES), min_size=3, max_size=3), min_size=rows, max_size=rows)


@given(st.one_of(_fiber(1), _fiber(3)))
@settings(max_examples=25, deadline=None)
def test_a_drawn_numeric_frame_matches_the_direct_route(A):
    _assert_fields_match(CoframeSpec(A))


@st.composite
def frames_and_gauges(draw):
    """A drawn numeric frame of 1 or 3 rows and a gauge on it: a Lambda of rank <= 1 or a B."""
    A = draw(st.one_of(_fiber(1), _fiber(3)))
    nfib = len(A)
    vec = st.sampled_from(_ENTRIES)
    if draw(st.booleans()):
        u = draw(st.lists(vec, min_size=3, max_size=3))
        v = draw(st.lists(vec, min_size=nfib, max_size=nfib))
        rows = [[x * y for y in v] for x in u]
        if nfib == 1 and draw(st.booleans()):
            rows = [r[0] for r in rows]  # h21's flat column
        return A, "DLambda", rows
    return A, "DB", draw(st.lists(st.lists(vec, min_size=3, max_size=3), min_size=nfib, max_size=nfib))


@given(frames_and_gauges())
@settings(max_examples=40, deadline=None)
def test_a_drawn_gauge_p1_matches_the_direct_route(case):
    A, kind, rows = case
    c = CoframeSpec(A)
    assert Gauge(c, kind, rows).p1 == naive_forms.direct_gauge_p1(c, kind, rows)


@pytest.mark.parametrize("c, kind, rows", [
    (k_a([[1, 0, 0], [0, 1, 0], [0, 0, 1]]), "DLambda", [[0] * 3] * 3),  # Lambda = 0: u = 0
    (h21(1, 1, 1), "DLambda", [0, 0, 0]),
    (h21(1, -2, Fraction(5, 4)), "DLambda", [2, -1, 1]),  # the flat column
    (h21(1, -2, Fraction(5, 4)), "DLambda", [[2], [-1], [1]]),
    (k_a([[2, 0, 1], [0, 0, 0], [Fraction(5, 4), 1, -1]]), "DLambda", [[0, 0, 0], [2, 4, -6], [-1, -2, 3]]),
    (k_a([[1, 0, 0], [0, 1, 0], [0, 0, 1]]), "DLambda", [[1, 0, 0], [0, 1, 0], [0, 0, 0]]),  # rank two
    (k_a([[2, 0, 1], [0, 0, 0], [Fraction(5, 4), 1, -1]]), "DB", [[0, "1/2", 0], [1, 0, 0], [0, 0, -2]]),
    (h21(0, 3, 0), "DB", [1, 0, "-5/4"]),
])
def test_catalogued_gauge_edges_match_the_direct_route(c, kind, rows):
    assert Gauge(c, kind, rows).p1 == naive_forms.direct_gauge_p1(c, kind, rows)


@pytest.mark.parametrize("c, rows", [
    (k_a([[1, 0, 0], [0, 1, 0], [0, 0, 1]]), [[0, 0, 0], [4, 2, -6], [-6, -3, 9]]),
    (h21(1, 1, 1), [6, -4, 10]),
])
def test_an_integer_lambda_is_factored_in_integers(c, rows):
    # so its substituted p1 is summed in ints, not Fractions
    values = anomaly._row_values("DLambda", rows, c)
    assert all(x.denominator == 1 for x in values.values())
    u = [values[ring.const_sym(f"Lu{r}")] for r in (1, 2, 3)]
    v = [values[ring.const_sym(f"Lv{col}")] for col in range(1, c.dim - 3)]
    flat = rows if isinstance(rows[0], list) else [[x] for x in rows]
    assert [[a * b for b in v] for a in u] == flat


def test_the_family_gauges_are_held_on_the_family_frame():
    family = catalogue_geometry("h21")
    gauge = family_gauge(family, "DLambda")
    assert family_gauge(family, "DLambda") is gauge and family.gauges[("DLambda", None)] is gauge
    assert Gauge(h21(1, 2, 3), "DLambda", [1, 2, 3]).p1  # read off it
    assert family.gauges[("DLambda", None)] is gauge


@pytest.mark.parametrize("c", [
    k_a(),
    h21(),
    h5(1, 2),  # six legs: no free family
    k_a([[1, 0, 0], [0, ring.const("x"), 0], [0, 0, 1]]),
    h21(1, None, 2),
], ids=["kA()", "h21()", "h5", "kA-one-symbol", "h21-one-symbol"])
def test_a_frame_with_a_symbolic_entry_or_no_family_derives_directly(c):
    geo = geometry(c)
    assert geo.family is None and geo.values is None
    assert geo.dT == exterior_derivative(gstruct.direct_torsion(c))


def test_the_specialised_geometry_is_freed_without_the_cyclic_collector():
    c = k_a([[1, 2, 3], [0, 1, -1], [2, 0, 1]])
    geo = geometry(c)
    geo.p1_minus, geo.instanton_minus, geo.scalar_identity
    assert geo.family is not None
    ref = weakref.ref(geo)
    gc.disable()
    try:
        del geo
        assert ref() is None
    finally:
        gc.enable()


def test_a_specialised_field_is_shared_with_every_holder():
    c = h21(2, 0, -1)
    geo = geometry(c)
    assert geometry(c).p1_minus is geo.p1_minus
    assert gstruct.specialised(catalogue_geometry("h21").dT, c, geo.values) == geo.dT


@pytest.mark.parametrize("c, kind, rows", [
    (k_a([[1, 0, 0], [0, 1, 0], [0, 0, 1]]), "DB", [[1, 0], [0, 1]]),
    (k_a([[1, 0, 0], [0, 1, 0], [0, 0, 1]]), "DLambda", [[1, 0], [0, 1]]),
    (h21(1, 1, 1), "DB", [1, 2]),
])
def test_a_gauge_on_a_numeric_frame_still_refuses_a_misshapen_matrix(c, kind, rows):
    with pytest.raises(ValueError, match="must be"):
        Gauge(c, kind, rows).p1
