"""Numeric frames and gauges read off the symbolic kA / h21 family, against the direct route.

A Geometry on a numeric frame of dimension 7 or 5, and the anomaly
residual of a numeric gauge on it, come from the held symbolic family by
exact substitution; every field, each gauge's p1 and each residual must
equal the derivation on the frame itself (naive_forms.direct_fields,
direct_gauge_p1, direct_residuals) exactly.
"""
from __future__ import annotations

import gc
import weakref
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import naive_forms
from call_counts import call_counts, count
from nilforms import anomaly, gstruct, ring, scenarios
from nilforms.anomaly import Gauge, anomaly_residual, family_residual
from nilforms.connection import gauge_rows
from nilforms.forms import CoframeSpec, exterior_derivative
from nilforms.frames import FREE_FRAME, build_coframe, h5, h21, k_a
from nilforms.gstruct import catalogue_geometry, geometry
from nilforms.ring import BadParams, const, jet, rat

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


@given(frames_and_gauges())
@settings(max_examples=25, deadline=None)
def test_a_drawn_residual_read_off_the_family_matches_the_direct_route(case):
    # alphaP the symbol (the held residual as it is), a Fraction and an element
    # with a jet, each put in by the one substitution of the held residual
    A, kind, rows = case
    c = CoframeSpec(A)
    assert anomaly._row_values(kind, gauge_rows(kind, rows, c)) is not None  # the family route
    alphas = (const("alphaP"), Fraction(3, 2), const("beta") - rat(1, 3) * jet(1))
    want = naive_forms.direct_residuals(c, kind, rows, alphas)
    assert [anomaly_residual(c, alphaP, (kind, rows)) for alphaP in alphas] == want


def test_a_rank_two_or_symbolic_lambda_on_a_numeric_frame_is_refused_on_every_read():
    c = k_a([[1, 2, 0], [0, 1, 1], [2, 0, 1]])
    rank_two = [[1, 0, 0], [0, 1, 0], [0, 0, 0]]
    gauge = Gauge(c, "DLambda", rank_two)
    symbolic = Gauge(c, "DLambda", [[const("x"), 0, 0], [0, 0, 0], [0, 0, 0]])
    for _ in range(2):  # a cached_property keeps no exception
        with pytest.raises(BadParams, match="rank <= 1"):
            gauge.anomaly_residual
        with pytest.raises(BadParams, match="rank <= 1"):
            anomaly_residual(c, "alphaP", ("DLambda", rank_two))
        with pytest.raises(ValueError, match="rank needs numeric lambda entries"):
            symbolic.anomaly_residual
    # the rank test refuses rank_two, not its entries: each has a value, and only a symbol has none
    values = anomaly._row_values("DLambda", gauge_rows("DLambda", rank_two, c))
    assert values == {ring.const_sym(f"DLambda{r}{m}"): x for r, row in enumerate(rank_two, 1) for m, x in enumerate(row, 1)}
    assert anomaly._row_values("DLambda", gauge_rows("DLambda", symbolic.rows, c)) is None


@pytest.mark.parametrize("c", [
    h21(1, -2, 3),
    k_a([[1, 2, 0], [0, 1, 1], [2, 0, 1]]),
], ids=["h21", "kA"])
def test_a_symbolic_db_on_a_numeric_frame_takes_the_direct_route(c):
    # a symbol in B has no row values, so the residual is built on c from the gauge's own p1
    rows = [[1, const("b"), 0]] + [[0, 2, -1]] * (c.dim - 5)
    assert anomaly._row_values("DB", gauge_rows("DB", rows, c)) is None
    alphas = (const("alphaP"), Fraction(3, 2))
    counts = call_counts(lambda: [anomaly_residual(c, alphaP, ("DB", rows)) for alphaP in alphas])
    assert count(counts, anomaly._residual) == 2 and count(counts, family_residual) == 0
    got = [anomaly_residual(c, alphaP, ("DB", rows)) for alphaP in alphas]
    assert got == naive_forms.direct_residuals(c, "DB", rows, alphas)


def test_the_family_residual_is_built_once_per_family_and_kind(monkeypatch):
    # no held family residuals, so this test builds them; the held ones come back after it
    for cid in FREE_FRAME.values():
        for kind in ("DLambda", "DB"):
            monkeypatch.delitem(catalogue_geometry(cid).held, ("family-residual", kind), raising=False)
    cases = [
        (k_a([[1, 2, 0], [0, 1, 1], [2, 0, 1]]), "DLambda", [[1, 2, 3], [2, 4, 6], [-1, -2, -3]]),
        (k_a([[3, 0, 1], [1, -1, 0], [0, 2, 5]]), "DLambda", [[0, 0, 0], [1, -1, 2], [0, 0, 0]]),
        (k_a([[1, 2, 0], [0, 1, 1], [2, 0, 1]]), "DB", [[1, 0, 2], [0, 1, 0], [3, 0, 1]]),
        (k_a([[3, 0, 1], [1, -1, 0], [0, 2, 5]]), "DB", [[0, 1, 0], [2, 0, 0], [0, 0, -1]]),
        (h21(1, -2, 3), "DLambda", [2, -1, 1]),
        (h21(4, 0, -1), "DLambda", [1, 1, Fraction(1, 2)]),
        (h21(1, -2, 3), "DB", [1, 0, 2]),
        (h21(4, 0, -1), "DB", [0, Fraction(-5, 4), 1]),
    ]
    counts = call_counts(lambda: [anomaly_residual(c, "alphaP", (kind, rows)) for c, kind, rows in cases])
    assert count(counts, anomaly_residual) == len(cases)  # the counter is live
    assert count(counts, anomaly._residual) == 4
    for cid in FREE_FRAME.values():
        held = catalogue_geometry(cid).held
        for kind in ("DLambda", "DB"):
            assert held[("family-residual", kind)] is family_residual(catalogue_geometry(cid), kind)


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
def test_an_integer_lambda_goes_in_as_ints(c, rows):
    # one int per entry, under the family residual's symbol for it, so the substituted residual is summed in ints
    flat = rows if isinstance(rows[0], list) else [[x] for x in rows]
    values = anomaly._row_values("DLambda", gauge_rows("DLambda", rows, c))
    assert values == {ring.const_sym(f"DLambda{r}{m}"): x for r, row in enumerate(flat, 1) for m, x in enumerate(row, 1)}
    assert all(type(x) is int for x in values.values())
    assert set(values) <= family_residual(geometry(c).family, "DLambda").symbols()


def test_the_family_residuals_are_held_on_the_family_frame():
    family = catalogue_geometry("h21")
    residual = family_residual(family, "DLambda")
    assert family_residual(family, "DLambda") is residual
    assert family.held[("family-residual", "DLambda")] is residual
    assert Gauge(h21(1, 2, 3), "DLambda", [1, 2, 3]).anomaly_residual  # read off it
    assert family.held[("family-residual", "DLambda")] is residual


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
