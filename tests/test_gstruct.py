"""Tests for the G2 / SU(2) / SU(3) structures sharing one torsion 3-form."""
from __future__ import annotations

import gc
import weakref
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import expected_tables as tables
import naive_forms
from nilforms import gstruct, ring, scenarios
from nilforms.connection import build_instanton_DLambda, curvature, lam_rank, pontryagin4
from nilforms.forms import PSI, CoframeSpec, DimensionMismatch, dpsi_f_form, exterior_derivative, omega_bar
from nilforms.frames import abs_A_squared, h5, h21
from nilforms.gstruct import (
    G2Structure,
    SU2Structure,
    SU3Structure,
    build_g2,
    build_su2,
    build_su3,
    catalogue_geometry,
    direct_torsion,
    g2_holonomy_residual,
    g2_instanton_residual,
    geometry,
    psi_compatibility_residuals,
    scalar_identity_residual,
    structure,
    su2_holonomy_residual,
    su2_instanton_residual,
    su2_structure_residuals,
    su3_structure_residuals,
    torsion_norm_squared,
)
from nilforms.report import SCENARIOS
from nilforms.scenarios import run_scenario


def _onshell_factor(c):
    """The scalar that multiplies every on-shell-vanishing residual."""
    return ring.lap_e2f() + ring.rat(2) * abs_A_squared(c)


# ---------------------------------------------------------------------------
# G2 (7 legs)

def test_g2_form_normalization(ka):
    g = build_g2(ka)
    assert len(g.theta.comps) == 7
    vol7 = ka.form(7, {tuple(range(1, 8)): ring.rat(7)})
    assert not (g.theta.wedge(g.star_theta) - vol7)


def test_g2_requires_seven_legs(h21_sym):
    with pytest.raises(DimensionMismatch):
        build_g2(h21_sym)


def test_g2_is_integrable_pure(ka):
    res = build_g2(ka).residuals()
    assert sorted(res) == ["coclosed", "pure_type"] and not any(res.values())


def test_torsion_routes_agree(ka, ka_family):
    T, _lc, _wm, _wp = ka_family
    hodge_route = build_g2(ka).torsion()
    assert not (hodge_route - T)
    assert not (T - tables.torsion_fixture(ka))


def test_plus_connection_preserves_g2(ka, ka_curvatures):
    _cm, cp = ka_curvatures
    assert g2_holonomy_residual(cp, build_g2(ka)) == {}


def test_minus_instanton_residual_has_onshell_factor(ka, ka_curvatures):
    cm, _cp = ka_curvatures
    res = g2_instanton_residual(cm, build_g2(ka))
    assert res
    factor = _onshell_factor(ka)
    assert all(ring.try_divide(v, factor) is not None for v in res.values())


def test_rank_one_gauge_connection_is_instanton(ka):
    lam = [[2, 1, -1], [0, 0, 0], [0, 0, 0]]
    assert lam_rank(lam, ka) == 1
    cur = curvature(build_instanton_DLambda(lam, ka))
    assert g2_instanton_residual(cur, build_g2(ka)) == {}


def test_rank_two_gauge_connection_fails_instanton(ka):
    lam = [[1, 0, 0], [0, 1, 0], [0, 0, 0]]
    assert lam_rank(lam, ka) == 2
    cur = curvature(build_instanton_DLambda(lam, ka))
    assert g2_instanton_residual(cur, build_g2(ka))


# ---------------------------------------------------------------------------
# SU(2) (5 legs)

def test_su2_build_and_shape(h21_sym):
    s = build_su2(h21_sym)
    assert not (s.eta - h21_sym.basis(5))
    assert not (s.F - omega_bar(h21_sym, 1))
    assert not (s.omega3 - omega_bar(h21_sym, 3))


def test_su2_requires_five_legs(ka):
    with pytest.raises(DimensionMismatch):
        build_su2(ka)


def test_su2_structure_residuals_vanish(h21_sym):
    res = su2_structure_residuals(build_su2(h21_sym))
    assert sorted(res) == ["asd", "domega1", "domega2", "domega3"]
    assert not any(res.values())


def test_five_leg_torsion_routes_agree(h21_sym, h21_family):
    T, _lc, _wm, _wp = h21_family
    s = build_su2(h21_sym)
    contact_route = s.eta.wedge(h21_sym.dbar(5)) + (dpsi_f_form(h21_sym) * 2).wedge(s.F)
    assert not (T - contact_route)


def test_plus_connection_preserves_su2(h21_sym, h21_curvatures):
    _cm, cp = h21_curvatures
    assert su2_holonomy_residual(cp, build_su2(h21_sym)) == {}


def test_su2_minus_instanton_residual_has_onshell_factor(h21_sym, h21_curvatures):
    cm, _cp = h21_curvatures
    res = su2_instanton_residual(cm, build_su2(h21_sym))
    assert res
    factor = _onshell_factor(h21_sym)
    assert all(ring.try_divide(v, factor) is not None for v in res.values())


def test_su2_gauge_triple_is_instanton(h21_sym):
    cur = curvature(build_instanton_DLambda([2, -1, 1], h21_sym))
    assert su2_instanton_residual(cur, build_su2(h21_sym)) == {}


# ---------------------------------------------------------------------------
# psi compatibility

def test_psi_image_table():
    # psi ebar_k = sign * ebar_image on the horizontal legs; psi kills ebar_5
    assert PSI == {1: (-1, 2), 2: (1, 1), 3: (-1, 4), 4: (1, 3)}


def test_psi_compatibility_on_basis_forms(h21_sym):
    for m in (1, 2, 3):
        res = psi_compatibility_residuals(naive_forms.sigma_bar(h21_sym, m))
        assert all(not v for v in res.values())
    res = psi_compatibility_residuals(omega_bar(h21_sym, 1))
    assert res["trace"] == ring.rat(-4)
    mixed = psi_compatibility_residuals(h21_sym.basis(1, 5))
    assert any(bool(v) for v in mixed.values())


def test_psi_compatibility_matches_instanton_residual(h21_sym, h21_curvatures):
    s = build_su2(h21_sym)
    for cur in h21_curvatures:
        flagged = {(i, j) for (i, j, _lab) in su2_instanton_residual(cur, s)}
        for (i, j) in cur.pairs():
            psi_bad = any(bool(v) for v in psi_compatibility_residuals(cur.entry(i, j)).values())
            assert psi_bad == ((i, j) in flagged)


# ---------------------------------------------------------------------------
# SU(3) (6 legs)

def test_su3_structure_residuals_vanish():
    s = build_su3(h5(1, 2))
    res = su3_structure_residuals(s)
    assert sorted(res) == ["F3", "FPsiMinus", "FPsiPlus", "dPsiMinus", "dPsiPlus"]
    assert not any(res.values())


def test_su3_requires_six_legs(ka):
    with pytest.raises(DimensionMismatch):
        build_su3(ka)


# ---------------------------------------------------------------------------
# torsion norm and the scalar-curvature identity

def test_torsion_norm_convention(ka, ka_family):
    T, _lc, _wm, _wp = ka_family
    kill_jets = {ring.jet_sym(i): 0 for i in range(1, 5)}
    N0 = torsion_norm_squared(T.map_coefs(lambda e: e.substitute(kill_jets)))
    assert not (N0.scale_expf(4) - ring.rat(12) * abs_A_squared(ka))


def test_scalar_identity_holds_for_minus_f_only(ka):
    assert not scalar_identity_residual(ka, Fraction(-1))
    assert scalar_identity_residual(ka, Fraction(-2))


# ---------------------------------------------------------------------------
# one structure interface

def test_structure_is_picked_by_dimension(ka, h21_sym):
    assert isinstance(structure(ka), G2Structure)
    assert isinstance(structure(h5(1, 2)), SU3Structure)
    assert isinstance(structure(h21_sym), SU2Structure)
    with pytest.raises(DimensionMismatch):
        structure(CoframeSpec([]))


def test_structure_interface_reads_the_module_residuals(ka, ka_curvatures, h21_sym, h21_curvatures):
    for c, (cm, cp), build, instanton, holonomy in (
        (ka, ka_curvatures, build_g2, g2_instanton_residual, g2_holonomy_residual),
        (h21_sym, h21_curvatures, build_su2, su2_instanton_residual, su2_holonomy_residual),
    ):
        s = structure(c)
        assert s.instanton_residual(cm) == instanton(cm, build(c))
        assert s.holonomy_residual(cm) == holonomy(cm, build(c))
        assert s.holonomy_residual(cp) == {}
        assert s.torsion() == direct_torsion(c)
    assert structure(ka).residuals() == build_g2(ka).residuals()
    assert structure(h21_sym).residuals() == su2_structure_residuals(build_su2(h21_sym))


def test_su2_holonomy_residual_flags_a_self_dual_matrix(h21_sym):
    # Omega^1_2 = Omega^3_4 = ebar^{12}: the matrix in every (k, l) slot is self-dual
    class Curv:
        def pairs(self):
            return [(i, j) for i in range(1, 6) for j in range(i + 1, 6)]

        def entry(self, i, j):
            return h21_sym.basis(1, 2) if (i, j) in ((1, 2), (3, 4)) else h21_sym.zero(2)

    s = build_su2(h21_sym)
    assert su2_holonomy_residual(Curv(), s) == {(1, 2, "w1"): ring.ONE}
    assert su2_instanton_residual(Curv(), s) == {(1, 2, "w1"): ring.rat(1, 2), (3, 4, "w1"): ring.rat(1, 2)}


def test_g2_residuals_contract_a_single_curvature_entry(ka):
    # Omega^1_2 = ebar^{12} alone: Theta(ebar_1, ebar_2, ebar_7) = 1 is its only partner
    class Curv:
        def pairs(self):
            return [(i, j) for i in range(1, 8) for j in range(i + 1, 8)]

        def entry(self, i, j):
            return ka.basis(1, 2) if (i, j) == (1, 2) else ka.zero(2)

    g = build_g2(ka)
    assert g2_instanton_residual(Curv(), g) == {(1, 2, 7): 2}
    assert g2_holonomy_residual(Curv(), g) == {(1, 2, 7): 2}


# ---------------------------------------------------------------------------
# projection tables against the per-pair value_at contraction

_coefs = st.sampled_from(
    [ring.ZERO, ring.ONE, ring.rat(-3, 2), ring.const("a"), ring.jet(1) * ring.expf(-2) + ring.rat(1, 3),
     ring.jet(2, 3) - ring.const("b") * ring.expf(1)]
)


@st.composite
def skew_matrices(draw, dim):
    """A sparse skew {(a, b): coef} with a < b <= dim; zero entries included."""
    pairs = [(a, b) for a in range(1, dim + 1) for b in range(a + 1, dim + 1)]
    return {ab: draw(_coefs) for ab in draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs)))}


def _reference_project(struct):
    if isinstance(struct, G2Structure):
        return lambda M: naive_forms.g2_project_reference(struct.theta, M)
    return naive_forms.su2_project_reference


@given(skew_matrices(7), skew_matrices(5))
@settings(max_examples=60, deadline=None)
def test_projection_tables_match_the_value_at_contraction(ka, h21_sym, m7, m5):
    for struct, M in ((build_g2(ka), m7), (build_su2(h21_sym), m5)):
        got, want = struct.project(M), _reference_project(struct)(M)
        assert list(got.items()) == list(want.items())


def test_residuals_of_every_held_geometry_match_the_value_at_contraction(monkeypatch):
    held = {}

    def recording(catalog_id, **params):
        geo = catalogue_geometry(catalog_id, **params)
        held[id(geo)] = geo
        return geo

    monkeypatch.setattr(scenarios, "catalogue_geometry", recording)
    monkeypatch.setattr(gstruct, "catalogue_geometry", recording)
    for name in SCENARIOS:
        run_scenario(name, seed=0)
    assert len(held) == 19
    compared = 0
    for geo in held.values():
        struct = geo.structure
        if not hasattr(struct, "project"):
            continue
        reference = _reference_project(struct)
        for curv in (geo.curv_minus, geo.curv_plus):
            for endomorphism, residual in ((False, struct.instanton_residual), (True, struct.holonomy_residual)):
                got, want = residual(curv), gstruct._contract(curv, reference, endomorphism)
                assert list(got.items()) == list(want.items())
                compared += 1
    assert compared >= 20


# ---------------------------------------------------------------------------
# the derived geometry of a coframe

def test_geometry_matches_the_pipeline(h21_sym, h21_family, h21_curvatures):
    T, lc, wm, _wp = h21_family
    cm, cp = h21_curvatures
    geo = geometry(h21_sym)
    assert geo.coframe is h21_sym
    assert geo.torsion == T and geo.dT == exterior_derivative(T)
    assert geo.lc == lc and geo.minus == wm
    assert geo.curv_lc == curvature(lc)
    assert geo.curv_minus == cm and geo.curv_plus == cp
    assert geo.p1_minus == pontryagin4(cm)
    assert isinstance(geo.structure, SU2Structure)


def test_geometry_is_shared_while_a_caller_holds_it():
    c = h21()
    geo = geometry(c)
    assert geometry(c) is geo
    assert geo.curv_minus is geometry(c).curv_minus
    assert geometry(h21()) is not geo


def test_geometry_is_freed_without_the_cyclic_collector():
    c = h21()
    geo = geometry(c)
    geo.p1_minus, geo.curv_plus, geo.curv_lc, geo.dT, geo.structure  # derive every piece
    ref = weakref.ref(geo)
    gc.disable()
    try:
        del geo
        assert ref() is None
    finally:
        gc.enable()
