"""Connection/curvature fixture tests against the independently frozen tables.

The expected values live in expected_tables.py and were written down by hand;
everything here must come out exactly equal from Koszul + torsion + curvature
alone, with no numeric tolerance.
"""
from __future__ import annotations

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import expected_tables as tables
from naive_forms import (
    first_structure_residual,
    interior,
    naive_curvature,
    naive_pontryagin4,
    naive_torsion_connection,
    riemann,
    sigma_bar,
    torsion_slice,
)
from nilforms import ring
from nilforms.connection import (
    CurvatureForms,
    build_instanton_DLambda,
    curvature,
    koszul,
    lam_A_product,
    lam_rank,
    lam_squared,
    levi_civita,
    pontryagin4,
)
from nilforms.forms import CoframeSpec, DimensionMismatch, exterior_derivative
from nilforms.frames import abs_A_squared, contraction_eps5, h5, h21, k_a
from nilforms.gstruct import build_DB, direct_torsion
from nilforms.ring import expf, lap_e_m2f, rat


# ---------------------------------------------------------------------------
# Levi-Civita layer

def test_levi_civita_is_torsion_free(ka_family):
    _T, lc, _wm, _wp = ka_family
    assert all(not r for r in first_structure_residual(lc).values())


def test_koszul_output_is_skew_in_the_raised_pair(ka):
    # the raw Koszul value with (i, j) swapped must negate, so the
    # strictly-upper storage loses nothing (metric compatibility)
    dbar = {k: ka.dbar(k) for k in range(1, 8)}
    half = rat(1, 2)

    def raw(i, j, k):
        return (dbar[i].value_at(j, k) - dbar[k].value_at(i, j) + dbar[j].value_at(k, i)) * half

    rng = random.Random(7)
    for _ in range(40):
        i, j, k = rng.randint(1, 7), rng.randint(1, 7), rng.randint(1, 7)
        assert raw(i, j, k) == -raw(j, i, k)


def test_torsion_family_signs(ka, ka_family):
    T, lc, wm, wp = ka_family
    slc = torsion_slice(T)
    for (i, j) in wm.pairs():
        assert wm.entry(i, j) == lc.entry(i, j) + slc[(i, j)] * rat(1, 2)
        assert wp.entry(i, j) == lc.entry(i, j) - slc[(i, j)] * rat(1, 2)


def test_family_torsion_two_forms(ka, ka_family):
    # nabla^{(s)} has torsion 2-forms s * (contraction of T with ebar_i)
    T, _lc, wm, wp = ka_family
    res_m = first_structure_residual(wm)
    res_p = first_structure_residual(wp)
    for i in range(1, 8):
        assert res_m[i] == -interior(T, i)
        assert res_p[i] == interior(T, i)


def test_torsion_connection_input_guards(ka, ka_family):
    T, _lc, _wm, _wp = ka_family
    with pytest.raises(ValueError):
        koszul(ka, T, 2)
    with pytest.raises(DimensionMismatch):
        koszul(ka, ka.basis(1, 2), -1)
    with pytest.raises(DimensionMismatch):
        koszul(k_a(), T, -1)  # a twin coframe is not T's coframe
    with pytest.raises(DimensionMismatch):
        koszul(ka, None, 1)


def _assert_one_pass_matches_oracle(c):
    T = direct_torsion(c)
    for s in (-1, 0, 1):
        got = koszul(c, T, s)
        want = naive_torsion_connection(T, s)
        assert all(got.entry(i, j) == want[(i, j)] for (i, j) in got.pairs()), (c.A, s)
        assert any(want.values()) or not any(c.A)


@pytest.mark.parametrize("build", [k_a, h21, h5, lambda: contraction_eps5(ring.const("eps"))])
def test_one_pass_torsion_family_matches_entrywise_oracle_on_catalogue(build):
    _assert_one_pass_matches_oracle(build())


@given(st.lists(st.lists(st.integers(-4, 4), min_size=3, max_size=3), min_size=0, max_size=3))
@settings(max_examples=15, deadline=None)
def test_one_pass_torsion_family_matches_entrywise_oracle(A):
    # nabla^(s) in one Koszul pass equals lc - (s/2) torsion_slice built the old way
    _assert_one_pass_matches_oracle(CoframeSpec(A))


# ---------------------------------------------------------------------------
# the frozen connection table (24 assertions)

def test_minus_connection_matches_frozen_table(ka, ka_family):
    _T, _lc, wm, _wp = ka_family
    table = tables.minus_connection_table(ka)
    assert len(table) == 18
    checked = 0
    for (i, j), want in sorted(table.items()):
        assert wm.entry(i, j) == want, f"entry ({i},{j})"
        checked += 1
    for pair in tables.ZERO_PAIRS:
        assert not wm.entry(*pair), f"entry {pair} should vanish"
        checked += 1
    for (a, b, sign) in tables.MIRROR_PAIRS:
        assert wm.entry(*b) == wm.entry(*a) * sign
        checked += 1
    assert checked == 24


def test_minus_connection_gradient_block_is_antiselfdual(ka, ka_family):
    # the horizontal block pairs up exactly like the anti-self-dual trio
    _T, _lc, wm, _wp = ka_family
    assert wm.entry(1, 2) == wm.entry(3, 4)
    assert wm.entry(1, 3) == -wm.entry(2, 4)
    assert wm.entry(1, 4) == wm.entry(2, 3)


# ---------------------------------------------------------------------------
# the frozen curvature table (21 entries)

def test_minus_curvature_matches_frozen_table(ka, ka_curvatures):
    cur_m, _cur_p = ka_curvatures
    table = tables.minus_curvature_table(ka)
    assert len(table) == 21
    for (i, j), want in sorted(table.items()):
        assert cur_m.entry(i, j) == want, f"entry ({i},{j})"


def test_curvature_sign_forced_by_volume_identity(ka, ka_curvatures):
    # flipping the symbol-group sign in the sigma_3 block of entry (1, 3)
    # breaks the closed-form volume identity below, so that sign is not a
    # convention choice: it is forced by the table's own invariant
    cur_m, _ = ka_curvatures
    S23 = tables.col_dot(2, 3)
    flip = sigma_bar(ka, 3) * (rat(2) * expf(-4) * S23)
    entries = {p: cur_m.entry(*p) for p in cur_m.pairs()}
    entries[(1, 3)] = entries[(1, 3)] + flip
    flipped = CurvatureForms(ka, entries)

    want = _p1_fixture(ka)
    assert pontryagin4(cur_m) == want
    assert pontryagin4(flipped) != want


# ---------------------------------------------------------------------------
# torsion 3-form and its differential

def test_torsion_three_form_matches_fixture(ka, ka_family):
    T, *_ = ka_family
    assert T == tables.torsion_fixture(ka)


def test_torsion_differential_is_pure_volume(ka, ka_family):
    T, *_ = ka_family
    dT = exterior_derivative(T)
    assert dT == tables.torsion_divergence_fixture(ka)
    assert set(dT.comps) == {(1, 2, 3, 4)}


# ---------------------------------------------------------------------------
# pair-symmetry identity

def test_pair_symmetry_links_plus_and_minus_curvature(ka, ka_family, ka_curvatures):
    # R+(X,Y,Z,U) - R-(Z,U,X,Y) = (1/2) dT(X,Y,Z,U) for every quadruple
    T, *_ = ka_family
    cur_m, cur_p = ka_curvatures
    dT = exterior_derivative(T)
    half = rat(1, 2)
    for i, j, k, l in itertools.product(range(1, 8), repeat=4):
        lhs = riemann(cur_p, i, j, k, l) - riemann(cur_m, k, l, i, j)
        assert lhs == half * dT.value_at(i, j, k, l), (i, j, k, l)


# ---------------------------------------------------------------------------
# characteristic 4-form fixtures

def _p1_fixture(c):
    """8 [ 2-Hessian + 4-Laplacian - (3/8)|A|^2 lap(e^{-2f}) ] e^{-4f} ebar^{1234}."""
    scalar = (
        rat(8) * (ring.hessian2() + ring.p_laplacian4())
        - rat(3) * abs_A_squared(c) * lap_e_m2f()
    ).scale_expf(-4)
    return c.form(4, {(1, 2, 3, 4): scalar})


def test_characteristic_form_of_minus_connection(ka, ka_curvatures):
    cur_m, _ = ka_curvatures
    assert pontryagin4(cur_m) == _p1_fixture(ka)


def _random_rank_one(rng):
    while True:
        u = [rng.randint(-3, 3) for _ in range(3)]
        v = [rng.randint(-3, 3) for _ in range(3)]
        if any(u) and any(v):
            return [[ui * vj for vj in v] for ui in u]


def test_characteristic_form_of_rank_one_gauge_connections(ka):
    rng = random.Random(20240817)
    for _ in range(5):
        lam = _random_rank_one(rng)
        assert lam_rank(lam, ka) == 1
        p1 = pontryagin4(curvature(build_instanton_DLambda(lam, ka)))
        want = ka.form(4, {(1, 2, 3, 4): (rat(-4) * lam_squared(lam, ka)).scale_expf(-4)})
        assert p1 == want, lam


# ---------------------------------------------------------------------------
# the fused kernel against the per-pair reference

KERNEL_CONNECTIONS = ("kA-levi-civita", "kA-minus", "h21-levi-civita", "h21-minus", "kA-DLambda", "kA-DB")


@pytest.fixture(scope="module")
def kernel_connections(ka, ka_family, h21_family):
    _T, lc7, wm7, _wp = ka_family
    _T, lc5, wm5, _wp = h21_family
    lam = _random_rank_one(random.Random(31))
    conns = (lc7, wm7, lc5, wm5, build_instanton_DLambda(lam, ka), build_DB([[1, -2, 0], [3, 1, -1], [0, 2, 1]], ka))
    return dict(zip(KERNEL_CONNECTIONS, conns))


@pytest.mark.parametrize("name", KERNEL_CONNECTIONS)
def test_curvature_matches_per_pair_reference(name, kernel_connections):
    conn = kernel_connections[name]
    curv = curvature(conn)
    want = naive_curvature(conn)
    assert any(want.values())
    assert all(curv.entry(i, j) == want[(i, j)] for (i, j) in conn.pairs())


@pytest.mark.parametrize("name", KERNEL_CONNECTIONS)
def test_pontryagin4_matches_per_pair_reference(name, kernel_connections):
    curv = curvature(kernel_connections[name])
    want = naive_pontryagin4(curv)
    assert want
    assert pontryagin4(curv) == want


def test_gauge_connection_entry_pattern(ka):
    lam = [[1, 2, -1], [0, 3, 0], [0, 0, 0]]
    dl = build_instanton_DLambda(lam, ka)
    L = [ka.form(1, {(5,): rat(r[0]), (6,): rat(r[1]), (7,): rat(r[2])}) for r in lam]
    assert dl.entry(1, 2) == L[0]
    assert dl.entry(3, 4) == -L[0]
    assert dl.entry(1, 3) == L[1]
    assert dl.entry(2, 4) == L[1]
    assert dl.entry(1, 4) == L[2]
    assert dl.entry(2, 3) == -L[2]
    for pair in ((1, 5), (2, 6), (5, 6), (5, 7), (6, 7)):
        assert not dl.entry(*pair)


def test_gauge_matrix_rank_and_products(ka):
    assert lam_rank([[1, 0, 0], [0, 0, 0], [0, 0, 0]], ka) == 1
    assert lam_rank([[1, 0, 0], [0, 1, 0], [0, 0, 0]], ka) == 2
    assert lam_rank([[1, 0, 0], [0, 1, 0], [0, 0, 1]], ka) == 3
    assert lam_rank([[2, 4, 0], [1, 2, 0], [0, 0, 0]], ka) == 1
    with pytest.raises(ValueError):
        lam_rank([[ring.const("q"), 0, 0], [0, 0, 0], [0, 0, 0]], ka)


def test_gauge_matrix_rank_is_exact_for_integer_entries(ka):
    # u v^T has rank one; the same elimination with float quotients leaves a
    # rounding residue and reports rank two
    u, v = (-7, -9, -9), (1, 3, 7)
    assert lam_rank([[ui * vj for vj in v] for ui in u], ka) == 1

    cnum = k_a([[1, 2, 0], [0, 1, 1], [1, 0, 3]])
    lam = [[1, 0, 0], [0, 0, 0], [0, 0, 0]]
    la = lam_A_product(lam, cnum)
    assert la[0] == (rat(1), rat(2), rat(0))  # first row of A
    assert la[1] == (ring.ZERO, ring.ZERO, ring.ZERO)
    assert lam_squared(lam, cnum) == rat(5)


def test_five_leg_gauge_connection_accepts_flat_vector():
    c = h21(1, 2, 3)
    dl = build_instanton_DLambda([2, -1, 1], c)
    assert dl.entry(1, 2) == c.form(1, {(5,): rat(2)})
    assert dl.entry(1, 3) == c.form(1, {(5,): rat(-1)})
    assert dl.entry(1, 4) == c.form(1, {(5,): rat(1)})
    assert lam_squared([2, -1, 1], c) == rat(84)  # (4 + 1 + 1) * (1 + 4 + 9)


# ---------------------------------------------------------------------------
# substituted-matrix connection

def test_substituted_matrix_connection_reduces_to_minus_connection():
    # with B equal to the frame's own row matrix, the substituted connection
    # is exactly the (-)-connection of that frame
    A = [[1, 2, 0], [0, 1, 1], [1, 0, 3]]
    c = k_a(A)
    wm = koszul(c, direct_torsion(c), -1)
    db = build_DB(A, c)
    assert db == wm


def test_substituted_matrix_connection_five_legs():
    vals = (1, 1, 2)
    c = h21(*vals)
    wm = koszul(c, direct_torsion(c), -1)
    assert build_DB(list(vals), c) == wm
    assert build_DB([list(vals)], c) == wm  # nested shape accepted too


def test_substituted_matrix_connection_zero_matrix_is_flat_on_fibers():
    c = k_a([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    db = build_DB([[0, 0, 0], [0, 0, 0], [0, 0, 0]], c)
    for pair in ((1, 5), (2, 5), (3, 6), (4, 7), (5, 6), (6, 7)):
        assert not db.entry(*pair)
    # the horizontal gradient block survives
    assert db.entry(1, 2) == koszul(c, direct_torsion(c), -1).entry(1, 2)


def test_gauge_entries_are_read_by_fraction():
    c = h21(1, 1, 2)
    want = build_DB([Fraction(1, 2), 0, 1], c)
    assert build_DB(["1/2", 0, 1], c) == want
    assert build_DB([0.5, "0", ring.ONE], c) == want
    # a float is the short rational it round-trips from, as in frames: 0.1 is 1/10
    assert build_DB([0.1, 0, 0], c) == build_DB([Fraction(1, 10), 0, 0], c)
    with pytest.raises(ValueError):
        build_DB([0.1 + 0.2, 0, 0], c)
    assert build_instanton_DLambda(["1/3", -1, 2.5], c) == build_instanton_DLambda(
        [Fraction(1, 3), -1, Fraction(5, 2)], c
    )
    with pytest.raises(ValueError):
        build_DB(["x", 0, 0], c)


def test_substituted_matrix_shape_validation():
    c = k_a([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    with pytest.raises(ValueError):
        build_DB([[1, 0], [0, 1]], c)
    c5 = h21(1, 1, 1)
    with pytest.raises(ValueError):
        build_DB([1, 2], c5)


# ---------------------------------------------------------------------------
# curvature conventions

def test_riemann_reads_curvature_components(ka, ka_curvatures):
    cur_m, _ = ka_curvatures
    i, j, k, l = 1, 2, 1, 3
    assert riemann(cur_m, i, j, k, l) == cur_m.entry(l, k).value_at(i, j)
    assert riemann(cur_m, j, i, k, l) == -riemann(cur_m, i, j, k, l)


def test_scalar_curvature_gradient_free_part(ka, ka_family):
    # with the dilaton frozen (all jets -> 0) the scalar curvature of the
    # levi-civita connection is -|A|^2 e^{-4f}
    from nilforms.connection import scalar_curvature

    _T, lc, _wm, _wp = ka_family
    s = scalar_curvature(curvature(lc))
    jet_free = ring.from_monomials(
        (coef, k, powers) for coef, k, powers in s.monomials()
        if not any(ring.is_jet(sym) for sym, _ in powers)
    )
    assert jet_free == (-abs_A_squared(ka)).scale_expf(-4)
