"""Exterior-algebra unit and property tests: wedge, d, star, interior."""
from __future__ import annotations

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from naive_forms import interior, naive_d, naive_wedge, sigma_bar
from nilforms import ring
from nilforms.forms import (
    CoframeSpec,
    DimensionMismatch,
    df_form,
    dpsi_f_form,
    exterior_derivative,
    hodge_star,
    hodge_star_horizontal,
    omega_bar,
    wedge,
)
from nilforms.frames import h5, h21, quaternionic_heisenberg
from nilforms.ring import const, expf, jet, rat

GH = quaternionic_heisenberg()
H5 = h5(rat(1), rat(2))
H21 = h21(1, 0, 2)

_coefs = st.sampled_from(
    [rat(1), rat(-2), rat(1, 3), const("a"), jet(1), jet(3) * const("a"), expf(-2) * jet(2), expf(1)]
)


@st.composite
def forms_on(draw, frame, degrees=(0, 1, 2, 3)):
    p = draw(st.sampled_from(degrees))
    all_idx = list(itertools.combinations(range(1, frame.dim + 1), p))
    n = draw(st.integers(0, min(3, len(all_idx))))
    chosen = draw(st.permutations(all_idx)) if n else []
    comps = {}
    for idx in chosen[:n]:
        comps[idx] = draw(_coefs)
    return frame.form(p, comps)


# ---------------------------------------------------------------------------
# construction and component access

def test_basis_requires_increasing_indices():
    with pytest.raises(DimensionMismatch):
        GH.basis(2, 1)
    with pytest.raises(DimensionMismatch):
        GH.basis(1, 1)
    with pytest.raises(DimensionMismatch):
        GH.basis(8)


def test_value_at_uses_determinant_convention():
    e12 = GH.basis(1, 2)
    assert e12.value_at(1, 2) == rat(1)
    assert e12.value_at(2, 1) == rat(-1)
    assert e12.value_at(1, 1) == ring.ZERO
    assert e12.value_at(3, 4) == ring.ZERO
    with pytest.raises(DimensionMismatch):
        e12.value_at(1)


def test_scalar_and_zero_forms():
    assert not GH.form(0, {(): 0})
    assert GH.form(0, {(): rat(2)}).value_at() == rat(2)
    assert not GH.zero(3)


def test_coefficients_are_coerced_into_the_ring():
    half = Fraction(1, 2)
    assert GH.form(0, {(): half}) == GH.form(0, {(): rat(1, 2)})
    assert GH.form(1, {(1,): 3, (2,): half}) == GH.form(1, {(1,): rat(3), (2,): rat(1, 2)})
    assert GH.basis(1) * 3 == 3 * GH.basis(1) == GH.form(1, {(1,): 3})
    assert GH.basis(1) * const("a") == GH.form(1, {(1,): const("a")})
    assert CoframeSpec([[half, 0, 0]]).A == ((rat(1, 2), rat(0), rat(0)),)
    for bad in (lambda: GH.form(0, {(): 0.5}), lambda: GH.form(1, {(1,): "a"}), lambda: GH.basis(1) * 0.5):
        with pytest.raises(TypeError):
            bad()


def test_addition_degree_guard():
    with pytest.raises(DimensionMismatch):
        GH.basis(1) + GH.basis(1, 2)
    # adding the empty form of any degree is permitted
    assert GH.zero(2) + GH.basis(1) == GH.basis(1)


def test_cross_coframe_operations_rejected():
    other = quaternionic_heisenberg()
    with pytest.raises(DimensionMismatch):
        GH.basis(1) + other.basis(1)
    with pytest.raises(DimensionMismatch):
        GH.basis(1).wedge(other.basis(2))


# ---------------------------------------------------------------------------
# wedge algebra

def test_wedge_of_basis_legs():
    assert GH.basis(1).wedge(GH.basis(2)) == GH.basis(1, 2)
    assert GH.basis(2).wedge(GH.basis(1)) == -GH.basis(1, 2)
    assert not GH.basis(1).wedge(GH.basis(1))


@given(forms_on(GH), forms_on(GH))
@settings(max_examples=60, deadline=None)
def test_wedge_graded_commutativity(a, b):
    sign = (-1) ** (a.degree * b.degree)
    assert a.wedge(b) == b.wedge(a) * sign


@given(forms_on(GH), forms_on(GH), forms_on(GH))
@settings(max_examples=40, deadline=None)
def test_wedge_associativity_and_distributivity(a, b, c):
    assert a.wedge(b.wedge(c)) == a.wedge(b).wedge(c)
    if b.degree == c.degree:
        assert a.wedge(b + c) == a.wedge(b) + a.wedge(c)


@pytest.mark.parametrize("frame", [GH, H5, H21], ids=("7-leg", "6-leg", "5-leg"))
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_wedge_matches_per_pair_reference(frame, data):
    a, b = data.draw(forms_on(frame)), data.draw(forms_on(frame))
    assert a.wedge(b) == naive_wedge(a, b)


def test_pair_form_wedge_table():
    v4 = GH.basis(1, 2, 3, 4)
    for i in (1, 2, 3):
        for j in (1, 2, 3):
            sij = sigma_bar(GH, i).wedge(sigma_bar(GH, j))
            wij = omega_bar(GH, i).wedge(omega_bar(GH, j))
            if i == j:
                assert sij == v4 * rat(-2)
                assert wij == v4 * rat(2)
            else:
                assert not sij
                assert not wij
            assert not sigma_bar(GH, i).wedge(omega_bar(GH, j))


# ---------------------------------------------------------------------------
# exterior derivative

@given(forms_on(GH))
@settings(max_examples=60, deadline=None)
def test_d_squared_vanishes(a):
    assert not exterior_derivative(exterior_derivative(a))


@given(forms_on(H5))
@settings(max_examples=30, deadline=None)
def test_d_squared_vanishes_on_six_legs(a):
    assert not exterior_derivative(exterior_derivative(a))


@given(forms_on(GH), forms_on(GH))
@settings(max_examples=60, deadline=None)
def test_d_is_an_antiderivation(a, b):
    lhs = exterior_derivative(a.wedge(b))
    rhs = exterior_derivative(a).wedge(b) + a.wedge(exterior_derivative(b)) * ((-1) ** a.degree)
    assert lhs == rhs


@pytest.mark.parametrize("frame", [GH, H5, H21], ids=("7-leg", "6-leg", "5-leg"))
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_d_matches_per_pair_reference(frame, data):
    a = data.draw(forms_on(frame))
    assert exterior_derivative(a) == naive_d(a)


def test_d_of_scalar_is_weighted_gradient():
    # d(g ebar^0) for g = e^{2f}: components e^{-w_i f} d_i(e^{2f}) on the barred legs
    got = exterior_derivative(GH.form(0, {(): expf(2)}))
    want = GH.form(1, {(i,): expf(1) * rat(2) * jet(i) for i in (1, 2, 3, 4)})
    assert got == want


def test_structure_differentials_of_seven_leg_frame():
    # fiber legs: d ebar^{4+m} = e^{-2f} sigma_m for the identity row matrix
    for m in (1, 2, 3):
        assert GH.dbar(4 + m) == sigma_bar(GH, m) * expf(-2)
    # horizontal legs: d ebar^i = df wedge ebar^i
    for i in (1, 2, 3, 4):
        assert GH.dbar(i) == df_form(GH).wedge(GH.basis(i))


# ---------------------------------------------------------------------------
# Hodge star and interior product

@given(forms_on(GH, degrees=(0, 1, 2, 3, 4)))
@settings(max_examples=60, deadline=None)
def test_star_involution_in_dimension_seven(a):
    assert hodge_star(hodge_star(a)) == a  # p(7-p) is always even


@given(forms_on(H5, degrees=(0, 1, 2, 3)))
@settings(max_examples=40, deadline=None)
def test_star_involution_sign_in_dimension_six(a):
    sign = (-1) ** (a.degree * (6 - a.degree))
    assert hodge_star(hodge_star(a)) == a * sign


@given(forms_on(H21, degrees=(0, 1, 2)))
@settings(max_examples=40, deadline=None)
def test_star_involution_in_dimension_five(a):
    assert hodge_star(hodge_star(a)) == a


def test_star_of_volume_and_of_one():
    vol = GH.basis(*range(1, GH.dim + 1))
    assert hodge_star(GH.form(0, {(): 1})) == vol
    assert hodge_star(vol) == GH.form(0, {(): 1})


def test_horizontal_star_eigenforms():
    for i in (1, 2, 3):
        assert hodge_star_horizontal(sigma_bar(GH, i)) == -sigma_bar(GH, i)
        assert hodge_star_horizontal(omega_bar(GH, i)) == omega_bar(GH, i)
    with pytest.raises(DimensionMismatch):
        hodge_star_horizontal(GH.basis(1, 5))


def test_interior_contractions():
    a = GH.basis(1, 3, 5)
    assert interior(a, 1) == GH.basis(3, 5)
    assert interior(a, 3) == -GH.basis(1, 5)
    assert interior(a, 5) == GH.basis(1, 3)
    assert not interior(a, 2)
    assert not interior(interior(a, 3), 3)


@given(forms_on(GH), forms_on(GH), st.sampled_from(range(1, 8)))
@settings(max_examples=60, deadline=None)
def test_interior_is_an_antiderivation(a, b, k):
    lhs = interior(a.wedge(b), k)
    rhs = interior(a, k).wedge(b) + a.wedge(interior(b, k)) * ((-1) ** a.degree)
    assert lhs == rhs


def test_rotated_gradient_form():
    # d^psi f(X) = -df(psi X): components follow the quarter-turn on both planes
    got = dpsi_f_form(GH)
    e = expf(-1)
    want = GH.form(1, {(1,): e * jet(2), (2,): -(e * jet(1)), (3,): e * jet(4), (4,): -(e * jet(3))})
    assert got == want


# ---------------------------------------------------------------------------
# the fiber-matrix constructor

def test_structure_row_validation():
    with pytest.raises(DimensionMismatch):
        CoframeSpec([[1, 0, 0]] * 4)  # more than three fiber rows
    with pytest.raises(DimensionMismatch):
        CoframeSpec([[1, 0]])  # a row that is not three long
    with pytest.raises(DimensionMismatch):
        CoframeSpec([[1, 0, 0], [0, 1, 0, 0]])
