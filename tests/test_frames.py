"""Frame-catalogue tests: structure rows, integrability, contractions, leg drops."""
from __future__ import annotations

import random
from fractions import Fraction

import pytest

from naive_forms import sigma_bar
from nilforms import ring
from nilforms.forms import CoframeSpec
from nilforms.frames import (
    CATALOG,
    abs_A_squared,
    build_coframe,
    contraction_eps5,
    contraction_eps6,
    drop_degenerate_legs,
    h3,
    h5,
    h21,
    k_a,
    quaternionic_heisenberg,
)
from nilforms.ring import const, expf, rat


def test_catalogue_members_are_integrable():
    for name in CATALOG:
        c = build_coframe(name)
        assert all(not r for r in c.integrability_residuals().values()), name


def test_unknown_catalogue_id_rejected():
    with pytest.raises(ValueError):
        build_coframe("nope")


def test_seven_leg_frame_dimensions_and_rows():
    g = quaternionic_heisenberg()
    assert g.dim == 7
    assert g.A == ((rat(1), rat(0), rat(0)), (rat(0), rat(1), rat(0)), (rat(0), rat(0), rat(1)))
    assert abs_A_squared(g) == rat(3)

    c = k_a()
    assert c.dim == 7
    want = ring.CoefExpr()
    for r in (1, 2, 3):
        for m in (1, 2, 3):
            want = want + const(f"a{r}{m}") ** 2
    assert abs_A_squared(c) == want


def test_fiber_differentials_mix_pair_forms():
    rng = random.Random(7)
    given = [[[1, 2, 0], [0, -1, 1], [3, 0, 0]]]
    given += [[[rng.randint(-5, 5) for _ in range(3)] for _ in range(n)] for n in (0, 1, 2, 3, 3, 3)]
    frames = [build_coframe(name) for name in CATALOG]
    for A in given:
        c = CoframeSpec(A)
        assert c.A == tuple(tuple(rat(x) for x in row) for row in A)
        frames.append(c)
    for c in frames:
        assert c.dim == 4 + len(c.A)
        for r, row in enumerate(c.A, 1):
            want = c.zero(2)
            for m, entry in enumerate(row, 1):
                want = want + sigma_bar(c, m) * (entry * expf(-2))
            assert c.dbar(4 + r) == want, (c.A, r)


def test_k_a_shape_validation():
    with pytest.raises(ValueError):
        k_a([[1, 0], [0, 1]])


def test_lower_dimensional_members():
    assert h5().dim == 6
    assert h3().dim == 6
    assert h21().dim == 5
    assert abs_A_squared(h21(1, 2, 3)) == rat(14)
    with pytest.raises(ValueError):
        h21(0, 0, 0)


def test_float_parameters_snap_to_simple_rationals_or_fail():
    assert h5(0.1, 1).A[1][0] == rat(1, 10)  # snaps to the nearby rational
    with pytest.raises(ValueError):
        h5(1e-30, 1)  # below rational resolution; demand a Fraction


def test_weights_rescale_first_four_legs_only():
    c = quaternionic_heisenberg()
    assert c.weights == (1, 1, 1, 1, 0, 0, 0)
    assert h21().weights == (1, 1, 1, 1, 0)


# ---------------------------------------------------------------------------
# contractions and degenerate-leg drops

def test_contraction_families_interpolate():
    c6 = contraction_eps6(Fraction(1, 10))
    assert c6.dim == 7
    assert c6.A[2] == (rat(0), rat(0), rat(1, 10))

    c5 = contraction_eps5(Fraction(1, 100), 1, 2, 3)
    assert c5.dim == 7
    assert c5.A[1] == (rat(0), rat(1, 100), rat(0))


def test_contraction_limit_drops_dead_legs():
    c6 = contraction_eps6(0, const("a"), const("b"))
    assert c6.dim == 6
    assert c6.struct.keys() == h5().struct.keys()
    assert {k: v for k, v in c6.struct.items()} == {k: v for k, v in h5().struct.items()}

    c5 = contraction_eps5(0)
    assert c5.dim == 5
    assert c5.struct == h21().struct


def test_contraction_limit_can_keep_legs():
    c6 = contraction_eps6(0, drop=False)
    assert c6.dim == 7
    assert not c6.dbar(7)


def test_build_coframe_contraction_dispatch():
    assert build_coframe("eps6", eps=0).dim == 6
    assert build_coframe("eps5", eps=Fraction(1, 2)).dim == 7
    with pytest.raises(ValueError):
        build_coframe("eps4", eps=0)


def test_build_coframe_refuses_a_keyword_its_builder_does_not_take():
    assert build_coframe("eps6").dim == 6  # eps defaults to 0, as in contraction_eps6
    with pytest.raises(TypeError):
        build_coframe("gH", eps=1)
    with pytest.raises(TypeError):
        build_coframe("h21", a=1)


def test_drop_keeps_the_leading_rows():
    c = CoframeSpec([[1, 2, 3], [0, 0, 0], [0, 0, 0]])
    assert drop_degenerate_legs(c, [6, 7]).A == c.A[:1]
    assert drop_degenerate_legs(c, [7]).A == c.A[:2]
    c6 = contraction_eps6(0, rat(2), rat(3), drop=False)
    assert drop_degenerate_legs(c6, [7]).A == c6.A[:2] == h5(2, 3).A


def test_drop_rejects_live_or_interior_legs():
    c = quaternionic_heisenberg()
    with pytest.raises(ValueError):
        drop_degenerate_legs(c, [7])  # leg 7 has a nonzero differential
    with pytest.raises(ValueError):
        drop_degenerate_legs(contraction_eps6(0, drop=False), [6])  # not trailing
    with pytest.raises(ValueError):
        drop_degenerate_legs(CoframeSpec([[0, 0, 0]]), [4, 5])  # a horizontal leg
