"""Frame-catalogue tests: structure rows, integrability, contractions."""
from __future__ import annotations

import random
from fractions import Fraction

import pytest

from naive_forms import sigma_bar
from nilforms import ring
from nilforms.anomaly import anomaly_residual, displayed_residual_db, displayed_residual_dlambda
from nilforms.connection import gauge_rows
from nilforms.forms import CoframeSpec
from nilforms.frames import (
    CATALOG,
    abs_A_squared,
    build_coframe,
    contraction_eps5,
    contraction_eps6,
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
# contractions

def test_contraction_families_interpolate():
    c6 = contraction_eps6(Fraction(1, 10))
    assert c6.dim == 7
    assert c6.A[2] == (rat(0), rat(0), rat(1, 10))

    c5 = contraction_eps5(Fraction(1, 100), 1, 2, 3)
    assert c5.dim == 7
    assert c5.A[1] == (rat(0), rat(1, 100), rat(0))


def test_every_eps_keeps_seven_legs_and_the_default_is_symbolic():
    eps, zero = const("eps"), rat(0)
    for e in (0, Fraction(1, 10), None):
        assert contraction_eps6(e).dim == 7 and contraction_eps5(e).dim == 7, e
    c6, c5 = contraction_eps6(None), contraction_eps5(None)
    assert c6.A == h5().A + ((zero, zero, eps),)
    assert c5.A == h21().A + ((zero, eps, zero), (zero, zero, eps))
    assert build_coframe("eps6").A == c6.A and build_coframe("eps5").A == c5.A


def test_contraction_limit_is_the_direct_frame_and_flat_legs():
    a, b, zero_row = const("a"), const("b"), (rat(0),) * 3
    c6 = contraction_eps6(0, a, b)
    assert c6.A == h5(a, b).A + (zero_row,)
    assert c6.struct == h5().struct

    c5 = contraction_eps5(0)
    assert c5.A == h21().A + (zero_row, zero_row)
    assert c5.struct == h21().struct


def test_build_coframe_contraction_dispatch():
    assert build_coframe("eps6", eps=0).A == contraction_eps6(0).A
    assert build_coframe("eps5", eps=Fraction(1, 2)).dim == 7
    with pytest.raises(ValueError):
        build_coframe("eps4", eps=0)


def test_build_coframe_refuses_a_keyword_its_builder_does_not_take():
    assert build_coframe("eps6").dim == 7  # eps defaults to its symbol, as in contraction_eps6
    with pytest.raises(TypeError):
        build_coframe("gH", eps=1)
    with pytest.raises(TypeError):
        build_coframe("h21", a=1)


_FAMILY_FRAMES = {
    "kA": (lambda: k_a([[1, -2, 3], [4, 5, -6], [7, 8, 9]]),
           {"DLambda": [[2, -4, 6], [3, -6, 9], [-1, 2, -3]], "DB": [[1, 2, -3], [0, 4, 5], [-6, 7, 8]]}),
    "h21": (lambda: h21(3, -1, 2), {"DLambda": [4, -2, 6], "DB": [1, -3, 2]}),
}


@pytest.mark.parametrize("name", sorted(_FAMILY_FRAMES))
def test_a_frame_read_off_its_family_never_builds_its_structure_constants(name):
    # each residual and closed form of a numeric kA or h21 frame comes from its family, so the
    # frame's own table is never derived; a twin frame that calls dbar derives it on first use,
    # and it is the table of d e^{4+r} = sum_m A[r][m] sigma_m
    build, gauges = _FAMILY_FRAMES[name]
    c = build()
    for kind, rows in gauges.items():
        got = anomaly_residual(c, "alphaP", (kind, rows))
        if kind == "DLambda":
            assert got == displayed_residual_dlambda(c, rows, "alphaP")
        else:
            entries = [x for row in gauge_rows(kind, rows, c) for x in row]
            assert got == displayed_residual_db(c, ring.dot(entries, entries), "alphaP")
    assert "struct" not in vars(c)
    twin = build()
    twin.dbar(5)
    assert "struct" in vars(twin)
    assert set(twin.struct) == {k for k, row in enumerate(twin.A, 5) if any(row)}
    for k, row in enumerate(twin.A, 5):
        want = twin.zero(2)
        for m, x in enumerate(row, 1):
            want = want + sigma_bar(twin, m) * x
        assert not (twin.form(2, twin.struct.get(k, {})) - want), k
