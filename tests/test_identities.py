"""Universal identities on the symbolic families: every fibre matrix, every gauge matrix, every eps.

The scenarios check each gauge at one numeric Lambda or B per report; here
the gauge entries are free symbols too, so each identity is checked as a
polynomial identity in the fibre matrix, the gauge matrix and the dilaton
jets at once.
"""
from __future__ import annotations

import pytest

from nilforms import ring
from nilforms.anomaly import Gauge, displayed_residual_db, displayed_residual_dlambda, family_residual
from nilforms.gstruct import catalogue_geometry
from nilforms.ring import const

_FAMILIES = ("kA", "h21")


def _free_rows(kind: str, c) -> tuple:
    """The gauge matrix of kind on c with the free symbols family_residual names: entry (r, m) is kind + "rm"."""
    nfib = c.dim - 4
    nrows, ncols = (3, nfib) if kind == "DLambda" else (nfib, 3)
    return tuple(tuple(const(f"{kind}{r}{m}") for m in range(1, ncols + 1)) for r in range(1, nrows + 1))


@pytest.mark.parametrize("name", _FAMILIES)
@pytest.mark.parametrize("kind", ["DLambda", "DB"])
def test_the_family_residual_is_its_closed_form_for_every_gauge_matrix(name, kind):
    fam = catalogue_geometry(name)
    c = fam.coframe
    rows = _free_rows(kind, c)
    if kind == "DLambda":
        want = displayed_residual_dlambda(c, rows, "alphaP")
    else:
        entries = [b for row in rows for b in row]
        want = displayed_residual_db(c, ring.dot(entries, entries), "alphaP")
    got = family_residual(fam, kind)
    assert got and got == want


@pytest.mark.parametrize("name", _FAMILIES)
def test_a_rank_one_lambda_is_an_instanton_for_every_u_and_v(name):
    c = catalogue_geometry(name).coframe
    u = [const(f"u{r}") for r in (1, 2, 3)]
    v = [const(f"v{m}") for m in range(1, c.dim - 3)]
    rows = tuple(tuple(ur * vm for vm in v) for ur in u)
    assert not any(Gauge(c, "DLambda", rows).instanton_residual.values())


def test_a_free_three_by_three_lambda_is_no_instanton():
    c = catalogue_geometry("kA").coframe
    residual = Gauge(c, "DLambda", _free_rows("DLambda", c)).instanton_residual
    assert sum(1 for x in residual.values() if x) == 18  # so the rank condition is needed


@pytest.mark.parametrize("name", _FAMILIES)
def test_every_free_b_instanton_entry_is_a_multiple_of_the_onshell_factor(name):
    c = catalogue_geometry(name).coframe
    gauge = Gauge(c, "DB", _free_rows("DB", c))
    factor = ring.onshell_factor(gauge.abs_B_squared)
    nonzero = [x for x in gauge.instanton_residual.values() if x]
    assert len(nonzero) == 6
    assert all(ring.try_divide(x, factor) is not None for x in nonzero)


def _eps_order(coef) -> int:
    """The lowest power of eps over the terms of coef."""
    eps = ring.const_sym("eps")
    return min(dict(powers).get(eps, 0) for _, _, powers in coef.monomials())


@pytest.mark.parametrize("name, direct_dim", [("eps6", 6), ("eps5", 5)])
def test_every_dropped_leg_curvature_coefficient_vanishes_to_first_order_in_eps(name, direct_dim):
    # a dropped leg is one above the direct frame's dimension, as in the contraction scenarios
    cur = catalogue_geometry(name).curv_minus
    orders = [_eps_order(coef) for (i, j) in cur.pairs() for idx, coef in cur.entry(i, j).comps.items()
              if max(i, j, *idx) > direct_dim]
    assert orders and min(orders) >= 1 and 1 in orders
