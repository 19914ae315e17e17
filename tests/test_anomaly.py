"""Tests for the anomaly residual and the one-variable equation chain."""
from __future__ import annotations

import cProfile
import math
import pstats
from fractions import Fraction

import pytest

from nilforms import gstruct, numeric, ring
from nilforms.anomaly import (
    ConstraintViolated,
    Gauge,
    anomaly_residual,
    d_parameter,
    displayed_residual_db,
    displayed_residual_dlambda,
    reduce_onevar,
    solv4_lhs,
    solv4_ode,
    split_jet_free,
    to_u_polynomial,
    u_identity_residual,
    weierstrass_cubic_match,
)
from nilforms.connection import build_instanton_DLambda, lam_squared
from nilforms.elliptic import half_period
from nilforms.forms import DimensionMismatch
from nilforms.frames import abs_A_squared, k_a
from nilforms.gstruct import build_DB, geometry
from nilforms.profiles import BadParams, profile
from nilforms.ring import const, expf, jet, lap_e2f, lap_e_m2f, rat

LAM7 = [[2, 1, -1], [0, 0, 0], [0, 0, 0]]
B7 = [[1, 2, 0], [0, 1, 1], [1, 0, 3]]
LAM5 = [2, -1, 1]


# ---------------------------------------------------------------------------
# Laplacian combinations

def test_lap_e2f_formula():
    want = ring.ZERO
    for i in ring.COORDS:
        want = want + (rat(2) * jet(i, i) + rat(4) * jet(i) ** 2) * expf(2)
    assert not (lap_e2f() - want)


def test_lap_e_m2f_formula():
    want = ring.ZERO
    for i in ring.COORDS:
        want = want + (rat(-2) * jet(i, i) + rat(4) * jet(i) ** 2) * expf(-2)
    assert not (lap_e_m2f() - want)


# ---------------------------------------------------------------------------
# gauge-connection dispatch

def _same_connection(a, b) -> bool:
    pairs = set(a.pairs()) | set(b.pairs())
    return not any(a.entry(i, j) - b.entry(i, j) for (i, j) in pairs)


def test_gauge_connection_dlambda_dispatch(ka):
    built = Gauge(ka, "DLambda", LAM7).connection
    assert _same_connection(built, build_instanton_DLambda(LAM7, ka))
    with pytest.raises(BadParams, match="unknown instanton kind"):
        Gauge(ka, "d-lambda", LAM7)  # the kind is spelled exactly


def test_gauge_connection_db_dispatch(ka):
    built = Gauge(ka, "DB", B7).connection
    assert _same_connection(built, build_DB(B7, ka))
    with pytest.raises(BadParams, match="unknown instanton kind"):
        Gauge(ka, "d_b", B7)


def test_anomaly_residual_reads_the_gauge_it_is_given(ka):
    gauge = Gauge(ka, "DLambda", LAM7)
    got = anomaly_residual(ka, "alphaP", gauge)
    assert got == anomaly_residual(ka, "alphaP", ("DLambda", LAM7))
    assert {"connection", "curvature", "p1"} <= set(vars(gauge))  # derived on the gauge and kept
    assert gauge.anomaly_residual == got and gauge.anomaly_residual is gauge.anomaly_residual
    with pytest.raises(DimensionMismatch, match="different coframe"):
        anomaly_residual(k_a(), "alphaP", gauge)


def test_gauge_connection_rejects_rank_two(ka):
    rank_two = [[1, 0, 0], [0, 1, 0], [0, 0, 0]]
    with pytest.raises(BadParams, match="rank"):
        anomaly_residual(ka, "alphaP", ("DLambda", rank_two))
    gauge = Gauge(ka, "DLambda", rank_two)
    assert gauge.instanton_residual  # the connection itself is built: it is no instanton
    for _ in range(2):  # refused again on every read, never kept
        with pytest.raises(BadParams, match="rank"):
            gauge.anomaly_residual


def test_gauge_connection_rejects_unknown_kind(ka):
    with pytest.raises(BadParams, match="unknown instanton kind"):
        Gauge(ka, "DQ", LAM7)
    with pytest.raises(BadParams, match="unknown instanton kind"):
        anomaly_residual(ka, "alphaP", ("DQ", LAM7))


# ---------------------------------------------------------------------------
# engine residual vs closed forms

def test_coefficient_arguments_accept_numbers_and_symbol_names(ka):
    want = displayed_residual_db(ka, rat(2), const("alphaP"))
    assert displayed_residual_db(ka, 2, "alphaP") == want
    assert displayed_residual_db(ka, Fraction(4, 2), const("alphaP")) == want
    assert displayed_residual_db(ka, "absB2", Fraction(1, 3)) == displayed_residual_db(
        ka, const("absB2"), rat(1, 3)
    )
    with pytest.raises(TypeError):
        displayed_residual_db(ka, 2.5, "alphaP")


def test_seven_leg_dlambda_residual_matches_closed_form(ka):
    got = anomaly_residual(ka, "alphaP", ("DLambda", LAM7))
    want = displayed_residual_dlambda(ka, LAM7, "alphaP")
    assert not (got - want)


def _calls(fn, *targets) -> list:
    """cProfile call counts of each target function made by fn()."""
    prof = cProfile.Profile()
    prof.enable()
    try:
        fn()
    finally:
        prof.disable()
    stats = pstats.Stats(prof).stats
    keys = [(t.__code__.co_filename, t.__code__.co_firstlineno, t.__code__.co_name) for t in targets]
    return [stats.get(key, (0, 0))[1] for key in keys]


def _count_residual_work(monkeypatch, residual) -> tuple:
    """(CoefExpr products, term products) that residual() builds."""
    term_products = 0
    mul_into = ring._mul_into

    def counted(acc, a, b, sign):
        nonlocal term_products
        term_products += len(a) * len(b)
        return mul_into(acc, a, b, sign)

    monkeypatch.setattr(ring, "_mul_into", counted)
    [products] = _calls(residual, ring.CoefExpr.__mul__)
    return products, term_products


def _ka_dlambda_residual(route):
    lam = [[1, 2, 3], [2, 4, 6], [-1, -2, -3]]

    def residual():
        c = k_a([[1, 2, 3], [-4, 5, 6], [7, -8, 9]])
        assert (geometry(c).family is None) == (route == "direct")
        got = anomaly_residual(c, "alphaP", ("DLambda", lam))
        assert got == displayed_residual_dlambda(c, lam, "alphaP")

    return residual


def test_residual_ring_work_is_bounded(monkeypatch):
    # one kA/DLambda residual derived on its own frame, the route of frames
    # with a symbol and of 6-leg frames: the wedge and d kernel multiplies raw
    # terms straight into each component, and the Koszul pass halves 2 omega
    # once instead of multiplying each entry by 1/2, so few CoefExpr products
    # are built; p1 multiplies each unordered pair of a curvature entry's
    # components once, so the term products stay below the 3,164 of
    # multiplying every pair twice
    monkeypatch.setattr(gstruct, "_family", lambda c: (None, None))
    products, term_products = _count_residual_work(monkeypatch, _ka_dlambda_residual("direct"))
    assert 0 < products <= 200
    assert 0 < term_products <= 2400


def test_specialised_residual_ring_work_is_bounded(monkeypatch):
    # the same residual once the symbolic kA family and its gauge are
    # derived: dT, p1(nabla^-) and p1(D_Lambda) are read off them by
    # substituting numbers, which builds no ring product, so what is left is
    # the closed form and the anomaly form's few products
    residual = _ka_dlambda_residual("specialised")
    residual()  # derives the family
    products, term_products = _count_residual_work(monkeypatch, residual)
    assert 0 < products <= 60
    assert 0 < term_products <= 200


def test_seven_leg_db_residual_matches_closed_form(ka):
    got = anomaly_residual(ka, "alphaP", ("DB", B7))
    absB2 = sum(b * b for row in B7 for b in row)
    want = displayed_residual_db(ka, absB2, "alphaP")
    assert not (got - want)


def test_five_leg_dlambda_residual_matches_closed_form(h21_sym):
    got = anomaly_residual(h21_sym, "alphaP", ("DLambda", LAM5))
    want = displayed_residual_dlambda(h21_sym, LAM5, "alphaP")
    assert not (got - want)


def test_five_leg_zero_gauge_residual_matches_closed_form(h21_sym):
    got = anomaly_residual(h21_sym, "alphaP", ("DB", [0, 0, 0]))
    want = displayed_residual_db(h21_sym, 0, "alphaP")
    assert not (got - want)


def test_non_volume_anomaly_form_is_rejected(ka, ka_family):
    _T, lc, _wm, _wp = ka_family
    gauge = Gauge(ka, "DB", B7)
    gauge.connection = lc  # in place of D_B: its p1 is no volume multiple
    with pytest.raises(ValueError, match="non-volume"):
        anomaly_residual(ka, "alphaP", gauge)


# ---------------------------------------------------------------------------
# one-variable reduction

def test_split_jet_free_partition():
    e = rat(3) + const("q") * jet(1) + expf(2) + const("p") ** 2
    free, rest = split_jet_free(e)
    assert not (free - (rat(3) + const("p") ** 2))
    assert not (rest - (const("q") * jet(1) + expf(2)))
    assert not (free + rest - e)


def test_solv4_lhs_formula():
    a2 = const("absA2")
    alpha2 = const("alpha") ** 2
    want = (
        expf(2).partial(1)
        + rat(3, 4) * alpha2 * a2 * expf(-2).partial(1)
        - rat(2) * alpha2 * jet(1) ** 3
    )
    assert not (solv4_lhs(a2) - want)
    assert not (solv4_ode(a2) - want.partial(1))


def test_reduce_onevar_equals_solv4_ode(ka):
    r = anomaly_residual(ka, "alphaP", ("DLambda", LAM7))
    red = reduce_onevar(r, abs_A_squared(ka), lam_squared(LAM7, ka))
    assert not (red - solv4_ode(abs_A_squared(ka)))


def test_five_leg_reduce_onevar_equals_solv4_ode(h21_sym):
    r = anomaly_residual(h21_sym, "alphaP", ("DLambda", LAM5))
    red = reduce_onevar(r, abs_A_squared(h21_sym), lam_squared(LAM5, h21_sym))
    assert not (red - solv4_ode(abs_A_squared(h21_sym)))


def test_a_gauge_keeps_its_one_variable_reduction(ka, h21_sym):
    for c, lam in ((ka, LAM7), (h21_sym, LAM5)):
        gauge = Gauge(c, "DLambda", lam)
        red = gauge.reduced_residual
        assert red == reduce_onevar(gauge.anomaly_residual, abs_A_squared(c), lam_squared(lam, c))
        assert gauge.reduced_residual is red  # derived once
    rank_two = Gauge(ka, "DLambda", [[1, 0, 0], [0, 1, 0], [0, 0, 0]])
    for _ in range(2):  # refused again on every read, never kept
        with pytest.raises(BadParams, match="rank"):
            rank_two.reduced_residual
    with pytest.raises(BadParams, match="DLambda"):
        Gauge(ka, "DB", B7).reduced_residual


def test_reduce_onevar_checks_the_constraint(ka):
    r = anomaly_residual(ka, "alphaP", ("DLambda", LAM7))
    with pytest.raises(ConstraintViolated):
        reduce_onevar(r, rat(5), lam_squared(LAM7, ka))


# ---------------------------------------------------------------------------
# u-substitution

def test_to_u_polynomial_semantics():
    e = expf(2) * jet(1) + expf(-2) * jet(1) ** 2 * const("q")
    P, mu, ma = to_u_polynomial(e)
    uv, u1v, av, qv = 2.0, 3.0, 1.5, 0.7
    fval = 0.5 * math.log(av * av * uv)
    c = ring.const_sym
    lhs = (uv ** mu) * (av ** ma) * e.evaluate(
        {ring.jet_sym(1): u1v / (2 * uv), ring.jet_sym(): fval, c("q"): qv}
    )
    rhs = P.evaluate({c("u"): uv, c("u1"): u1v, c("alpha"): av, c("q"): qv})
    assert abs(lhs - rhs) < 1e-9


def test_to_u_polynomial_rejects_bad_inputs():
    with pytest.raises(ValueError, match="odd"):
        to_u_polynomial(expf(1))
    with pytest.raises(ValueError, match="not expressible"):
        to_u_polynomial(jet(2))
    assert to_u_polynomial(ring.ZERO) == (ring.ZERO, 0, 0)


def test_u_identity_holds_exactly():
    assert not u_identity_residual(const("absA2"))


def test_weierstrass_cubic_match_is_exact():
    assert not weierstrass_cubic_match()


# ---------------------------------------------------------------------------
# numeric profile hook

def test_d_parameter_values():
    assert d_parameter(3.0, 1.0) == pytest.approx(1.5)
    alpha, d = 2.0, 0.7
    absA2 = 4.0 / 3.0 * alpha * alpha * d * d
    assert d_parameter(absA2, alpha) == pytest.approx(d)
    assert d_parameter(absA2, -alpha) == pytest.approx(d)


def test_weierstrass_profile_satisfies_first_integral():
    alpha = 1.3
    d = 0.8
    absA2 = 4.0 / 3.0 * alpha * alpha * d * d
    prof = profile("weierstrass", d=d, alpha=alpha)
    tau = half_period(d)
    first = solv4_lhs(const("absA2"))
    for x in (0.3 * tau, 0.9 * tau, 1.5 * tau):
        assi = numeric.build_assignment(prof, (x, 0.0, 0.0, 0.0), {"absA2": absA2, "alpha": alpha})
        assert abs(first.evaluate(assi)) < 1e-9
