"""Tests for the anomaly residual and the one-variable equation chain."""
from __future__ import annotations

import gc
import math
from fractions import Fraction

import pytest

from call_counts import call_counts, count
from nilforms import anomaly, gstruct, numeric, ring, scenarios
from nilforms.anomaly import (
    ConstraintViolated,
    Gauge,
    _u_rhs,
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
from nilforms.connection import build_instanton_DLambda, gauge_rows, lam_rank, lam_squared
from nilforms.elliptic import half_period
from nilforms.forms import DimensionMismatch
from nilforms.frames import abs_A_squared, h5, h21, k_a
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


I3 = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]


@pytest.mark.parametrize("call, shape", [
    (lambda: build_DB([], h21(1, 2, 3)), "1x3"),
    (lambda: Gauge(h21(1, 2, 3), "DB", []).p1, "1x3"),
    (lambda: build_instanton_DLambda([1, 2, 3], k_a(I3)), "3x3"),
    (lambda: anomaly_residual(k_a(I3), 1, ("DLambda", [1, 2, 3])), "3x3"),
    (lambda: build_instanton_DLambda([[1, 2, 3], 4, [5, 6, 7]], k_a(I3)), "3x3"),
    (lambda: build_DB(7, k_a(I3)), "3x3"),
], ids=["DB-empty", "DB-gauge-empty", "DLambda-flat", "DLambda-flat-residual", "DLambda-ragged", "DB-scalar"])
def test_a_misshapen_gauge_matrix_is_refused_with_its_shape(call, shape):
    with pytest.raises(ValueError, match=f"must be {shape}"):
        call()


def test_a_flat_gauge_matrix_is_the_one_row_or_the_one_column():
    c5 = h21(1, 2, 3)
    assert gauge_rows("DB", [1, 2, 3], c5) == ((rat(1), rat(2), rat(3)),)
    assert gauge_rows("DLambda", [1, 2, 3], c5) == ((rat(1),), (rat(2),), (rat(3),))


def test_build_db_needs_a_seven_or_five_leg_coframe():
    with pytest.raises(DimensionMismatch, match="dims 7 and 5"):
        build_DB(B7[:2], h5(1, 2))


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


def _count_residual_work(monkeypatch, residual) -> tuple:
    """(CoefExpr products, term products) that residual() builds."""
    term_products = 0
    mul_into = ring._mul_into

    def counted(acc, a, b, sign):
        nonlocal term_products
        term_products += len(a) * len(b)
        return mul_into(acc, a, b, sign)

    monkeypatch.setattr(ring, "_mul_into", counted)
    products = count(call_counts(residual), ring.CoefExpr.__mul__)
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
    # the same residual once the symbolic kA family and its residual are
    # derived: it is read off the family's held residual by substituting
    # numbers, which builds no ring product, so what is left is the closed
    # form's few products
    residual = _ka_dlambda_residual("specialised")
    residual()  # derives the family
    products, term_products = _count_residual_work(monkeypatch, residual)
    assert 0 < products <= 60
    assert 0 < term_products <= 200


# a fixed fresh-frames round: each (frame, gauge) pair once, with integer inputs
FRESH_ROUND = (
    (lambda: k_a([[1, -2, 3], [4, 5, -6], [7, 8, 9]]), "DLambda", [[2, -4, 6], [3, -6, 9], [-1, 2, -3]]),
    (lambda: k_a([[2, 0, 1], [-3, 1, 4], [5, -1, 2]]), "DB", [[1, 2, -3], [0, 4, 5], [-6, 7, 8]]),
    (lambda: h21(3, -1, 2), "DLambda", [4, -2, 6]),
    (lambda: h21(-5, 2, 7), "DB", [1, -3, 2]),
)
# the round built 558 Fractions when each ring product and substitution made one per term, 99
# when each numeric matrix entry was read as a Fraction, and 4 when each closed form made its
# rat(p, q) constants; the closed forms now read theirs from one held basis
FRESH_ROUND_FRACTIONS = 0


def _fresh_round():
    """Each FRESH_ROUND operation as the fresh-frames benchmark makes it: a residual and its closed form."""
    for frame, kind, rows in FRESH_ROUND:
        c = frame()
        got = anomaly_residual(c, "alphaP", (kind, rows))
        if kind == "DLambda":
            want = displayed_residual_dlambda(c, rows, "alphaP")
        else:
            want = displayed_residual_db(c, sum(x * x for row in gauge_rows(kind, rows, c) for x in row), "alphaP")
        assert got == want


def _warm_fresh_round():
    """Two FRESH_ROUNDs: the first derives the families, their gauges and their residuals, and
    the second keeps each residual's substitution plan (a set of symbols put in twice)."""
    for _ in range(2):
        _fresh_round()


def test_a_fresh_frames_round_builds_at_most_half_the_fractions():
    _warm_fresh_round()
    assert count(call_counts(lambda: Fraction(1, 3)), Fraction.__new__) == 1  # the counter is live
    made = [count(call_counts(_fresh_round), Fraction.__new__) for _ in range(2)]
    assert made[0] <= FRESH_ROUND_FRACTIONS and made[1] == made[0]


# Python calls of one FRESH_ROUND once its families are derived and their plans kept: 2,929,
# plus 2 %.  A round made 4,329 when each substitution decoded every term's factors and tested
# each slot, the closed forms canonicalised each product of a sum of products on its own, and
# the rank test read Lambda's rows a second time; 3,181 when each term of a substitution worked
# out its own factor and the closed forms summed their pieces one by one; 2,987 when a ring
# difference negated its right operand before adding it
FRESH_ROUND_CALLS = 2_987


def test_a_fresh_frames_round_makes_a_bounded_number_of_calls():
    # the cyclic collector is off, since the finalizers it runs on other tests' garbage would count too
    _warm_fresh_round()
    gc.collect()
    gc.disable()
    try:
        made = []
        for _ in range(2):
            counts = call_counts(_fresh_round)
            assert count(counts, anomaly_residual) == len(FRESH_ROUND)  # the counter is live
            made.append(sum(counts.values()))
    finally:
        gc.enable()
    assert made[0] <= FRESH_ROUND_CALLS and made[1] == made[0]


def test_an_integer_lambda_is_ranked_and_put_in_without_a_fraction():
    # the rank is read off Lambda's minors in ints, and each anomaly_residual ranks its Lambda before
    # the entries go into the family residual as ints
    frame, kind, rows = FRESH_ROUND[0]
    c = frame()
    anomaly_residual(c, "alphaP", (kind, rows))  # derives the family, its gauge and its residual
    cases = ((rows, 1), ([[0] * 3] * 3, 0), ([[1, 2, 3], [4, 5, 6], [7, 8, 9]], 2), ([[2, 0, 0], [0, 3, 0], [1, 0, -1]], 3))
    for lam, rank in cases:
        read = gauge_rows("DLambda", lam, c)
        counts = call_counts(lambda: lam_rank(read))
        assert lam_rank(read) == rank and count(counts, Fraction.__new__) == 0, lam
        assert count(counts, gauge_rows) == 0, lam  # the rows come read
    counts = call_counts(lambda: anomaly_residual(frame(), "alphaP", (kind, rows)))
    assert count(counts, lam_rank) == 1 and count(counts, Fraction.__new__) == 0


def test_the_dlambda_closed_form_holds_its_input_free_part():
    # the held basis both closed forms read: D_Lambda reads all five, D_B the first three
    basis = anomaly._closed_form_basis()
    assert basis is anomaly._closed_form_basis()
    fixed = rat(8) * ring.hessian2() + rat(8) * ring.p_laplacian4()
    assert basis == (lap_e2f(), rat(2), rat(-3, 4) * lap_e_m2f(), fixed * rat(1, 4), ring.ONE)


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


# (frame, kind, rows, |B|^2 read by hand); the numeric frames read p1 off their family
CLOSED_FORM_CASES = {
    "kA-DLambda": ("ka", "DLambda", LAM7, None),
    "kA-DB": ("ka", "DB", B7, 17),
    "h21-DLambda": ("h21_sym", "DLambda", LAM5, None),
    "h21-DB-float-and-string": ("h21_sym", "DB", [0.5, "1/3", 2], Fraction(1, 4) + Fraction(1, 9) + 4),
    "numeric-kA-DB-float-and-string": ("kA-numeric", "DB", [[0.5, "1/3", 0], [0, 1, 0], [1, 0, "1/3"]],
                                       Fraction(1, 4) + Fraction(1, 9) + 1 + 1 + Fraction(1, 9)),
    "numeric-kA-DLambda": ("kA-numeric", "DLambda", [[1, 2, 3], [2, 4, 6], [-1, -2, -3]], None),
    "numeric-h21-DLambda": ("h21-numeric", "DLambda", [Fraction(5, 4), 0, -1], None),
}
NUMERIC_FRAMES = {"kA-numeric": lambda: k_a([[1, 2, 0], [0, 1, 1], [2, 0, 1]]), "h21-numeric": lambda: h21(1, -2, 3)}


@pytest.mark.parametrize("case", sorted(CLOSED_FORM_CASES))
def test_a_gauge_holds_the_closed_form_of_its_residual(case, request):
    frame, kind, rows, absB2 = CLOSED_FORM_CASES[case]
    c = NUMERIC_FRAMES[frame]() if frame in NUMERIC_FRAMES else request.getfixturevalue(frame)
    gauge = Gauge(c, kind, rows)
    if kind == "DLambda":
        want = displayed_residual_dlambda(c, rows, const("alphaP"))
    else:
        want = displayed_residual_db(c, rat(absB2), const("alphaP"))
    assert gauge.displayed_residual == want
    assert gauge.displayed_residual is gauge.displayed_residual  # derived once and kept
    assert gauge.anomaly_residual == want  # and it is the residual's closed form


def test_a_rank_two_lambda_closed_form_check_reports_the_rank_refusal(ka):
    gauge = Gauge(ka, "DLambda", [[1, 0, 0], [0, 1, 0], [0, 0, 0]])
    checks = []
    scenarios._ck(checks, "anomaly-residual-closed-form", lambda: scenarios._closed_form(gauge))
    [check] = checks
    assert check.status == "error" and "rank <= 1" in check.details["exception"]
    assert "displayed_residual" not in vars(gauge)  # the residual is read first, and refuses


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
    [value] = e.evaluate({ring.jet_sym(1): [u1v / (2 * uv)], ring.jet_sym(): [fval], c("q"): [qv]})
    lhs = (uv ** mu) * (av ** ma) * value
    [rhs] = P.evaluate({c("u"): [uv], c("u1"): [u1v], c("alpha"): [av], c("q"): [qv]})
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


def test_weierstrass_cubic_match_is_the_u_identity_at_the_cubic_norm():
    alpha2, dd = const("alpha") ** 2, const("d") ** 2
    absA2 = rat(4, 3) * alpha2 * dd
    assert weierstrass_cubic_match() == u_identity_residual(const("absA2")).substitute({"absA2": absA2})
    # at that |A|^2 the bracket of the displayed identity is alpha^4 (4u^3 - 4 d^2 u - u'^2)
    _P, mu, ma = to_u_polynomial(solv4_lhs(const("absA2")))
    U, U1, AL = const("u"), const("u1"), const("alpha")
    cubic = AL ** 4 * U1 * rat(1, 4) * U ** (mu - 3) * AL ** (ma - 2) * (rat(4) * U ** 3 - rat(4) * dd * U - U1 ** 2)
    assert _u_rhs(absA2, mu, ma) == cubic


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
    pts = [(x, 0.0, 0.0, 0.0) for x in (0.3 * tau, 0.9 * tau, 1.5 * tau)]
    values = first.evaluate(numeric.build_assignment(prof, pts, {"absA2": absA2, "alpha": alpha}))
    assert len(values) == 3 and all(abs(v) < 1e-9 for v in values)
