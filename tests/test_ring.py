"""Coefficient-ring unit and property tests: arithmetic, jets, division, evaluation."""
from __future__ import annotations

import cProfile
import math
import pstats
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from nilforms import ring
from nilforms.ring import (
    CoefExpr,
    JetOrderExceeded,
    UnboundSymbol,
    const,
    evaluate_exact,
    expf,
    flat_laplacian,
    grad_square,
    hessian2,
    jet,
    p_laplacian4,
    rat,
    restrict_onevar,
    try_divide,
)

# ---------------------------------------------------------------------------
# strategies

_fracs = st.fractions(min_value=-4, max_value=4, max_denominator=5)

_atoms = st.sampled_from(
    [const("a"), const("b"), jet(1), jet(2), jet(3), jet(4), expf(-2), expf(1), expf(2)]
)


@st.composite
def ring_exprs(draw, max_terms=3, max_factors=3):
    """Random ring elements whose jets have order <= 1 (safe to differentiate twice)."""
    e = CoefExpr()
    for _ in range(draw(st.integers(0, max_terms))):
        m = rat(draw(_fracs))
        for _ in range(draw(st.integers(0, max_factors))):
            m = m * draw(_atoms)
        e = e + m
    return e


def _sym_value(sym) -> float:
    """Deterministic float for any symbol, for evaluation homomorphism checks."""
    kind, data = sym
    if kind == "c":
        return 1.25 if data == "a" else -0.75
    if not data:
        return 0.3  # f itself
    return 0.1 * sum(data) / len(data) + 0.01 * len(data)


def _assignment(*exprs):
    out = {}
    for e in exprs:
        for sym in e.symbols():
            out[sym] = _sym_value(sym)
    out[ring.jet_sym()] = 0.3
    return out


# ---------------------------------------------------------------------------
# constructors and basic arithmetic

def test_constructors_and_zero_one():
    assert rat(0).is_zero()
    assert not rat(1).is_zero()
    assert bool(const("a"))
    assert not bool(CoefExpr())
    assert ring.ZERO == CoefExpr()
    assert ring.ONE == rat(1)
    assert rat(2, 4) == rat(1, 2)
    assert rat(Fraction(3, 7)) == rat(3, 7)


def test_numbers_compare_equal_to_coerced_ring_elements():
    assert rat(2) == 2
    assert rat(1, 3) == Fraction(1, 3)
    assert const("a") != 2


def test_jet_indices_are_sorted_symmetric():
    assert jet(2, 1) == jet(1, 2)
    assert jet(3, 1, 2) == jet(1, 2, 3)


def test_jet_order_cap():
    with pytest.raises(JetOrderExceeded):
        jet(1, 1, 2, 2)
    with pytest.raises(ValueError):
        jet(5)


def test_power_and_negation():
    x = const("a") + jet(1)
    assert x ** 2 == x * x
    assert x ** 0 == rat(1)
    assert -(-x) == x
    assert x - x == CoefExpr()


def test_scale_expf_roundtrip_and_range():
    x = expf(2) * jet(1) + const("a")
    assert x.scale_expf(3).scale_expf(-3) == x
    assert x.expf_range() == (0, 2)
    assert expf(-4).expf_range() == (-4, -4)


def test_repr_is_deterministic():
    x = const("b") * jet(1, 2) + expf(-2) * rat(3, 2)
    y = expf(-2) * rat(3, 2) + const("b") * jet(1, 2)
    assert repr(x) == repr(y)


@given(ring_exprs(), ring_exprs(), ring_exprs())
@settings(max_examples=60, deadline=None)
def test_ring_axioms(x, y, z):
    assert (x + y) + z == x + (y + z)
    assert x + y == y + x
    assert x * y == y * x
    assert (x * y) * z == x * (y * z)
    assert (x + y) * z == x * z + y * z
    assert x + (-x) == CoefExpr()
    assert x * rat(1) == x
    assert x * rat(0) == CoefExpr()


# ---------------------------------------------------------------------------
# differentiation

def test_partial_of_exponential_factor():
    for k in (-4, -1, 2):
        assert expf(k).partial(3) == rat(k) * jet(3) * expf(k)


def test_partial_of_f_is_first_jet():
    assert jet().partial(2) == jet(2)
    assert jet(1).partial(1) == jet(1, 1)


def test_partial_raises_beyond_order_three():
    with pytest.raises(JetOrderExceeded):
        jet(1, 2, 3).partial(4)


@given(ring_exprs(), ring_exprs(), st.sampled_from((1, 2, 3, 4)))
@settings(max_examples=60, deadline=None)
def test_leibniz_rule(x, y, i):
    assert (x * y).partial(i) == x.partial(i) * y + x * y.partial(i)


@given(ring_exprs(), st.sampled_from((1, 2, 3, 4)), st.sampled_from((1, 2, 3, 4)))
@settings(max_examples=60, deadline=None)
def test_mixed_partials_commute(x, i, j):
    assert x.partial(i).partial(j) == x.partial(j).partial(i)


# ---------------------------------------------------------------------------
# substitution and evaluation

def test_substitute_constant_by_number():
    x = const("a") * jet(1) + const("a") ** 2
    y = x.substitute({"a": rat(3)})
    assert y == rat(3) * jet(1) + rat(9)
    assert ("c", "a") not in {s for s in y.symbols()}


def test_substitute_symbol_by_expression():
    x = const("a") * const("a")
    y = x.substitute({"a": jet(1) + rat(1)})
    assert y == (jet(1) + rat(1)) ** 2


@given(ring_exprs())
@settings(max_examples=40, deadline=None)
def test_substitute_then_evaluate_matches_direct_evaluate(x):
    assign = _assignment(x)
    y = x.substitute({"a": rat(2)})
    assign2 = dict(assign)
    assign2[("c", "a")] = 2.0
    assert math.isclose(y.evaluate(assign2), x.evaluate(assign2), rel_tol=1e-12, abs_tol=1e-12)


@given(ring_exprs(), ring_exprs())
@settings(max_examples=60, deadline=None)
def test_evaluate_is_a_homomorphism(x, y):
    assign = _assignment(x, y)
    vx, vy = x.evaluate(assign), y.evaluate(assign)
    assert math.isclose((x + y).evaluate(assign), vx + vy, rel_tol=1e-9, abs_tol=1e-9)
    assert math.isclose((x * y).evaluate(assign), vx * vy, rel_tol=1e-9, abs_tol=1e-9)


def test_evaluate_missing_symbol_raises():
    with pytest.raises(UnboundSymbol):
        (const("q") * jet(1)).evaluate({("j", (1,)): 1.0})
    with pytest.raises(UnboundSymbol):
        expf(2).evaluate({})  # f value needed for the exponential


def test_evaluate_exact_returns_fractions():
    x = expf(-2) * const("a") + rat(1, 3)
    v = evaluate_exact(x, {"a": Fraction(5)}, Fraction(9, 4))
    assert v == Fraction(5) * Fraction(4, 9) + Fraction(1, 3)
    assert isinstance(v, Fraction)


def test_evaluate_exact_rejects_odd_exponential_powers():
    with pytest.raises(UnboundSymbol):
        evaluate_exact(expf(1), {}, Fraction(4))
    # even powers are fine: e^{2kf} = (e^{2f})^k
    assert evaluate_exact(expf(4), {}, Fraction(3)) == Fraction(9)


def test_evaluate_exact_missing_symbol_raises():
    with pytest.raises(UnboundSymbol):
        evaluate_exact(const("missing"), {}, Fraction(1))


# ---------------------------------------------------------------------------
# restriction and exact division

def test_restrict_onevar_keeps_first_coordinate_jets():
    x = jet(1) * jet(1, 1) + jet(2) * const("a") + jet(1, 2) + rat(5)
    assert restrict_onevar(x) == jet(1) * jet(1, 1) + rat(5)


@given(ring_exprs(), ring_exprs())
@settings(max_examples=60, deadline=None)
def test_try_divide_recovers_exact_factor(x, y):
    assume(not x.is_zero())
    q = try_divide(x * y, x)
    assert q is not None
    assert q == y


@given(ring_exprs(), ring_exprs())
@settings(max_examples=60, deadline=None)
def test_try_divide_is_sound(x, y):
    assume(not y.is_zero())
    q = try_divide(x, y)
    if q is not None:
        assert q * y == x


def test_try_divide_non_multiple_returns_none():
    assert try_divide(const("a") + rat(1), const("b")) is None
    assert try_divide(jet(1), jet(2)) is None


def test_try_divide_clears_exponential_units():
    num = (jet(1) + const("a")) * expf(-4)
    den = (jet(1) + const("a")) * expf(2)
    assert try_divide(num, den) == expf(-6)


def test_try_divide_zero_denominator_raises():
    with pytest.raises(ZeroDivisionError):
        try_divide(rat(1), CoefExpr())


# ---------------------------------------------------------------------------
# named differential invariants

def test_flat_laplacian_of_f():
    want = sum((jet(i, i) for i in (1, 2, 3, 4)), CoefExpr())
    assert flat_laplacian(jet()) == want


def test_four_laplacian_expands_by_leibniz():
    g2 = grad_square()
    expanded = g2 * flat_laplacian(jet())
    for i in (1, 2, 3, 4):
        expanded = expanded + g2.partial(i) * jet(i)
    assert p_laplacian4() == expanded


def test_two_hessian_on_radial_quadratic():
    # f with f_ii = 2, f_ij = 0 has 2-Hessian = 4 * C(4,2) = 24
    assign = {}
    for i in (1, 2, 3, 4):
        for j in (1, 2, 3, 4):
            assign[ring.jet_sym(i, j)] = 2.0 if i == j else 0.0
    assert hessian2().evaluate(assign) == pytest.approx(24.0)


# ---------------------------------------------------------------------------
# canonical coefficients: int, or a Fraction with denominator > 1

def _is_canonical(e: CoefExpr) -> bool:
    return all(
        (type(c) is int and c != 0) or (type(c) is Fraction and c.denominator > 1)
        for c in e.terms.values()
    )


@given(ring_exprs(), ring_exprs(), st.sampled_from((1, 2, 3, 4)), st.integers(0, 3))
@settings(max_examples=80, deadline=None)
def test_operations_keep_coefficients_canonical(x, y, i, n):
    results = [
        x + y, x - y, x * y, x ** n, -x,
        x.partial(i), x.substitute({"a": y}), x.substitute({"b": 3}),
        try_divide(x * y, x) if x else CoefExpr(),
        try_divide(x, y) if y else None,
    ]
    for r in results:
        if r is not None:
            assert _is_canonical(r), r.terms


@given(ring_exprs(), ring_exprs())
@settings(max_examples=80, deadline=None)
def test_equality_is_exactly_zero_difference(x, y):
    for a, b in ((x, y), (x, (x + y) - y), (x * y, y * x), (x, x + rat(1, 2))):
        assert (a == b) == (a - b).is_zero()
        assert (a == b) == (a.terms == b.terms)


def test_constructor_converts_and_demotes_non_int_input():
    e = CoefExpr({(0, ()): Fraction(6, 3), (1, ()): 0.5, (2, ()): True, (3, ()): 0.0})
    assert e.terms == {(0, ()): 2, (1, ()): Fraction(1, 2), (2, ()): 1}
    assert _is_canonical(e)
    assert type(rat(4, 2).terms[(0, ())]) is int
    assert type(rat(Fraction(3)).terms[(0, ())]) is int


def test_try_divide_by_an_integer_stays_exact():
    x = const("x")
    q = try_divide(rat(2) * x, rat(4))
    assert q == rat(1, 2) * x
    coef = q.terms[(0, ((ring.const_sym("x"), 1),))]
    assert type(coef) is Fraction and coef == Fraction(1, 2)
    # 1/3 has no exact float, so a float quotient cannot pass this
    q = try_divide(x + jet(1), rat(3))
    assert q is not None and _is_canonical(q)
    assert q * rat(3) == x + jet(1)


def _fraction_constructions(fn) -> int:
    """Fraction.__new__ calls made by fn(), counted by cProfile."""
    prof = cProfile.Profile()
    prof.enable()
    try:
        fn()
    finally:
        prof.disable()
    code = Fraction.__new__.__code__
    key = (code.co_filename, code.co_firstlineno, code.co_name)
    return pstats.Stats(prof).stats.get(key, (0, 0))[1]


def test_integer_polynomial_work_constructs_no_fractions():
    def integer_work():
        p = rat(3) * const("a") * jet(1) - 2 * expf(2) * jet(2) + 5
        q = jet(1, 1) - 4 * const("b") * expf(-2) + jet(3) * jet(4)
        r = (p * q) ** 2 - p * q * p
        dr = sum((r.partial(i) for i in (1, 2, 3, 4)), CoefExpr())
        lap = flat_laplacian(p * p)
        sub = dr.substitute({"a": 7, "b": q})
        assert dr and lap and sub
        assert all(_is_canonical(e) for e in (r, dr, lap, sub))

    assert _fraction_constructions(integer_work) == 0
    # the counter is live: the same product with a 1/2 coefficient does build Fractions
    assert _fraction_constructions(lambda: (rat(1, 2) * jet(1) + 1) * (jet(2) + 3)) > 0


# ---------------------------------------------------------------------------
# the public view of an element: decoded terms, rational value, coercion

def _rebuild(coef, k, powers) -> CoefExpr:
    """One decoded term rebuilt from the public constructors alone."""
    out = rat(coef) * expf(k)
    for sym, p in powers:
        _, data = sym
        out = out * (jet(*data) if ring.is_jet(sym) else const(data)) ** p
    return out


@given(ring_exprs(max_terms=4), st.sampled_from((0, 1, 2)))
@settings(max_examples=80, deadline=None)
def test_decoded_terms_rebuild_the_element(x, n):
    x = x * jet(1, 2) ** n + x.partial(3)  # reach second-order jets and powers
    terms = list(x.monomials())
    assert len(terms) == len(x)
    assert ring.sum_exprs(_rebuild(*t) for t in terms) == x
    assert ring.from_monomials(terms) == x
    assert ring.from_monomials(reversed(terms)) == x
    assert ring.from_monomials((c, k, powers[::-1]) for c, k, powers in terms) == x
    assert all(type(c) is int or (type(c) is Fraction and c.denominator > 1) for c, _, _ in terms)


def test_is_jet_tells_jets_from_constants():
    assert ring.is_jet(ring.jet_sym()) and ring.is_jet(ring.jet_sym(1, 2))
    assert not ring.is_jet(ring.const_sym("a"))
    [(_, _, powers)] = (const("a") * jet(2)).monomials()
    assert [ring.is_jet(sym) for sym, _ in powers] == [False, True]


def test_as_fraction_reads_rational_constants_only():
    for value in (0, 3, -7, Fraction(1, 2), Fraction(-9, 4)):
        got = rat(value).as_fraction()
        assert type(got) is Fraction and got == value
    assert CoefExpr().as_fraction() == 0 and type(CoefExpr().as_fraction()) is Fraction
    for e in (const("a"), jet(1), expf(2), expf(-2) * rat(3), rat(1) + const("a"), rat(2) + jet()):
        assert e.as_fraction() is None


def test_coerce_is_the_one_way_into_the_ring():
    x = const("a") + jet(1)
    assert ring.coerce(x) is x
    assert ring.coerce(3) == rat(3) and ring.coerce(0) == CoefExpr()
    assert ring.coerce(Fraction(6, 4)) == rat(3, 2)
    assert ring.coerce(True) == rat(1)
    for bad in (0.5, "a", None, [1]):
        with pytest.raises(TypeError):
            ring.coerce(bad)
    # operators answer NotImplemented for what coerce refuses
    assert (x == "a") is False
    with pytest.raises(TypeError):
        x + 0.5
    with pytest.raises(TypeError):
        0.5 * x
