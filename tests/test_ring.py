"""Coefficient-ring unit and property tests: arithmetic, jets, division, evaluation."""
from __future__ import annotations

import cProfile
import functools
import json
import math
import os
import pickle
import pstats
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

import naive_forms
from nilforms import ring
from nilforms.profiles import profile
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
    assert not rat(0)
    assert rat(1)
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
    assert x.scale_expf(-4) == expf(-2) * jet(1) + expf(-4) * const("a")
    assert expf(-4).scale_expf(4) == rat(1)


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


def _to_sympy(sp, e):
    """e as a sympy expression: constants and jets as symbols, e^{kf} as exp(k f)."""
    f = sp.Symbol("f")

    def sym(s):
        kind, data = s
        if kind == "c":
            return sp.Symbol(f"c_{data}")
        return sp.Symbol("f_" + "".join(map(str, data))) if data else f

    return sp.Add(*(sp.Rational(coef) * sp.exp(k * f) * sp.Mul(*(sym(s) ** p for s, p in powers))
                    for coef, k, powers in e.monomials()))


# a value put in for a symbol: a number, a constant element, or an element with symbols
_values = st.one_of(_fracs, _fracs.map(rat), ring_exprs(max_terms=2, max_factors=2))


@given(ring_exprs(max_terms=4), st.dictionaries(st.sampled_from(("a", "b")), _values, max_size=2))
@settings(max_examples=80, deadline=None)
def test_substitute_equals_sympy_subs(x, values):
    sp = pytest.importorskip("sympy")
    x = x * x  # powers above one
    got = x.substitute(values)
    assert _is_canonical(got)
    subs = {sp.Symbol(f"c_{name}"): _to_sympy(sp, ring.coerce(v)) for name, v in values.items()}
    assert sp.expand(_to_sympy(sp, x).subs(subs, simultaneous=True) - _to_sympy(sp, got)) == 0


def test_substitute_reads_names_and_symbols_and_refuses_a_float():
    x = const("a") ** 3 * jet(1) - const("b") * expf(2) + const("a") * const("b")
    want = rat(8) * jet(1) - rat(1, 2) * expf(2) + rat(1)
    assert x.substitute({"a": 2, ring.const_sym("b"): Fraction(1, 2)}) == want
    assert x.substitute({"a": rat(2), "b": rat(1, 2)}) == want
    assert x.substitute({"a": 0, "b": 0}) == ring.ZERO
    assert x.substitute({"never_seen": 5}) == x
    with pytest.raises(TypeError):
        x.substitute({"a": 0.5})


def test_substituting_numbers_builds_no_ring_product(monkeypatch):
    x = (const("a") * jet(1) + const("b") ** 2 * expf(2) + rat(1, 3)) ** 3
    want = x.substitute({"a": const("c")}).substitute({"c": 2, "b": Fraction(-5, 4)})
    products = 0
    mul = ring.CoefExpr.__mul__

    def counted(a, b):
        nonlocal products
        products += 1
        return mul(a, b)

    monkeypatch.setattr(ring.CoefExpr, "__mul__", counted)
    assert x.substitute({"a": 2, "b": Fraction(-5, 4)}) == want
    assert products == 0
    x.substitute({"a": const("c")})
    assert products > 0  # a symbol put to a non-constant element multiplies


def test_the_input_free_jet_forms_are_built_once_and_shared():
    # an element is immutable, so the one built on the first call is safe to share
    for fn in (ring.lap_e2f, ring.lap_e_m2f, hessian2, p_laplacian4):
        assert fn() is fn()


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


_PLAN_SYMS = (ring.const_sym("a"), ring.const_sym("b"), ring.jet_sym(), ring.jet_sym(1), ring.jet_sym(1, 2),
              ring.jet_sym(2, 3, 4))


@st.composite
def float_plan_cases(draw):
    """(element, tables): int and Fraction coefficients, e^{kf} and powers <= 3, several tables."""
    terms = []
    for _ in range(draw(st.integers(1, 5))):
        coef = draw(st.one_of(st.integers(-50, 50), st.fractions(-9, 9, max_denominator=12)))
        powers = [(sym, draw(st.integers(0, 3))) for sym in _PLAN_SYMS if draw(st.booleans())]
        terms.append((coef, draw(st.integers(-3, 3)), powers))
    values = st.floats(-1.5, 1.5, allow_nan=False, allow_infinity=False)
    tables = draw(st.lists(st.fixed_dictionaries({sym: values for sym in _PLAN_SYMS}), min_size=2, max_size=4))
    return ring.from_monomials(terms), tables


@given(float_plan_cases())
@settings(max_examples=80, deadline=None)
def test_evaluate_plan_matches_the_per_term_loop_bit_for_bit(case):
    e, tables = case
    for table in tables + tables[:1]:  # the first table again, on the kept plan
        assert float.hex(e.evaluate(table)) == float.hex(naive_forms.evaluate_reference(e, table))


@given(float_plan_cases(), st.sampled_from(_PLAN_SYMS))
@settings(max_examples=40, deadline=None)
def test_evaluate_plan_raises_for_an_unbound_symbol_on_every_call(case, missing):
    e, tables = case
    e.evaluate(tables[0])  # the plan now exists
    short = {sym: v for sym, v in tables[1].items() if sym != missing}
    needs_it = missing in e.symbols() or (missing == ring.jet_sym() and any(k for _, k, _ in e.monomials()))
    for _ in range(2):
        if needs_it:
            for fn in (e.evaluate, functools.partial(naive_forms.evaluate_reference, e)):
                with pytest.raises(UnboundSymbol):
                    fn(short)
        else:
            assert float.hex(e.evaluate(short)) == float.hex(naive_forms.evaluate_reference(e, short))


def test_evaluate_raises_for_f_under_an_exponential_before_and_after_the_plan():
    e = expf(-2) * rat(3, 7) + const("a") ** 3
    table = {ring.const_sym("a"): 0.5}
    for _ in range(2):
        with pytest.raises(UnboundSymbol):
            e.evaluate(table)
    full = {**table, ring.jet_sym(): 0.25}
    assert float.hex(e.evaluate(full)) == float.hex(naive_forms.evaluate_reference(e, full))
    with pytest.raises(UnboundSymbol):
        e.evaluate(table)


def test_evaluate_exact_returns_fractions():
    x = expf(-2) * const("a") + rat(1, 3)
    v = evaluate_exact(x, {ring.const_sym("a"): Fraction(5)}, Fraction(9, 4))
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


_exact_atoms = st.sampled_from([const("a"), const("b"), jet(1), jet(2, 3), jet(1, 1, 4), jet()])
_exact_values = st.fractions(min_value=-9, max_value=9, max_denominator=40)


@st.composite
def exact_exprs(draw, odd: bool):
    """Ring elements with Fraction coefficients and e^{kf} factors of k in -6..6, even unless odd."""
    e = CoefExpr()
    for _ in range(draw(st.integers(0, 5))):
        k = draw(st.integers(-6, 6) if odd else st.integers(-3, 3).map(lambda h: 2 * h))
        m = rat(draw(_fracs)) * expf(k)
        for _ in range(draw(st.integers(0, 3))):
            m = m * draw(_exact_atoms)
        e = e + m
    return e


@settings(max_examples=150, deadline=None)
@given(data=st.data(), odd=st.booleans())
def test_evaluate_exact_matches_the_term_by_term_walk(data, odd):
    # the integer sums against the Fraction walk they replaced: equal values, or
    # the same UnboundSymbol for a missing symbol or an odd k
    e = data.draw(exact_exprs(odd))
    syms = sorted(e.symbols())
    table = dict(zip(syms, data.draw(st.lists(_exact_values, min_size=len(syms), max_size=len(syms)))))
    missing = data.draw(st.sampled_from([None, *syms]))
    if missing is not None:
        del table[missing]
    e2f = data.draw(_exact_values.filter(bool))
    try:
        want = naive_forms.evaluate_exact_reference(e, table, e2f)
    except UnboundSymbol as exc:
        for _ in range(2):  # the first call and one on the plan it keeps
            with pytest.raises(UnboundSymbol) as got:
                evaluate_exact(e, table, e2f)
            assert str(got.value) == str(exc)
        return
    for _ in range(2):
        got = evaluate_exact(e, table, e2f)
        assert type(got) is Fraction and got == want


def test_evaluate_exact_builds_one_fraction_per_call():
    e = p_laplacian4() * rat(3, 7) + hessian2() * expf(-2) * const("a") + flat_laplacian(expf(2)) * rat(-1, 5)
    x = (Fraction(1, 3), Fraction(-2, 5), Fraction(3, 4), Fraction(1, 7))
    g, table = profile("fundamental", c=3).jets_exact(x)
    table[ring.const_sym("a")] = Fraction(-2, 3)
    assert _fraction_constructions(lambda: [evaluate_exact(e, table, g) for _ in range(5)]) == 5


# ---------------------------------------------------------------------------
# restriction and exact division

def test_restrict_onevar_keeps_first_coordinate_jets():
    x = jet(1) * jet(1, 1) + jet(2) * const("a") + jet(1, 2) + rat(5)
    assert restrict_onevar(x) == jet(1) * jet(1, 1) + rat(5)


@given(ring_exprs(), ring_exprs())
@settings(max_examples=60, deadline=None)
def test_try_divide_recovers_exact_factor(x, y):
    assume(x)
    q = try_divide(x * y, x)
    assert q is not None
    assert q == y


@given(ring_exprs(), ring_exprs())
@settings(max_examples=60, deadline=None)
def test_try_divide_is_sound(x, y):
    assume(y)
    q = try_divide(x, y)
    if q is not None:
        assert q * y == x


def test_try_divide_non_multiple_returns_none():
    assert try_divide(const("a") + rat(1), const("b")) is None
    assert try_divide(jet(1), jet(2)) is None
    x, y = const("x"), const("y")
    assert try_divide(x ** 1200 - rat(2), x - rat(1)) is None
    assert try_divide(x ** 1200 - rat(1), x - rat(1) + y) is None
    assert try_divide(x ** 1200 - rat(1), x ** 1201 - rat(1)) is None
    assert try_divide(x ** 5 * expf(1), x * expf(1) + expf(2)) is None


def test_try_divide_returns_a_long_exact_quotient():
    x = const("x")
    geometric = ring.sum_exprs(x ** i for i in range(1200))
    assert try_divide(x ** 1200 - rat(1), x - rat(1)) == geometric
    # e^{kf} is a unit: the quotient's k is the difference of the k's
    assert try_divide((x ** 1200 - rat(1)) * expf(3), (x - rat(1)) * expf(-1)) == geometric * expf(4)


def test_try_divide_clears_exponential_units():
    num = (jet(1) + const("a")) * expf(-4)
    den = (jet(1) + const("a")) * expf(2)
    assert try_divide(num, den) == expf(-6)


def test_try_divide_zero_denominator_raises():
    with pytest.raises(ZeroDivisionError):
        try_divide(rat(1), CoefExpr())


def test_try_divide_refuses_a_remainder_that_leaves_its_field():
    lo = const("td_lo")  # interned first, so hi holds the higher field and leads
    hi = const("td_hi")
    # the first remainder term, lo^(MAX_POWER+1), sets a guard bit: no wrap, no raise
    assert try_divide(hi * lo ** (ring.MAX_POWER - 1), hi + lo ** 2) is None


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
        assert (a == b) == (not (a - b))
        assert (a == b) == (a.terms == b.terms)


def test_constructor_converts_and_demotes_non_int_input():
    e = ring.from_monomials([(Fraction(6, 3), 0, ()), (0.5, 1, ()), (True, 2, ()), (0.0, 3, ())])
    assert sorted(e.monomials(), key=lambda t: t[1]) == [(2, 0, ()), (Fraction(1, 2), 1, ()), (1, 2, ())]
    assert [type(c) for c, _, _ in sorted(e.monomials(), key=lambda t: t[1])] == [int, Fraction, int]
    assert _is_canonical(e)
    assert [type(c) for c, _, _ in rat(4, 2).monomials()] == [int]
    assert [type(c) for c, _, _ in rat(Fraction(3)).monomials()] == [int]
    assert rat(4, 2).as_fraction() == 2


def test_try_divide_by_an_integer_stays_exact():
    x = const("x")
    q = try_divide(rat(2) * x, rat(4))
    assert q == rat(1, 2) * x
    [(coef, k, powers)] = q.monomials()
    assert (k, powers) == (0, ((ring.const_sym("x"), 1),))
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


def test_exact_reads_a_float_as_the_short_rational_it_round_trips_from():
    x = const("a") + jet(1)
    assert ring.exact(x) is x
    assert ring.exact(0.1) == rat(1, 10) and ring.exact(-2.5) == rat(-5, 2)
    assert ring.exact("1/3") == rat(1, 3) and ring.exact(Fraction(2, 6)) == rat(1, 3)
    assert ring.exact(4) == rat(4)
    for bad in (0.1 + 0.2, 1e-12, float("nan"), float("inf"), math.pi, 1 / 3):  # no short decimal
        with pytest.raises(ValueError):
            ring.exact(bad)
    with pytest.raises(TypeError):
        ring.exact([1])


def test_exact_refuses_a_bool():
    for flag in (True, False):  # JSON's true and false are no numbers, though bool subclasses int
        with pytest.raises(TypeError):
            ring.exact(flag)


# ---------------------------------------------------------------------------
# the packed monomial key: products, field limits, interning order

def _reference_product(x: CoefExpr, y: CoefExpr) -> dict:
    """{(k, powers): coef} of x * y, multiplied out from the decoded terms alone."""
    out: dict = {}
    for c1, k1, p1 in x.monomials():
        for c2, k2, p2 in y.monomials():
            powers = dict(p1)
            for sym, p in p2:
                powers[sym] = powers.get(sym, 0) + p
            key = (k1 + k2, tuple(sorted(powers.items())))
            out[key] = out.get(key, 0) + c1 * c2
    return {key: c for key, c in out.items() if c}


@given(ring_exprs(max_terms=4), ring_exprs(max_terms=4), st.sampled_from((1, 2, 3, 4)))
@settings(max_examples=80, deadline=None)
def test_product_monomials_match_a_reference_product(x, y, i):
    y = y + y.partial(i) * jet(1, i)  # second-order jets and repeated symbols
    got = {(k, powers): c for c, k, powers in (x * y).monomials()}
    assert got == _reference_product(x, y)


def test_exponent_fields_hold_their_maximum_and_refuse_one_more():
    a, f1 = ring.const_sym("a"), ring.jet_sym(1)
    top = [(3, ring.EXPF_MAX, ((a, ring.MAX_POWER), (f1, 1))), (-1, ring.EXPF_MIN, ((f1, ring.MAX_POWER),))]
    e = ring.from_monomials(top)
    assert sorted(e.monomials(), key=lambda t: t[1]) == sorted(top, key=lambda t: t[1])
    assert ring.from_monomials(e.monomials()) == e
    assert const("a") ** ring.MAX_POWER == ring.from_monomials([(1, 0, ((a, ring.MAX_POWER),))])
    for bad in (
        [(1, 0, ((a, ring.MAX_POWER + 1),))],
        [(1, 0, ((a, ring.MAX_POWER), (a, 1)))],
        [(1, ring.EXPF_MAX + 1, ())],
        [(1, ring.EXPF_MIN - 1, ())],
    ):
        with pytest.raises(OverflowError):
            ring.from_monomials(bad)
    # products, derivatives and e^{kf} shifts refuse what leaves a field, never wrapping into the next one
    at_max = const("a") ** ring.MAX_POWER * jet(1)
    for overflow in (
        lambda: at_max * const("a"),
        lambda: expf(ring.EXPF_MAX) * expf(1),
        lambda: expf(ring.EXPF_MIN) * expf(-1),
        lambda: (expf(ring.EXPF_MIN) * const("a")) * expf(-1),
        lambda: expf(ring.EXPF_MIN).scale_expf(-1),
        lambda: expf(ring.EXPF_MAX).scale_expf(1),
        lambda: (jet(1) ** ring.MAX_POWER * expf(1)).partial(1),
        lambda: (jet(1, 1) ** ring.MAX_POWER * jet(1)).partial(1),
    ):
        with pytest.raises(OverflowError):
            overflow()
    assert at_max * jet(1) == ring.from_monomials([(1, 0, ((a, ring.MAX_POWER), (f1, 2)))])


_EDGE_K = st.sampled_from([ring.EXPF_MIN, ring.EXPF_MIN + 1, -1, 0, 1, 2, ring.EXPF_MAX - 1, ring.EXPF_MAX])
_EDGE_POWER = st.sampled_from([1, 2, ring.MAX_POWER - 1, ring.MAX_POWER])
_SYMBOLS = st.sampled_from(
    [ring.const_sym("a"), ring.jet_sym(), ring.jet_sym(1), ring.jet_sym(2), ring.jet_sym(1, 3), ring.jet_sym(1, 2, 3)]
)


@st.composite
def edge_exprs(draw):
    """Ring elements whose e^{kf} and power fields sit at or near their limits."""
    terms = []
    for _ in range(draw(st.integers(0, 3))):
        powers = draw(st.lists(st.tuples(_SYMBOLS, _EDGE_POWER), max_size=2, unique_by=lambda t: t[0]))
        terms.append((draw(_fracs), draw(_EDGE_K), tuple(sorted(powers))))
    return ring.from_monomials(terms)


def _outcome(fn):
    try:
        return fn()
    except (OverflowError, JetOrderExceeded) as exc:
        return type(exc)


@given(
    edge_exprs() | ring_exprs(),
    ring_exprs(),
    st.sampled_from(ring.COORDS),
    st.sampled_from([
        0, 1, -1, ring.EXPF_MIN, ring.EXPF_MAX, ring.EXPF_MIN - 1, ring.EXPF_MAX + 1,
        ring.EXPF_MAX - ring.EXPF_MIN, ring.EXPF_MIN - ring.EXPF_MAX, 1 << 15, -(1 << 15),
    ]),
    st.sampled_from([1, -1, 2, -3]),
)
@settings(max_examples=60, deadline=None)
def test_partial_into_matches_partial_then_shift(g, h, i, shift, sign):
    # the fused partial adds sign * e^{shift f} d_i g into a raw accumulator:
    # the same terms as partial(i).scale_expf(shift), and OverflowError (or,
    # from a third-order jet, JetOrderExceeded) on exactly the same inputs
    def fused():
        acc = dict(h.terms)
        ring._partial_into(acc, g, i, shift, sign)
        return ring._wrap(ring._canonical(acc))

    assert _outcome(fused) == _outcome(lambda: h + g.partial(i).scale_expf(shift) * sign)


def test_partial_into_keeps_the_order_of_partial_then_shift():
    # a third-order jet is refused before an e^{kf} shift out of range, as
    # partial(i) runs before scale_expf(shift)
    g = expf(ring.EXPF_MAX) + jet(1, 2, 3)
    with pytest.raises(JetOrderExceeded):
        g.partial(1).scale_expf(1)
    with pytest.raises(JetOrderExceeded):
        ring._partial_into({}, g, 1, 1, 1)


_CATALOGUE_CHILD = """
import hashlib, json, sys
from nilforms import ring, scenarios
for kind, data in json.loads(sys.argv[1]):
    ring.from_monomials([(1, 0, (((kind, tuple(data) if kind == "j" else data), 1),))])
text = "".join(scenarios.run_scenario(name, seed=0).to_json() for name in scenarios.SCENARIOS)
symbols = sorted(ring._SYMS[1:])
text += repr(ring.from_monomials((n + 1, n % 3 - 1, ((s, 1),)) for n, s in enumerate(symbols)))
print(json.dumps({"sha": hashlib.sha256(text.encode()).hexdigest(), "symbols": [list(s) for s in ring._SYMS[1:]]}))
"""


def _src_env() -> dict:
    """The environment with this checkout's src/ first on PYTHONPATH, for child interpreters."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(Path(__file__).resolve().parents[1] / "src"),
                                                      env.get("PYTHONPATH")]))
    return env


def _catalogue_in_child(symbols: list) -> dict:
    """The catalogue's report digest in a fresh interpreter that first interns symbols in this order."""
    proc = subprocess.run(
        [sys.executable, "-c", _CATALOGUE_CHILD, json.dumps(symbols)],
        capture_output=True, text=True, env=_src_env(), check=True,
    )
    return json.loads(proc.stdout)


def test_symbol_interning_order_reaches_no_report():
    normal = _catalogue_in_child([])
    constants = [s for s in normal["symbols"] if s[0] == "c"]
    jets = [s for s in normal["symbols"] if s[0] == "j"]
    assert constants and jets
    reordered = _catalogue_in_child(constants[::-1] + jets[::-1])
    assert reordered["symbols"][:len(constants)] == constants[::-1]
    assert reordered["sha"] == normal["sha"]


def test_a_pickle_carries_decoded_terms_to_another_process():
    x = const("zz_pickled") * jet(1, 2) ** 2 * expf(-3) + rat(1, 3) * const("a")
    assert pickle.loads(pickle.dumps(x)) == x
    child = (
        "import pickle, sys\n"
        "from nilforms.ring import const, expf, jet, rat\n"
        "const('a'); jet(4); jet(1, 2); const('zz_pickled')  # slots in another order\n"
        "x = pickle.loads(sys.stdin.buffer.read())\n"
        "print(x == const('zz_pickled') * jet(1, 2) ** 2 * expf(-3) + rat(1, 3) * const('a'))\n"
    )
    proc = subprocess.run([sys.executable, "-c", child], input=pickle.dumps(x), capture_output=True, env=_src_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == b"True"
