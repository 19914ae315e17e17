"""Coefficient-ring unit and property tests: arithmetic, jets, division, evaluation."""
from __future__ import annotations

import json
import math
import os
import pickle
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

import naive_forms
from call_counts import call_counts, count
from nilforms import ring
from nilforms.profiles import over_one_denominator, profile
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
    """A one-point float table of columns binding every symbol of exprs, and f."""
    out = {}
    for e in exprs:
        for sym in e.symbols():
            out[sym] = [_sym_value(sym)]
    out[ring.jet_sym()] = [0.3]
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
    assign2[("c", "a")] = [2.0]
    [vy], [vx] = y.evaluate(assign2), x.evaluate(dict(assign2))
    assert math.isclose(vy, vx, rel_tol=1e-12, abs_tol=1e-12)


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
    [vx], [vy] = x.evaluate(assign), y.evaluate(assign)
    assert math.isclose((x + y).evaluate(assign)[0], vx + vy, rel_tol=1e-9, abs_tol=1e-9)
    assert math.isclose((x * y).evaluate(assign)[0], vx * vy, rel_tol=1e-9, abs_tol=1e-9)


def test_evaluate_missing_symbol_raises():
    with pytest.raises(UnboundSymbol):
        (const("q") * jet(1)).evaluate({("j", (1,)): [1.0]})
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


def _hex_or_nan(x: float) -> str:
    return "nan" if math.isnan(x) else float.hex(x)


def _column_values(e: CoefExpr, tables: list):
    """e evaluated once on the column table of tables, as float.hex per point, or the name of what it raised."""
    try:
        return [_hex_or_nan(v) for v in e.evaluate(naive_forms.column_table(tables))]
    except ArithmeticError as exc:
        return type(exc).__name__


def _reference_values(e: CoefExpr, tables: list):
    """naive_forms.evaluate_reference at each table, as _column_values gives them."""
    out = []
    for table in tables:
        try:
            out.append(_hex_or_nan(naive_forms.evaluate_reference(e, table)))
        except ArithmeticError as exc:
            return type(exc).__name__
    return out


_WIDE_FLOATS = st.one_of(st.floats(-1.5, 1.5), st.floats(allow_nan=True, allow_infinity=True))


@given(float_plan_cases(), st.lists(st.fixed_dictionaries({sym: _WIDE_FLOATS for sym in _PLAN_SYMS}), max_size=2),
       st.sampled_from(("case", "constant", "zero")))
@settings(max_examples=120, deadline=None)
def test_evaluate_plan_matches_the_per_term_loop_bit_for_bit(case, wide, kind):
    # e^{kf} factors, powers up to three and int and Fraction coefficients, on
    # finite tables and on tables with nan, inf and huge entries
    e, tables = case
    e = {"case": e, "constant": rat(-7, 3), "zero": ring.ZERO}[kind]
    for points in (tables, tables + wide, tables[:1], wide):
        if points:
            assert _column_values(e, points) == _reference_values(e, points)
    table = naive_forms.column_table(tables)
    first = e.evaluate(table)  # the plan and the e^{kf} columns are kept
    assert [float.hex(v) for v in e.evaluate(table)] == [float.hex(v) for v in first]


def test_evaluate_computes_each_e_kf_once_per_table(monkeypatch):
    # elements evaluated on one table share e^{kf}: one math.exp per point and distinct k, and
    # every value is bit for bit the per-term loop's, which calls math.exp for each term with k != 0
    exprs = [expf(2) * const("a") + expf(-2) * jet(1) - expf(2) * rat(1, 3),
             expf(-2) * jet(1, 2) ** 2 + const("a"), ring.lap_e2f(), ring.lap_e_m2f(), expf(4) + expf(2) * jet(1)]
    pts = [(0.1, 0.2, -0.15, 0.05), (-0.3, 0.0, 0.25, 0.1), (0.0, 0.0, 0.0, 0.0)]
    values = {**profile("ball", absA2=3).jets(pts), ring.const_sym("a"): [0.75] * 3}
    points = [{sym: col[p] for sym, col in values.items()} for p in range(3)]
    want = [[float.hex(naive_forms.evaluate_reference(e, t)) for t in points] for e in exprs]
    exp, calls = math.exp, []

    def counted(x):
        calls.append(x)
        return exp(x)

    monkeypatch.setattr(math, "exp", counted)
    table = dict(values)
    assert [[float.hex(v) for v in e.evaluate(table)] for e in exprs] == want
    fs = values[ring.jet_sym()]
    assert sorted(calls) == sorted(k * f for k in (-2, 2, 4) for f in fs)
    assert [[float.hex(v) for v in e.evaluate(table)] for e in exprs] == want and len(calls) == 9  # read off the table


def _abs_value(e: CoefExpr, table: dict) -> str:
    """|e| at a one-point table as float.hex, "nan" for any nan, or the name of the exception evaluate raised."""
    try:
        [value] = e.evaluate(naive_forms.column_table([table]))
    except ArithmeticError as exc:
        return type(exc).__name__
    return _hex_or_nan(abs(value))


@given(float_plan_cases(), st.lists(st.fixed_dictionaries({sym: _WIDE_FLOATS for sym in _PLAN_SYMS}), max_size=2))
@settings(max_examples=80, deadline=None)
def test_an_element_and_its_negative_evaluate_to_one_absolute_value_bit_for_bit(case, wide):
    # what lets a float sweep evaluate one element of each {e, -e}: its largest |e| is unchanged
    e, tables = case
    for table in tables + wide:
        assert _abs_value(-e, table) == _abs_value(e, table)


def test_distinct_up_to_sign_keeps_the_first_of_each_class_in_order():
    a, b = const("a") + jet(1), expf(2) * rat(1, 3) - jet(2)
    a2, minus_a, minus_b = const("a") + jet(1), -(const("a") + jet(1)), -b
    zero = CoefExpr()
    got = ring.distinct_up_to_sign([b, minus_a, a2, zero, a, -zero, minus_b, ring.ZERO])
    assert [id(x) for x in got] == [id(b), id(minus_a), id(zero)]
    assert ring.distinct_up_to_sign([]) == () and ring.distinct_up_to_sign(iter([a])) == (a,)


@given(float_plan_cases(), st.sampled_from(_PLAN_SYMS))
@settings(max_examples=40, deadline=None)
def test_evaluate_plan_raises_for_an_unbound_symbol_on_every_call(case, missing):
    e, tables = case
    e.evaluate(naive_forms.column_table(tables))  # the plan now exists
    short = [{sym: v for sym, v in t.items() if sym != missing} for t in tables[1:]]
    needs_it = missing in e.symbols() or (missing == ring.jet_sym() and any(k for _, k, _ in e.monomials()))
    for _ in range(2):
        if needs_it:
            with pytest.raises(UnboundSymbol):
                e.evaluate(naive_forms.column_table(short))
            with pytest.raises(UnboundSymbol):
                naive_forms.evaluate_reference(e, short[0])
        else:
            assert _column_values(e, short) == _reference_values(e, short)


def test_evaluate_raises_for_f_under_an_exponential_before_and_after_the_plan():
    e = expf(-2) * rat(3, 7) + const("a") ** 3
    table = {ring.const_sym("a"): [0.5, -2.0]}
    for _ in range(2):
        with pytest.raises(UnboundSymbol):
            e.evaluate(table)
    full = {**table, ring.jet_sym(): [0.25, -1.0]}
    assert _column_values(e, [{sym: col[p] for sym, col in full.items()} for p in range(2)]) == [
        float.hex(naive_forms.evaluate_reference(e, {sym: col[p] for sym, col in full.items()})) for p in range(2)]
    with pytest.raises(UnboundSymbol):
        e.evaluate(table)


def test_evaluate_exact_returns_fractions():
    x = expf(-2) * const("a") + rat(1, 3)
    v = evaluate_exact(x, {ring.const_sym("a"): 5}, 1, (9, 4))
    assert v == Fraction(5) * Fraction(4, 9) + Fraction(1, 3)
    assert isinstance(v, Fraction)


def test_evaluate_exact_rejects_odd_exponential_powers():
    with pytest.raises(UnboundSymbol):
        evaluate_exact(expf(1), {}, 1, (4, 1))
    # even powers are fine: e^{2kf} = (e^{2f})^k
    assert evaluate_exact(expf(4), {}, 1, (3, 1)) == Fraction(9)


def test_evaluate_exact_missing_symbol_raises():
    with pytest.raises(UnboundSymbol):
        evaluate_exact(const("missing"), {}, 1, (1, 1))


_exact_atoms = st.sampled_from([const("a"), const("b"), jet(1), jet(2, 3), jet(1, 1, 4), jet()])
_exact_numerators = st.integers(-360, 360)


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
    # the same UnboundSymbol for a missing symbol or an odd k; a jet of order m is
    # its int over N^m, a constant its int, and e^{2f} a pair not in lowest terms
    e = data.draw(exact_exprs(odd))
    syms = sorted(e.symbols())
    nums = dict(zip(syms, data.draw(st.lists(_exact_numerators, min_size=len(syms), max_size=len(syms)))))
    N = data.draw(st.integers(1, 40))
    missing = data.draw(st.sampled_from([None, *syms]))
    if missing is not None:
        del nums[missing]
    e2f = data.draw(st.tuples(_exact_numerators.filter(bool), st.integers(1, 40)))
    try:
        want = naive_forms.evaluate_exact_reference(e, nums, N, e2f)
    except UnboundSymbol as exc:
        for _ in range(2):  # the first call and one on the plan it keeps
            with pytest.raises(UnboundSymbol) as got:
                evaluate_exact(e, nums, N, e2f)
            assert str(got.value) == str(exc)
        return
    for _ in range(2):
        got = evaluate_exact(e, nums, N, e2f)
        assert type(got) is Fraction and got == want
    # the same route on ring elements: the numerator over e.den * N^wmax * a^A * b^B, as an element
    table = {sym: rat(n) for sym, n in nums.items()}
    num = evaluate_exact(e, table, rat(N), tuple(map(rat, e2f)))
    if e:
        assert type(num) is CoefExpr and num.as_fraction() == want * naive_forms.evaluate_exact_denominator(e, N, e2f)


def test_evaluate_exact_builds_one_fraction_per_call():
    e = p_laplacian4() * rat(3, 7) + hessian2() * expf(-2) * const("a") + flat_laplacian(expf(2)) * rat(-1, 5)
    x = (Fraction(1, 3), Fraction(-2, 5), Fraction(3, 4), Fraction(1, 7))
    g, N, nums = profile("fundamental", c=3).jets_exact(over_one_denominator(x))
    nums = {sym: 3 ** len(sym[1]) * n for sym, n in nums.items()}  # over powers of 3N, with a = -2
    nums[ring.const_sym("a")] = -2
    assert count(call_counts(lambda: [evaluate_exact(e, nums, 3 * N, g) for _ in range(5)]), Fraction.__new__) == 5


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
            assign[ring.jet_sym(i, j)] = [2.0 if i == j else 0.0]
    assert hessian2().evaluate(assign) == [pytest.approx(24.0)]


# ---------------------------------------------------------------------------
# the canonical form: nonzero int numerators over one positive denominator,
# in lowest terms, so an integral element (zero included) has denominator 1

def _is_canonical(e: CoefExpr) -> bool:
    return (
        type(e.den) is int and e.den > 0
        and all(type(n) is int and n != 0 for n in e.terms.values())
        and math.gcd(e.den, *e.terms.values()) == 1
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


# the integer-numerator kernels against the Fraction-per-term walks of naive_forms,
# on drawn elements whose coefficients mix ints and Fractions

@given(ring_exprs(), ring_exprs(), ring_exprs())
@settings(max_examples=80, deadline=None)
def test_products_and_sums_match_the_fraction_per_term_reference(x, y, z):
    x2 = x * x  # powers above one, denominators up to 25
    got = [x * y, x2 * y, y * x2, x + y, x2 + y, x - y, ring.sum_exprs((x, y, z, x2))]
    want = [
        naive_forms.mul_reference(x, y),
        naive_forms.mul_reference(naive_forms.mul_reference(x, x), y),
        naive_forms.mul_reference(y, naive_forms.mul_reference(x, x)),
        naive_forms.sum_reference(x, y),
        naive_forms.sum_reference(naive_forms.mul_reference(x, x), y),
        naive_forms.sum_reference(x, naive_forms.mul_reference(rat(-1), y)),
        naive_forms.sum_reference(x, y, z, naive_forms.mul_reference(x, x)),
    ]
    assert got == want
    assert all(_is_canonical(e) for e in got)


@given(ring_exprs(), ring_exprs(), ring_exprs(), _fracs, st.sampled_from((1, -1, 2, -3)), st.sampled_from((1, -1)))
@settings(max_examples=80, deadline=None)
def test_mul_and_add_into_an_accumulator_that_holds_fractions(x, y, z, q, sign, zsign):
    # the accumulator holds the Fraction q (integral or not) at every key of x * y
    # and of z, as the form kernels' raw accumulators do between products
    held = CoefExpr({key: q for key in (*(x * y).terms, *z.terms)})
    acc = {held.den: dict(held.terms)}
    ring._mul_into(acc, x, y, sign)
    ring._add_into(acc, z, zsign)
    got = ring._canonical(acc)
    assert _is_canonical(got)
    ref = naive_forms.mul_reference
    assert got == naive_forms.sum_reference(held, ref(ref(rat(sign), x), y), ref(rat(zsign), z))


@given(st.lists(st.tuples(ring_exprs(), ring_exprs(), st.sampled_from((1, -1, 2, -3))), max_size=4),
       st.lists(st.tuples(ring_exprs(), st.sampled_from((1, -1))), max_size=4), st.sampled_from((1, 2)))
@settings(max_examples=80, deadline=None)
def test_one_accumulator_over_several_denominators_read_with_a_scale(products, sums, scale):
    # products and sums of elements over different denominators land in different
    # buckets of one accumulator; the reader puts them over one denominator and
    # divides by the scale, as the Koszul formula and the su(2) projection halve
    acc: dict = {}
    for x, y, sign in products:
        ring._mul_into(acc, x, y, sign)
    for z, sign in sums:
        ring._add_into(acc, z, sign)
    got = ring._canonical(acc, scale)
    assert _is_canonical(got)
    ref = naive_forms.mul_reference
    want = naive_forms.sum_reference(
        *(ref(ref(rat(sign), x), y) for x, y, sign in products), *(ref(rat(sign), z) for z, sign in sums))
    assert got == naive_forms.mul_reference(want, rat(1, scale))


# a value put in for a symbol: an int, a Fraction, a constant element or an element with symbols
_subst_values = st.one_of(st.integers(-4, 4), _fracs, _fracs.map(rat), ring_exprs(max_terms=2, max_factors=2))


@given(ring_exprs(max_terms=4), st.dictionaries(st.sampled_from(("a", "b")), _subst_values, max_size=2))
@settings(max_examples=80, deadline=None)
def test_substitute_matches_the_fraction_per_term_reference(x, values):
    x = x * x  # powers above one, so a symbol's highest power differs between terms
    got = x.substitute(values)
    assert _is_canonical(got)
    assert got == naive_forms.substitute_reference(x, values)


_plain_numbers = st.one_of(st.integers(-4, 4), _fracs.filter(lambda q: q.denominator > 1))


@given(ring_exprs(max_terms=4), st.lists(_plain_numbers, min_size=6, max_size=6), st.booleans())
@settings(max_examples=80, deadline=None)
def test_substitution_plans_are_kept_per_slot_set(x, nums, lacking):
    # {a}, {a, b}, {b}, then {a} twice more, with c, which the element lacks but which has a slot,
    # in every set or in none: each result is the per-term reference.  A set put in once keeps
    # no plan; its second call keeps one, and its third reads that plan and decodes nothing
    x = x * x * const("a")  # a in every term, powers above one
    const("c")
    sets = [{"a": nums[0]}, {"a": nums[1], "b": nums[2]}, {"b": nums[3]}, {"a": nums[4]}, {"a": nums[5]}]
    if lacking:
        sets = [{**values, "c": Fraction(7, 3)} for values in sets]
    for i, values in enumerate(sets[:4]):
        if i == 3:
            assert len(x._subst) == 3 and not any(x._subst.values())  # each set marked, no plan kept
        got = x.substitute(values)
        assert _is_canonical(got) and got == naive_forms.substitute_reference(x, values), values
    assert len(x._subst) == 3 and [plan is not None for plan in x._subst.values()].count(True) == 1
    counts = call_counts(lambda: x.substitute(sets[4]))
    assert count(counts, ring._decode) == 0 and len(x._subst) == 3  # the repeated set decodes nothing
    assert x.substitute(sets[4]) == naive_forms.substitute_reference(x, sets[4])


_rest_atoms = st.sampled_from([jet(1), jet(2), jet(1, 2), expf(2), expf(-2), const("d")])


@st.composite
def _shared_monomials(draw):
    """P * R + S: P a polynomial in a and b, R and S elements free of both, so each monomial
    of P is shared by the terms of every key of R, and S's terms hold neither a nor b."""
    def element(atoms, max_terms):
        e = CoefExpr()
        for _ in range(draw(st.integers(1, max_terms))):
            m = rat(draw(_fracs.filter(bool)))
            for _ in range(draw(st.integers(0, 3))):
                m = m * draw(atoms)
            e = e + m
        return e

    P = element(st.sampled_from([const("a"), const("b")]), 4)
    return P * element(_rest_atoms, 4) + element(_rest_atoms, 3)


_dens = st.lists(st.sampled_from((1, 2, 3, 5, 7)), min_size=2, max_size=2, unique=True)


@given(_shared_monomials(), st.integers(-5, 5), st.integers(-5, 5), _dens)
@settings(max_examples=80, deadline=None)
def test_a_substitution_works_out_each_monomial_once_for_every_term_sharing_it(x, p1, p2, dens):
    # many output keys share one monomial in a and b, some terms hold neither (the factor Q), and
    # a and b take values over different denominators; the first call, the call that keeps the
    # plan and the call that reads it each give the per-term reference and sympy's subs
    sp = pytest.importorskip("sympy")
    values = {"a": Fraction(p1, dens[0]), "b": Fraction(p2, dens[1])}
    want = naive_forms.substitute_reference(x, values)
    subs = {sp.Symbol(f"c_{name}"): sp.Rational(v.numerator, v.denominator) for name, v in values.items()}
    assert sp.expand(_to_sympy(sp, x).subs(subs, simultaneous=True) - _to_sympy(sp, want)) == 0
    for _ in range(3):
        got = x.substitute(values)
        assert _is_canonical(got) and got == want


@given(st.lists(st.tuples(ring_exprs(), ring_exprs()), max_size=5))
@settings(max_examples=80, deadline=None)
def test_dot_is_the_sum_of_the_products(pairs):
    # pairs over unequal denominators land in one accumulator; no pairs give zero
    xs, ys = [x for x, _ in pairs], [y for _, y in pairs]
    got = ring.dot(xs, ys)
    assert _is_canonical(got)
    assert got == ring.sum_exprs(x * y for x, y in pairs)
    assert got == naive_forms.sum_reference(*(naive_forms.mul_reference(x, y) for x, y in pairs))
    assert ring.dot(xs, ys) == ring.dot(ys, xs)


def test_dot_of_nothing_is_zero():
    assert ring.dot([], []) == ring.ZERO and _is_canonical(ring.dot([], []))


@given(ring_exprs(), ring_exprs(), st.sampled_from((2, 3, 6)), st.integers(-3, 3))
@settings(max_examples=120, deadline=None)
def test_a_sum_is_in_lowest_terms_whether_or_not_its_keys_meet(x, y, q, n):
    # every sum and difference is read off one accumulator, which reduces by the gcd: y * c meets
    # no key of x, scaled by 1/q the denominators differ, x + x, x - x and x + y may meet and
    # cancel, and n - b is the reflected difference of an int and an element
    yc = y * const("c") * rat(1, q)
    for a, b in ((x, yc), (yc, x), (x * rat(1, q), y), (x, x), (x, -x), (x, y)):
        for got, want in ((a + b, naive_forms.sum_reference(a, b)),
                          (a - b, naive_forms.difference_reference(a, b)),
                          (n - b, naive_forms.difference_reference(rat(n), b))):
            assert math.gcd(got.den, *got.terms.values()) == 1
            assert _is_canonical(got) and got == want


def test_a_sum_or_difference_adds_into_one_accumulator():
    # the second operand goes into the first's numerators by _add_into, subtraction included
    x, y = const("x") + rat(1, 2), jet(1) * rat(1, 3)
    for work in (lambda: x + y, lambda: x - y, lambda: 1 - x, lambda: x + 1):
        counts = call_counts(work)
        assert count(counts, ring._add_into) == 1 and count(counts, ring._canonical) == 1


@given(ring_exprs(), ring_exprs())
@settings(max_examples=80, deadline=None)
def test_equality_is_exactly_zero_difference(x, y):
    for a, b in ((x, y), (x, (x + y) - y), (x * y, y * x), (x, x + rat(1, 2))):
        assert (a == b) == (not (a - b))
        assert (a == b) == ((a.den, a.terms) == (b.den, b.terms))


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


def test_try_divide_with_rational_numerator_and_denominator():
    # the numerators divide, and the quotient is scaled by den's denominator over num's
    x, y = const("x"), jet(1)
    den = rat(3, 4) * x + rat(1, 2) * y  # (3x + 2y) / 4
    want = rat(2, 3) * y - rat(5, 6) * expf(2)  # (4y - 5e^{2f}) / 6
    num = want * den  # (12xy + 8y^2 - 15x e^{2f} - 10y e^{2f}) / 24
    assert (num.den, den.den, want.den) == (24, 4, 6)
    q = try_divide(num, den)
    assert q == want and _is_canonical(q)
    assert try_divide(num, want) == den
    assert try_divide(num + rat(1, 7) * x, den) is None
    # a rational quotient of rational elements can be integral
    assert try_divide(rat(3, 2) * x * y, rat(1, 2) * y) == rat(3) * x
    assert try_divide(rat(3, 2) * x * y, rat(1, 2) * y).den == 1


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

    assert count(call_counts(integer_work), Fraction.__new__) == 0
    # the counter is live: the same product with a 1/2 coefficient does build Fractions
    assert count(call_counts(lambda: (rat(1, 2) * jet(1) + 1) * (jet(2) + 3)), Fraction.__new__) > 0


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


def test_exact_names_a_string_with_a_zero_denominator():
    # Fraction("1/0") raises ZeroDivisionError('Fraction(1, 0)'), which names neither the string nor the fault
    for text in ("1/0", "-3/0"):
        with pytest.raises(ValueError, match=f"'{text}' has a zero denominator"):
            ring.exact(text)


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
        acc = {h.den: dict(h.terms)}
        ring._partial_into(acc, g, i, shift, sign)
        return ring._canonical(acc)

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
