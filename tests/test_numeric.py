"""Tests for numeric evaluation, sampling and the finite-difference oracles."""
from __future__ import annotations

import math
import random
from fractions import Fraction
from functools import reduce

import pytest
from hypothesis import given, settings, strategies as st

import naive_forms
from nilforms import numeric, ring
from nilforms.frames import quaternionic_heisenberg
from nilforms.gstruct import direct_torsion
from nilforms.profiles import profile
from nilforms.ring import const, const_sym, expf, jet, jet_sym

BOX = ((-0.2, 0.2),) * 4


@pytest.fixture(scope="module")
def ball():
    return profile("ball", absA2=3)


@pytest.fixture(scope="module")
def ball_pts(ball):
    return numeric.profile_points(ball, n=6, seed=3, box=BOX)


def test_build_assignment_merges_consts(ball):
    assi = numeric.build_assignment(ball, [(0, 0, 0, 0), (0.5, 0, 0, 0)], {"q": 2, const_sym("p"): 3})
    assert assi[const_sym("q")] == [2.0, 2.0]
    assert assi[const_sym("p")] == [3.0, 3.0]
    assert assi[jet_sym()] == [pytest.approx(0.5 * math.log(0.75)), pytest.approx(0.5 * math.log(0.75 * 0.75))]
    assert assi[jet_sym(1)][0] == 0.0 and assi[jet_sym(1)][1] < 0.0


def test_build_assignment_feeds_evaluate(ball):
    pts = [(0.1, 0.0, -0.1, 0.0), (0.0, 0.3, 0.0, -0.2), (0.0, 0.0, 0.0, 0.0)]
    g = [float(ball.e2f(x)) for x in pts]
    assi = numeric.build_assignment(ball, pts, {"q": 2})
    assert expf(2).evaluate(assi) == pytest.approx(g)
    assert (const("q") * expf(2)).evaluate(assi) == pytest.approx([2 * v for v in g])
    gh = quaternionic_heisenberg()
    form = gh.form(1, {(1,): expf(2), (2,): ring.rat(5)})
    vals = {idx: coef.evaluate(assi) for idx, coef in form.comps.items()}
    assert vals == {(1,): pytest.approx(g), (2,): [5.0] * 3}


def test_halton_points_deterministic_and_boxed():
    a = numeric.halton_points(5, 11, ((-1, 1),) * 4)
    b = numeric.halton_points(5, 11, ((-1, 1),) * 4)
    assert a == b
    assert len(a) == 5
    assert all(-1 <= c <= 1 for p in a for c in p)
    c = numeric.halton_points(5, 12, ((-1, 1),) * 4)
    assert a != c


@pytest.mark.parametrize("pairs", [3, 5])
def test_a_box_of_other_than_four_pairs_is_refused(pairs):
    # a sample point has four coordinates: zipping a box of 3 pairs made 3-D points, one of 5 dropped a pair
    with pytest.raises(ValueError, match="four"):
        numeric.halton_points(2, 0, ((-1, 1),) * pairs)


def test_no_points_asks_accept_nothing_and_a_negative_count_is_refused():
    def never(p):
        raise AssertionError("accept asked of a point")

    assert numeric.halton_points(0, 0, ((-1, 1),) * 4, accept=never) == []
    assert numeric.profile_points(profile("ball", absA2=1), n=0) == ()
    with pytest.raises(ValueError, match="n >= 0"):
        numeric.halton_points(-1, 0, ((-1, 1),) * 4)


def test_halton_starvation():
    with pytest.raises(RuntimeError, match="admissible"):
        numeric.halton_points(3, 0, ((-1, 1),) * 4, accept=lambda p: False, max_rounds=2)


def _halton_reference(n, seed, box, accept, max_rounds=64):
    """halton_points by the digit-by-digit radical inverse, one point at a time."""
    rng = random.Random(seed)
    bases = (2, 3, 5, 7)
    perms = [[0] + rng.sample(range(1, b), b - 1) for b in bases]
    pts, k = [], 0
    for _ in range(max_rounds):
        for _ in range(max(n, 8)):
            k += 1
            p = tuple(float(lo) + (float(hi) - float(lo)) * naive_forms.radical_inverse(k, b, perm)
                      for (lo, hi), b, perm in zip(box, bases, perms))
            if accept(p):
                pts.append(p)
                if len(pts) == n:
                    return pts
    raise RuntimeError("starved")


def test_halton_points_are_the_digit_loops_bit_for_bit():
    # the recurrence on exact integers divides once, as the digit loop does, and accept
    # is still asked of each point in turn (here it rejects about half of them)
    rng, rejected = random.Random(7), 0
    for seed in range(120):
        n = rng.choice([1, 3, 8, 16, 64, 150])
        box = tuple((rng.uniform(-2, 0), rng.uniform(0, 2)) for _ in range(4))
        asked = []

        def accept(p):
            asked.append(p)
            return sum(c * c for c in p) < 1.5

        got = numeric.halton_points(n, seed, box, accept)
        want_asked = []
        want = _halton_reference(n, seed, box, lambda p: want_asked.append(p) or sum(c * c for c in p) < 1.5)
        assert [tuple(map(float.hex, p)) for p in got] == [tuple(map(float.hex, p)) for p in want], seed
        assert asked == want_asked
        rejected += len(asked) - len(got)
    assert rejected > 1000


@pytest.mark.parametrize("base, m", [(2, 5), (3, 3), (5, 2), (7, 2)])
def test_halton_points_stratify_each_coordinate(base, m):
    """The first b^m points put one point in each interval of width b^-m."""
    j = (2, 3, 5, 7).index(base)
    for seed in (0, 1, 11):
        pts = numeric.halton_points(base ** m, seed, ((0, 1),) * 4)
        # coordinate j of these points is a rational with denominator at most
        # b^(m+1), and often lies on an interval edge: recover it exactly
        exact = [Fraction(p[j]).limit_denominator(base ** (m + 1)) for p in pts]
        assert sorted(math.floor(x * base ** m) for x in exact) == list(range(base ** m))


def test_profile_points_respect_domain(ball, ball_pts):
    assert len(ball_pts) == 6
    for p in ball_pts:
        assert ball.in_domain(p)
        assert ball.singular_distance(p) >= 1e-3


def test_fd_partial_check_small(ball, ball_pts):
    e = expf(2) * jet(1) + jet(1, 2)
    assert numeric.fd_partial_check(e, numeric.assigner(ball), ball_pts) < 1e-6


def test_fd_exterior_check_small(ball, ball_pts):
    T = direct_torsion(quaternionic_heisenberg())
    assert numeric.fd_exterior_check(T, numeric.assigner(ball), ball_pts) < 1e-6


def test_fd_partial_check_sees_a_perturbed_jet(ball, ball_pts):
    e = expf(2) * jet(1) + jet(1, 2)
    good = numeric.assigner(ball)

    def bad(points):
        out = good(points)
        out[jet_sym(1)] = [v + 0.05 for v in out[jet_sym(1)]]
        return out

    assert bad([(0, 0, 0, 0)])[jet_sym(1)] == [pytest.approx(0.05)]
    assert numeric.fd_partial_check(e, bad, ball_pts) > 1e-3


def test_error_folds_keep_a_nan():
    nan = float("nan")
    assert numeric.max_error([]) == 0.0 and numeric.max_error([0.5, 2.0, 1.0]) == 2.0
    assert math.isnan(numeric.max_error([0.5, nan, 1.0]))
    assert math.isnan(naive_forms.worst_of(nan, 1.0)) and math.isnan(naive_forms.worst_of(1.0, nan))


_ERRORS = st.lists(st.one_of(st.floats(0.0, allow_infinity=True), st.just(math.nan), st.just(math.inf)), max_size=8)


def _hex_or_nan(x: float) -> str:
    return "nan" if math.isnan(x) else float.hex(x)


@given(_ERRORS, st.randoms(use_true_random=False))
@settings(max_examples=120, deadline=None)
def test_max_error_depends_on_neither_order_nor_repeats(errors, rng):
    # a float sweep may evaluate its elements in any order, each once or more
    want = _hex_or_nan(numeric.max_error(errors))
    shuffled = rng.sample(errors, len(errors))
    repeated = errors + [rng.choice(errors) for _ in errors] if errors else []
    rng.shuffle(repeated)
    assert _hex_or_nan(numeric.max_error(shuffled)) == want
    assert _hex_or_nan(numeric.max_error(repeated)) == want
    assert _hex_or_nan(numeric.max_error(iter(errors))) == want


@given(_ERRORS)
@settings(max_examples=120, deadline=None)
def test_max_error_is_the_reference_fold_bit_for_bit(errors):
    assert _hex_or_nan(numeric.max_error(errors)) == _hex_or_nan(reduce(naive_forms.worst_of, errors, 0.0))


def test_fd_checks_report_a_nan_sample(ball, ball_pts):
    good = numeric.assigner(ball)
    last = ball_pts[-1]

    def poisoned(points):  # nan jets around the last sample point only
        out = good(points)
        for p, x in enumerate(points):
            if max(abs(a - b) for a, b in zip(x, last)) < 1e-3:
                out[jet_sym(1)][p] = float("nan")
        return out

    e = expf(2) * jet(1) + jet(1, 2)
    assert math.isnan(numeric.fd_partial_check(e, poisoned, ball_pts))
    T = direct_torsion(quaternionic_heisenberg()) * jet(1)
    assert math.isnan(numeric.fd_exterior_check(T, poisoned, ball_pts))
