"""Tests for the scenario catalogue and its deterministic reports."""
from __future__ import annotations

import gc
import hashlib
import json
import math
import numbers
import random
import subprocess
import sys
import weakref
from fractions import Fraction
from functools import cache
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import naive_forms
from call_counts import call_counts, count
from nilforms import anomaly, elliptic, gstruct, numeric, report, ring, scenarios
from nilforms.anomaly import Gauge, anomaly_residual, solv4_lhs
from nilforms.connection import CurvatureForms, curvature, koszul, pontryagin4
from nilforms.elliptic import half_period
from nilforms.forms import CoframeSpec, FormExpr, horizontal_volume
from nilforms.frames import FREE_FRAME, h21, k_a
from nilforms.gstruct import catalogue_geometry, direct_torsion, geometry
from nilforms.profiles import BadParams, DilatonProfile
from nilforms.ring import CoefExpr
from nilforms.scenarios import (
    SCENARIOS,
    SCHEMA_VERSION,
    CheckResult,
    ScenarioReport,
    run_scenario,
)

EXPECTED_IDS = {
    "thm-7d-negative": [
        "frame-integrability", "structure-integrable-pure", "torsion-chain",
        "gauge-rank-one", "gauge-instanton", "minus-instanton-factors",
        "plus-holonomy-zero", "anomaly-residual-closed-form",
        "reduction-first-integral", "u-substitution-identity",
        "weierstrass-profile-numeric", "half-period-agm",
    ],
    "thm-5d-negative": [
        "frame-integrability", "structure-residuals", "torsion-chain",
        "gauge-rank-one", "gauge-instanton", "minus-instanton-factors",
        "plus-holonomy-zero", "anomaly-residual-closed-form",
        "reduction-first-integral", "u-substitution-identity",
        "weierstrass-profile-numeric", "half-period-agm",
    ],
    "thm-7d-positive": [
        "frame-integrability", "structure-integrable-pure", "torsion-chain",
        "gauge-instanton-condition", "anomaly-residual-closed-form",
        "p1-difference-closed-form", "fundamental-cstar-derivation",
        "profile-harmonic-exact",
    ],
    "thm-5d-positive": [
        "frame-integrability", "structure-residuals", "torsion-chain",
        "gauge-instanton-condition", "anomaly-residual-closed-form",
        "p1-difference-closed-form", "fundamental-cstar-derivation",
        "profile-harmonic-exact",
    ],
    "ball-7d": [
        "frame-integrability", "structure-integrable-pure", "torsion-chain",
        "ball-solves-instanton-equation", "minus-instanton-factors",
        "instanton-and-closed-torsion-numeric", "dilaton-normalization-probe",
    ],
    "contraction-6d": [
        "family-integrability", "contracted-coframe-equals-direct",
        "contracted-torsion-equals-direct", "contracted-structure-residuals",
        "contracted-anomaly-equals-direct", "dropped-leg-curvature-decay",
    ],
    "contraction-5d": [
        "family-integrability", "contracted-coframe-equals-direct",
        "contracted-torsion-equals-direct", "contracted-structure-residuals",
        "contracted-anomaly-equals-direct", "dropped-leg-curvature-decay",
    ],
}


@pytest.fixture(scope="module")
def reports():
    return {name: run_scenario(name) for name in SCENARIOS}


def test_catalogue_matches_expected_ids():
    assert set(EXPECTED_IDS) == set(SCENARIOS)


@pytest.mark.parametrize("name", SCENARIOS)
def test_scenario_passes_with_expected_checks(name, reports):
    rep = reports[name]
    assert rep.passed, [(c.id, c.status, c.details) for c in rep.checks if c.status != "pass"]
    assert [c.id for c in rep.checks] == EXPECTED_IDS[name]


def test_negative_scenario_values(reports):
    for name, absA2 in (("thm-7d-negative", 3), ("thm-5d-negative", 3)):
        v = reports[name].values
        assert v["lam_rank"] == 1
        assert v["p1_volume_reading"] == "unbarred"
        assert v["absA2"] == Fraction(absA2)
        alpha, lam2 = v["alpha"], v["lam2"]
        # the solvability constraint 2|A|^2 = alpha^2 lam^2 fixes alpha
        assert alpha ** 2 == pytest.approx(2.0 * absA2 / float(lam2))
        assert v["alphaP"] == pytest.approx(-alpha ** 2)
        assert v["d"] == pytest.approx(math.sqrt(3.0 * absA2) / (2.0 * alpha))
        assert v["tau_plus"] == pytest.approx(half_period(v["d"]))


def test_positive_scenario_values(reports):
    for name in ("thm-7d-positive", "thm-5d-positive"):
        v = reports[name].values
        assert v["absB2"] == Fraction(0)
        assert v["lap_e_m2f_c1"] == Fraction(8)
        assert v["cstar_over_alphaP"] == Fraction(3)
        assert v["comparison_constant_over_alphaP"] == Fraction(3, 4)
        assert v["cstar_vs_comparison_ratio"] == Fraction(4)
        assert v["cstar"] == 3 * v["alphaP"]


def test_ball_scenario_values(reports):
    v = reports["ball-7d"].values
    assert v["absA2"] == Fraction(3)
    assert v["p1_volume_reading"] == "unbarred"
    assert v["scalar_identity_normalization"] == ["phi=-1f"]
    res = v["scalar_identity_residuals"]
    assert res["phi=-1f"] <= 1e-8
    assert res["phi=-2f"] > 1e-8


def test_contraction_scenario_values(reports):
    for name in ("contraction-6d", "contraction-5d"):
        v = reports[name].values
        r1, r2 = v["decay_ratios"]
        assert abs(r1 - 10.0) <= 1.0 and abs(r2 - 10.0) <= 1.0
        maxima = v["dropped_leg_maxima"]
        assert maxima[0.1] > maxima[0.01] > maxima[0.001] > 0


def test_rank_two_override_fails_by_design():
    rep = run_scenario("thm-7d-negative", overrides=("rank2-lambda",))
    assert not rep.passed
    assert rep.values["lam"] == [[1, 0, 0], [0, 1, 0], [0, 0, 0]]
    assert rep.values["lam_rank"] == 2
    bad = {c.id for c in rep.checks if c.status != "pass"}
    assert "gauge-rank-one" in bad and "gauge-instanton" in bad
    assert rep.overrides == ("rank2-lambda",)


def test_rank_two_override_rejected_in_five_dims():
    with pytest.raises(BadParams, match="7D"):
        run_scenario("thm-5d-negative", overrides=("rank2-lambda",))


@pytest.mark.parametrize("name, override", [
    *((name, "rank2-lambda") for name in SCENARIOS if name != "thm-7d-negative"),
    ("thm-7d-negative", "rank2-lamda"),
])
def test_an_override_the_scenario_does_not_read_is_refused(name, override):
    # refused before any check runs, as an unread config key is
    with pytest.raises(BadParams, match=f"{name}: unknown override '{override}'"):
        run_scenario(name, overrides=(override,))


def test_a_repeated_override_is_refused():
    # once, not recorded twice, as a repeated --params key is refused
    with pytest.raises(BadParams, match="thm-7d-negative: repeated override 'rank2-lambda'"):
        run_scenario("thm-7d-negative", overrides=("rank2-lambda", "rank2-lambda"))


def test_unknown_scenario_raises():
    with pytest.raises(KeyError, match="unknown scenario"):
        run_scenario("thm-9d")


def test_scenario_spec_dispatch():
    rep = run_scenario("thm-7d-negative", seed=4, overrides=("rank2-lambda",))
    assert rep.seed == 4 and not rep.passed and rep.overrides == ("rank2-lambda",)


def test_report_serialization_is_deterministic():
    a = run_scenario("ball-7d").to_json()
    b = run_scenario("ball-7d").to_json()
    assert a == b
    assert a.endswith("\n")
    doc = json.loads(a)
    assert doc["schema_version"] == SCHEMA_VERSION
    assert doc["scenario"] == "ball-7d"
    assert doc["passed"] is True
    assert "wall_time" not in doc
    assert doc["summary"] == {"total": 7, "passed": 7, "failed": 0}
    for chk in doc["checks"]:
        assert set(chk) == {"id", "status", "residual", "details"}
    # Fractions are serialized as strings
    assert doc["values"]["absA2"] == "3"


# SHA-256 of to_json() for each scenario at seeds 0 and 1, and of all of them
# concatenated seed-major: a change meant to keep behaviour keeps every byte
GOLDEN_SHA256 = {
    (0, "thm-7d-negative"): "ae63e2bd402dcaf069b74ccf3db0d39b270c38b616ac4213b9ffc2fdd8d1272f",
    (0, "thm-7d-positive"): "020e5c528921a7796e2e679e139522ab7dcbe9b932dc4a5e73933bb6ca26f6a9",
    (0, "ball-7d"): "e6f13e2e4c699b3fe61175faa4c2a3384ab4ffaef3ebfcacbc66cfc56c4169c1",
    (0, "thm-5d-negative"): "3e7890685481fe6b9eb7bffac54cd289249a2ad0b3106f1459aa81edab33c4bb",
    (0, "thm-5d-positive"): "899b4f7678914483dc5315b55d147644861b2577b69979bd1c7b0e2c2d165e0c",
    (0, "contraction-6d"): "29398f1c984c267da1e8e76de1c4db41c02da34f8eb83b366917e7e7d2b85ffa",
    (0, "contraction-5d"): "114e21fffe5825d93a16457d69d651cc9d3c940cca02ed0f26c3f5bced2e558e",
    (1, "thm-7d-negative"): "d08e3034329472b04b707fbc942753fded3ed124a95cf13d5ef0f9a652ba0748",
    (1, "thm-7d-positive"): "a2946d624bd720b448038720bed664f2d63abfc73b963e6bd355f852ba842c5d",
    (1, "ball-7d"): "77dca150fc1b926e373d72a6c05eb880db05fab0dd47cd265f12e7c664279429",
    (1, "thm-5d-negative"): "4f89061477130d9fa3524a960243dbffacbe14846bf2cddeb29cfc1d5b49a4a2",
    (1, "thm-5d-positive"): "529c3d8e2024ef9de900c1b77ce1842c2e8bbfdaabd32e7b0856204c1ec95fa1",
    (1, "contraction-6d"): "153dfa91a1682ec1bcc28fdf6a079c62dbf01239f2035ce772da2737aa7d4ce6",
    (1, "contraction-5d"): "cddc7fc3cb7366930ee9a6eb0d77fbb1c285fbf1caed59b2a1ec5a9bee945247",
}
GOLDEN_SHA256_ALL = "5371e5c303f6f8e2fd48bb1568686764637822037b1a32d3097da52f66bb8119"


def test_reports_are_byte_identical_to_the_golden_digests():
    total = hashlib.sha256()
    changed = []
    for seed in (0, 1):
        for name in SCENARIOS:
            text = run_scenario(name, seed=seed).to_json().encode()
            total.update(text)
            if hashlib.sha256(text).hexdigest() != GOLDEN_SHA256[(seed, name)]:
                changed.append(f"{name} at seed {seed}")
    assert not changed, f"reports changed: {', '.join(changed)}"
    assert total.hexdigest() == GOLDEN_SHA256_ALL


# the sweeps' sample points depend on the seed: two more seeds, and the designed failure at each
GOLDEN_SHA256_MORE = {
    (5, "thm-7d-negative"): "c8fd95a102bf4b333fada700e171d13c2d43830f945478bf8326f6652511051e",
    (5, "thm-7d-positive"): "589a49c00ea860c510a06497622fe05588da2eb03b7c2d579478a9a9ecf8add8",
    (5, "ball-7d"): "25492f7497a2009762b43c94cb7947b473f209583fcfbdc0302907c1854e6037",
    (5, "thm-5d-negative"): "f67207313c7ff13dfadfb62cc9abf25a7301d84c9754f7af0d5f461d7021cd62",
    (5, "thm-5d-positive"): "09245da280ab931bb52aa707fa43e8387c232ed2151d4a9a5825ccf70beeb689",
    (5, "contraction-6d"): "9efcb5b2d966a039ed6dae7df0edc19db0b73f7738026270816acbfd5227e394",
    (5, "contraction-5d"): "361801e5f87d4fd4f578ccdbc0896897c197a41327a0b35fc692b5f35ad5ea95",
    (5, "thm-7d-negative+rank2-lambda"): "9234138780055b0f4299c0af5f53e8c7521dd14f1a476ebb86829bcd2b9282b2",
    (12345, "thm-7d-negative"): "444336271683a3f7b90bacf50082ada2f6ed32d2ea8dac52b56c223538f3a132",
    (12345, "thm-7d-positive"): "276c804394e90f3c10921208e8c11f3742bb02493e6bdb40e486d3c918f7f777",
    (12345, "ball-7d"): "d0a37f406932c7ec76d2d44969cc9b54e9ff76d00a42176c69ebaaf01c2ae8a6",
    (12345, "thm-5d-negative"): "9be79cfbfba86a9c62bb790e1dc371d0b02438e5e83a6127c749af28460a4cda",
    (12345, "thm-5d-positive"): "91dfe63f10966e915370f69a72075e314a0b243505e2db69ca9c0e1523b5a9be",
    (12345, "contraction-6d"): "f7ab05b05f7407131df50732b344c24e1bb14331f69e9991a203a7182a1d780f",
    (12345, "contraction-5d"): "6b16b0a90aaf60a1b5342ae71955e9330d8a0fd5b721dbfc3a20ccdc2a51ec58",
    (12345, "thm-7d-negative+rank2-lambda"): "942277593f507d2dca4c7a7e6a219db4ca54303baa42f2da32c2586b11abc708",
}
GOLDEN_SHA256_MORE_ALL = "acb2b9b6fe63975af2fcc6f3b42057a1d64c94c008a8aa8364a920d4d0719b57"


def test_reports_at_two_more_seeds_are_byte_identical_to_their_digests():
    total = hashlib.sha256()
    changed = []
    for seed in (5, 12345):
        runs = [(name, ()) for name in SCENARIOS] + [("thm-7d-negative", ("rank2-lambda",))]
        for name, overrides in runs:
            text = run_scenario(name, seed=seed, overrides=overrides).to_json().encode()
            total.update(text)
            label = "+".join((name, *overrides))
            if hashlib.sha256(text).hexdigest() != GOLDEN_SHA256_MORE[(seed, label)]:
                changed.append(f"{label} at seed {seed}")
    assert not changed, f"reports changed: {', '.join(changed)}"
    assert total.hexdigest() == GOLDEN_SHA256_MORE_ALL


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def test_non_finite_floats_serialize_as_strict_json():
    # a ring element is written as its repr, the wire module's fallback for any other value
    expr = ring.const("x") * ring.rat(1, 2) - ring.jet(1)
    rep = ScenarioReport(
        name="probe",
        seed=0,
        checks=[CheckResult("nan-residual", "fail", residual=float("nan"), details={})],
        values={"up": float("inf"), "down": -float("inf"), "ok": 0.5, "nested": [float("nan")], "expr": expr},
    )
    doc = json.loads(rep.to_json(), parse_constant=_reject_constant)
    assert doc["checks"][0]["residual"] == "NaN"
    assert doc["values"] == {"up": "Infinity", "down": "-Infinity", "ok": 0.5, "nested": ["NaN"], "expr": repr(expr)}


_json_leaves = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(),
    st.fractions(max_denominator=50), st.text(), st.just(ring.const("x") * ring.rat(1, 2) - ring.jet(1)),
)
_json_keys = st.one_of(st.text(max_size=4), st.integers(-2, 2), st.sampled_from(["1", "-1", "True", "None"]),
                       st.booleans(), st.none(), st.just(Fraction(1, 2)))
_json_payloads = st.recursive(
    _json_leaves,
    lambda inner: st.one_of(st.lists(inner, max_size=4), st.lists(inner, max_size=4).map(tuple),
                            st.dictionaries(_json_keys, inner, max_size=4)),
    max_leaves=24,
)


@settings(max_examples=300, deadline=None)
@given(_json_payloads)
def test_strict_json_writes_the_bytes_of_the_sanitized_dump(payload):
    # against the copy-then-dump it replaced: str(key) with the last equal key winning
    # (1 and "1"), bools apart from ints, non-ASCII and control characters escaped
    assert report.strict_json(payload) == naive_forms.strict_json_reference(payload)


def _report_calls(name: str, seed: int) -> dict:
    """The call counts of one report (call_counts)."""
    return call_counts(lambda: run_scenario(name, seed=seed))


@cache
def _seed0_calls(name: str) -> dict:
    """Call counts of one report at seed 0 that derives every geometry it reads."""
    catalogue_geometry.cache_clear()
    return _report_calls(name, 0)


def _calls(name: str, fn) -> int:
    return count(_seed0_calls(name), fn)


# most calls of (koszul, curvature, anomaly_residual, DilatonProfile.jets) one
# report at seed 0 may make: one Koszul pass per connection the report
# derives, each coframe's geometry derived once, numeric kA/h21 frames and
# their gauges read off the symbolic family with no derivation of their own,
# and each sample point's profile jets evaluated once
DERIVATION_BUDGET = {
    "thm-7d-negative": (2, 4, 2, 64),
    "thm-5d-negative": (2, 4, 2, 64),
    "thm-7d-positive": (1, 3, 2, 0),
    "thm-5d-positive": (1, 3, 2, 0),
    "ball-7d": (2, 2, 0, 80),
    "contraction-6d": (2, 4, 2, 1),
    "contraction-5d": (2, 4, 2, 1),
}


@pytest.mark.parametrize("name", SCENARIOS)
def test_scenario_derives_each_geometry_once(name):
    got = tuple(_calls(name, fn) for fn in (koszul, curvature, anomaly_residual, DilatonProfile.jets))
    assert got[0] >= 1  # the counter is live
    assert all(n <= bound for n, bound in zip(got, DERIVATION_BUDGET[name])), got


def test_reports_on_held_geometries_repeat_byte_for_byte():
    catalogue_geometry.cache_clear()
    cold = [run_scenario(name, seed=5).to_json() for name in SCENARIOS]
    assert [run_scenario(name, seed=5).to_json() for name in SCENARIOS] == cold


# what a report derives its frames' connections, gauges and structure
# residuals with: a default report reads them all on frames and gauges built
# from the program's tables, which the process holds
HELD_DERIVATIONS = (
    koszul, direct_torsion, curvature, pontryagin4, anomaly_residual,
    gstruct.g2_instanton_residual, gstruct.g2_holonomy_residual,
    gstruct.su2_instanton_residual, gstruct.su2_holonomy_residual,
    gstruct.su2_structure_residuals, gstruct.su3_structure_residuals,
    gstruct.G2Structure.residuals, gstruct.G2Structure.torsion, gstruct.SU2Structure.torsion,
    CoframeSpec.integrability_residuals, gstruct.scalar_identity_residual, anomaly.reduce_onevar,
    anomaly.displayed_residual_dlambda, anomaly.displayed_residual_db,
    anomaly.u_identity_residual, anomaly.weierstrass_cubic_match, solv4_lhs, anomaly.solv4_ode,
    # what the factoring, torsion, normalization and p1-difference checks compute: each
    # check's outcome is held with the frame or gauge it reads (scenarios._ck)
    ring.try_divide, horizontal_volume, FormExpr.wedge, FormExpr.__sub__,
)


@pytest.mark.parametrize("name", SCENARIOS)
def test_a_second_report_derives_no_frame_geometry(name):
    # so each is derived once per process, whatever the seed
    run_scenario(name, seed=0)
    counts = _report_calls(name, 3)
    got = {fn.__qualname__: count(counts, fn) for fn in HELD_DERIVATIONS}
    assert count(counts, run_scenario) == 1  # the counter is live
    assert not any(got.values()), got


# most calls a warm ball-7d report (seed 1 after seed 0) may make of the
# fixed work its float evaluation and G2 contractions would otherwise redo:
# component reads of Theta, Fraction-to-float conversions, key decodings
# (it makes 0, 2 and 18)
WARM_BALL_BUDGET = {FormExpr.value_at: 0, numbers.Rational.__float__: 2, ring._decode: 18}


def test_a_warm_ball_report_redoes_no_fixed_float_or_contraction_work():
    run_scenario("ball-7d", seed=0)
    counts = _report_calls("ball-7d", 1)
    got = {fn.__qualname__: count(counts, fn) for fn in WARM_BALL_BUDGET}
    assert count(counts, CoefExpr.evaluate) > 0 and count(counts, DilatonProfile.jets) > 0  # the counters are live
    assert all(got[fn.__qualname__] <= bound for fn, bound in WARM_BALL_BUDGET.items()), got


def test_a_warm_round_evaluates_each_distinct_element_once_up_to_sign():
    # the float sweeps of a round hold 45 distinct elements up to sign, and each is evaluated in one
    # call over its sweep's whole point set: each sweep reads the tuple its Geometry holds, and the
    # Weierstrass check's maxima are held on its numeric gauge
    for name in SCENARIOS:
        run_scenario(name, seed=0)
    rounds = [sum(count(_report_calls(name, 3), CoefExpr.evaluate) for name in SCENARIOS) for _ in range(2)]
    assert 0 < rounds[0] <= 45 and rounds[1] == rounds[0]


# the bodies of the seed-free checks, whose outcomes are held with the frame or gauge they read
SEED_FREE_BODIES = (scenarios._all_zero, scenarios._forms_all_zero, scenarios._integrable_pure,
                    scenarios._torsion_chain, scenarios._factor_through, scenarios._closed_form)


def test_a_warm_round_reruns_no_seed_free_check():
    # so a round at a new seed makes 9,356 Python calls and builds 153 Fractions (an exact
    # table's jets are ints, g its one Fraction, a rational sample point is ints over one
    # denominator, and an int fundamental c or centre stays an int), the same on a repeat; the
    # cyclic collector is off, since the finalizers it runs on other tests' garbage would count too;
    # two warm-up rounds at two seeds, since a substitution plan is kept from its slot set's second call
    for seed in (0, 1):
        for name in SCENARIOS:
            run_scenario(name, seed=seed)
    rounds, fractions = [], []
    gc.collect()
    gc.disable()
    try:
        for _ in range(2):
            counts = call_counts(lambda: [run_scenario(name, seed=3) for name in SCENARIOS])
            assert count(counts, run_scenario) == len(SCENARIOS)  # the counter is live
            got = {fn.__name__: count(counts, fn) for fn in SEED_FREE_BODIES}
            assert not any(got.values()), got
            rounds.append(sum(counts.values()))
            fractions.append(count(counts, Fraction.__new__))
    finally:
        gc.enable()
    assert rounds[0] <= 9_997 and rounds[1] == rounds[0]
    assert 0 < fractions[0] <= 153 and fractions[1] == fractions[0]


@pytest.mark.parametrize("name", ["contraction-6d", "contraction-5d"])
def test_a_warm_contraction_report_reads_its_dropped_legs_off_the_geometry(name):
    run_scenario(name, seed=0)
    counts = _report_calls(name, 3)
    assert count(counts, CoefExpr.evaluate) > 0  # the counter is live
    assert count(counts, CurvatureForms.pairs) == 0 and count(counts, CurvatureForms.entry) == 0


@pytest.mark.parametrize("name", ["contraction-6d", "contraction-5d"])
def test_a_fresh_contraction_report_reads_no_free_family(name):
    # every eps is read off the contraction's own symbolic family, so a process that runs a
    # contraction alone never builds kA, the family its numeric 7-leg frames were read off
    probe = (
        f"import json, sys; sys.path.insert(0, {str(Path(scenarios.__file__).parents[1])!r})\n"
        "from nilforms import gstruct, scenarios\n"
        "ids, held = set(), gstruct.catalogue_geometry\n"
        "def recording(catalog_id, **params):\n"
        "    ids.add(catalog_id)\n"
        "    return held(catalog_id, **params)\n"
        "gstruct.catalogue_geometry = scenarios.catalogue_geometry = recording\n"
        f"assert scenarios.run_scenario({name!r}).passed\n"
        "print(json.dumps(sorted(ids)))\n"
    )
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    t = scenarios._CONTRACTIONS[scenarios._BODIES[name][1]]
    ids = json.loads(proc.stdout)
    assert "kA" not in ids and ids == sorted({t.family, t.direct})


def test_a_cold_round_holds_seven_geometries_and_stays_within_its_call_budget():
    # a contraction reads its eps -> 0 limit off its family and the direct frame, so no eps = 0 frame
    # is held beside them; a fresh interpreter, so nothing is held before the round, and the
    # collector is off, since the finalizers it runs would count too
    probe = (
        f"import gc, json, sys; sys.path[:0] = [{str(Path(scenarios.__file__).parents[1])!r}, "
        f"{str(Path(__file__).parent)!r}]\n"
        "from call_counts import call_counts\n"
        "from nilforms import scenarios\n"
        "gc.disable()\n"
        "counts = call_counts(lambda: [scenarios.run_scenario(name, seed=1) for name in scenarios.SCENARIOS])\n"
        "print(json.dumps([scenarios.catalogue_geometry.cache_info().currsize, sum(counts.values())]))\n"
    )
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    held, calls = json.loads(proc.stdout)
    assert held == 7 and calls <= 244_500, (held, calls)  # measured 244,192


def test_a_contraction_against_a_wrong_direct_frame_fails_its_limit_checks(monkeypatch):
    # each limit check reads the family at eps = 0 against the direct frame, so h3 in place of h5 fails them
    monkeypatch.setitem(scenarios._CONTRACTIONS, 6, scenarios._CONTRACTIONS[6]._replace(direct="h3"))
    catalogue_geometry.cache_clear()
    try:
        rep = run_scenario("contraction-6d")
    finally:
        catalogue_geometry.cache_clear()  # the h3 Geometry holds this report's outcomes
    status = {c.id: c.status for c in rep.checks}
    assert not rep.passed
    assert [status[cid] for cid in ("contracted-coframe-equals-direct", "contracted-torsion-equals-direct",
                                    "contracted-anomaly-equals-direct")] == ["fail"] * 3


def test_a_config_frame_sweep_is_freed_with_its_report(monkeypatch):
    run_scenario("ball-7d")
    geos, held = [], []  # weakrefs to the report's Geometries; per sweep, (weakref, kept on one of them)
    float_sweep = scenarios._float_sweep

    def watched(c):
        geo = geometry(c)
        geos.append(weakref.ref(geo))
        return geo

    def watched_sweep(sweep, tables):
        kept = any(v is sweep for ref in geos if ref() is not None for v in ref().held.values())
        held.append((weakref.ref(sweep), kept))
        return float_sweep(sweep, tables)

    monkeypatch.setattr(scenarios, "geometry", watched)
    monkeypatch.setattr(scenarios, "_float_sweep", watched_sweep)
    gc.disable()
    try:
        frames_held = catalogue_geometry.cache_info().currsize
        rep = run_scenario("ball-7d", config={"A": [[1, 2, 0], [0, 1, 0], [0, 0, 1]]})
        assert rep.passed and len(geos) == 1
        assert [kept for _, kept in held] == [True, False, False]  # the residual sweep, then the probe's two
        assert all(ref() is None for ref, _ in held) and geos[0]() is None
        assert catalogue_geometry.cache_info().currsize == frames_held
    finally:
        gc.enable()


@pytest.mark.parametrize("name", ["thm-7d-negative", "thm-5d-negative"])
def test_a_warm_negative_report_reads_its_weierstrass_maxima_off_the_numeric_gauge(name):
    run_scenario(name, seed=0)
    counts = _report_calls(name, 3)
    assert count(counts, run_scenario) == 1  # the counter is live
    assert count(counts, elliptic.weierstrass_p) == 0 and count(counts, numeric.build_assignment) == 0


@pytest.mark.parametrize("name", ["thm-7d-negative", "thm-5d-negative"])
def test_the_weierstrass_maxima_are_held_per_point_count(name):
    # on the table A and Lambda each point count reads its own maxima off the process-held gauge
    sequence = (8, 64, 8)
    cold = {}
    for n in sequence:
        catalogue_geometry.cache_clear()
        cold[n] = run_scenario(name, seed=0, config={"npoints": n}).to_json()
    run_scenario(name, seed=0)
    for n in sequence:
        assert run_scenario(name, seed=0, config={"npoints": n}).to_json() == cold[n]


def test_a_rank_two_lambda_keeps_no_weierstrass_maxima():
    catalogue_geometry.cache_clear()
    reports = [run_scenario("thm-7d-negative", overrides=("rank2-lambda",)) for _ in range(2)]
    th = scenarios._THEOREMS[7]
    gauge = anomaly.held_gauge(scenarios._frame_geometry(7, th.A), "DLambda", th.rank2_lambda)
    checks = [next(c for c in rep.checks if c.id == "weierstrass-profile-numeric") for rep in reports]
    assert [c.status for c in checks] == ["error", "error"] and checks[0] == checks[1]
    assert checks[0].details["exception"] == "BadParams('DLambda: the coefficient matrix must have rank <= 1')"
    assert not any(isinstance(key, tuple) and key[0] == "weierstrass-profile-numeric" for key in gauge.held)


def test_a_config_gauges_weierstrass_maxima_are_freed_with_its_report(monkeypatch):
    run_scenario("thm-7d-negative")
    holders = []  # (weakref to the gauge, the maxima kept in it)
    held = scenarios.held_in

    def watched(holder, key, build):
        value = held(holder, key, build)
        if key == ("weierstrass-profile-numeric", 64):
            holders.append((weakref.ref(holder), holder.held[key] is value))
        return value

    monkeypatch.setattr(scenarios, "held_in", watched)
    gc.disable()
    try:
        frames_held = catalogue_geometry.cache_info().currsize
        rep = run_scenario("thm-7d-negative", config={"A": [[1, 2, 0], [0, 1, 0], [0, 0, 1]]})
        assert rep.passed and [kept for _, kept in holders] == [True]
        assert holders[0][0]() is None
        assert catalogue_geometry.cache_info().currsize == frames_held
    finally:
        gc.enable()


@pytest.mark.parametrize("name", SCENARIOS)
def test_editing_a_reports_details_leaves_the_next_report_unchanged(name):
    # a held outcome's details are copied into each report, so no report can edit the held ones
    catalogue_geometry.cache_clear()
    first = run_scenario(name, seed=0)
    text = first.to_json()
    for check in first.checks:
        check.details.clear()
        check.details["edited"] = True
    assert run_scenario(name, seed=0).to_json() == text


def test_a_held_gauge_keeps_its_instanton_outcome_and_never_its_refusal(monkeypatch):
    # the rank-two Lambda's gauge is held on kA: the body of its gauge-instanton check runs on
    # the first report alone, and the closed-form check raises its refusal again on every report
    catalogue_geometry.cache_clear()
    all_zero, read = scenarios._all_zero, []

    def watched(forms, counted):
        read.append(forms)
        return all_zero(forms, counted)

    monkeypatch.setattr(scenarios, "_all_zero", watched)
    reports = [run_scenario("thm-7d-negative", overrides=("rank2-lambda",)) for _ in range(2)]
    gauge = anomaly.held_gauge(catalogue_geometry("kA"), "DLambda", scenarios._THEOREMS[7].rank2_lambda)
    assert sum(forms is gauge.instanton_residual for forms in read) == 1
    closed = [next(c for c in rep.checks if c.id == "anomaly-residual-closed-form") for rep in reports]
    assert [c.status for c in closed] == ["error", "error"] and closed[0] == closed[1]
    assert closed[0].details["exception"] == "BadParams('DLambda: the coefficient matrix must have rank <= 1')"
    assert "anomaly-residual-closed-form" not in gauge.held and "gauge-instanton" in gauge.held


@pytest.mark.parametrize("nan_phi", [-1, -2])
def test_the_normalization_probe_reports_the_fitting_residual_beside_a_nan(monkeypatch, nan_phi):
    # min() keeps a nan that comes first, so a nan for phi = -f would hide a fitting phi = -2f
    geo = scenarios._frame_geometry(7, scenarios._THEOREMS[7].A)
    float_sweep = scenarios._float_sweep

    def patched(sweep, tables):
        for phi, e in geo.scalar_identity.items():
            if sweep.exprs == (e,):
                return math.nan if phi == nan_phi else 1e-12
        return float_sweep(sweep, tables)

    monkeypatch.setattr(scenarios, "_float_sweep", patched)
    probe = next(c for c in run_scenario("ball-7d").checks if c.id == "dilaton-normalization-probe")
    assert probe.status == "pass" and probe.residual == 1e-12
    assert math.isnan(probe.details[f"phi={nan_phi}f"])


def test_a_ball_beyond_the_floats_fails_its_float_checks_alone():
    # |A|^2 = 10^400 has no float: the exact checks still pass and the float ones report an error
    rep = run_scenario("ball-7d", config={"A": [[10**200, 0, 0], [0, 1, 0], [0, 0, 1]]})
    status = {c.id: c.status for c in rep.checks}
    assert status["ball-solves-instanton-equation"] == "pass"
    assert status["instanton-and-closed-torsion-numeric"] == "error"


@pytest.mark.parametrize("name, config", [
    ("thm-7d-negative", {"A": [[10**200, 0, 0], [0, 1, 0], [0, 0, 1]]}),
    ("thm-7d-negative", {"lam": [[10**200, 0, 0], [0, 0, 0], [0, 0, 0]]}),
    ("thm-5d-negative", {"A": [[10**200, 1, 1]]}),
], ids=["7d-A", "7d-lam", "5d-A"])
def test_a_negative_theorem_beyond_the_floats_fails_its_float_check_alone(name, config):
    # |A|^2 or lambda^2 has no float: only the Weierstrass check reads them as floats
    rep = run_scenario(name, config=config)
    numeric_check = next(c for c in rep.checks if c.id == "weierstrass-profile-numeric")
    assert numeric_check.status == "error" and "OverflowError" in numeric_check.details["exception"]
    assert all(c.status == "pass" for c in rep.checks if c is not numeric_check)


def _held_set() -> tuple[int, int]:
    """(catalogue frames held, Gauge objects alive); with the cyclic collector off, only held gauges outlive their report."""
    return catalogue_geometry.cache_info().currsize, sum(isinstance(o, Gauge) for o in gc.get_objects())


def _family_residuals() -> int:
    """The residuals held on the kA and h21 family frames (anomaly.family_residual)."""
    return sum(("family-residual", kind) in catalogue_geometry(cid).held
               for cid in FREE_FRAME.values() for kind in ("DLambda", "DB"))


def _holds(geo, gauge) -> bool:
    """Is gauge kept in geo.held (anomaly.held_gauge)?"""
    return any(value is gauge for value in geo.held.values())


def test_a_family_frame_holds_its_two_residuals_and_no_symbolic_rows_gauge():
    # a family residual is built from a Gauge of symbolic rows that is not kept: after a cold
    # round a family frame holds both residuals, and its only Gauges are its theorem's table
    # gauges and, on h21, the direct frame of contraction-5d, that contraction's table Lambda
    catalogue_geometry.cache_clear()
    for name in SCENARIOS:
        run_scenario(name, seed=0)
    for dim, cid in FREE_FRAME.items():
        geo = catalogue_geometry(cid)
        for kind in ("DLambda", "DB"):
            assert isinstance(geo.held[("family-residual", kind)], CoefExpr)
        th = scenarios._THEOREMS[dim]
        tables = [("DLambda", th.lam), ("DB", th.B)] + [("DLambda", [[1], [2], [0]])] * (cid == "h21")
        gauges = [g for g in geo.held.values() if isinstance(g, Gauge)]
        assert sorted(map(id, gauges)) == sorted(id(anomaly.held_gauge(geo, kind, rows)) for kind, rows in tables)


def _drawn_residual(rng: random.Random, k: int) -> None:
    """One exact anomaly residual on a drawn kA or h21 frame with a drawn gauge, as the fresh-frames benchmark makes."""
    def vec():
        return [rng.choice([v for v in range(-9, 10) if v]) for _ in range(3)]

    kind = ("DLambda", "DB")[k % 2]
    if k % 4 < 2:
        c = k_a([vec(), vec(), vec()])
        u, v = vec(), vec()
        mat = [[x * y for y in v] for x in u] if kind == "DLambda" else [u, v, vec()]  # Lambda of rank one
    else:
        c, mat = h21(*vec()), vec()
    assert anomaly_residual(c, "alphaP", (kind, mat))


def test_a_drawn_residual_derives_nothing_once_its_family_is_derived():
    rng = random.Random(7)
    for k in range(4):  # each kind of frame and gauge once: the families and their gauges
        _drawn_residual(rng, k)
    counts = call_counts(lambda: [_drawn_residual(rng, k) for k in range(4, 12)])
    assert count(counts, anomaly_residual) == 8  # the counter is live
    assert {fn.__name__: count(counts, fn) for fn in (koszul, curvature, pontryagin4)} == {
        "koszul": 0, "curvature": 0, "pontryagin4": 0}


def test_a_config_frame_is_not_held_and_is_freed_with_its_report(monkeypatch):
    for name in ("thm-5d-positive", "thm-7d-negative", "thm-7d-positive"):
        run_scenario(name)
    refs, gauge_refs, specialised = [], [], []

    def watched(c):
        geo = geometry(c)
        refs.append(weakref.ref(geo))
        specialised.append(geo.family is not None)
        return geo

    theorem_gauges = scenarios._theorem_gauges
    kept = []  # per gauge: is it kept in its frame's Geometry?

    def watched_gauges(geos, *args):
        gauges = theorem_gauges(geos, *args)
        gauge_refs.extend(weakref.ref(g) for g in gauges)
        kept.extend(_holds(geo, g) for geo, g in zip(geos, gauges))
        return gauges

    monkeypatch.setattr(scenarios, "geometry", watched)
    monkeypatch.setattr(scenarios, "_theorem_gauges", watched_gauges)
    gc.disable()
    try:
        held = _held_set()
        rep = run_scenario("thm-5d-positive", config={"A": [[1, 2, 0]]})
        assert rep.passed and len(refs) == 1 and specialised == [True]
        assert _held_set() == held
        # the default B's gauge on the config frame is kept in that frame's Geometry, and both are freed
        assert kept == [True, True] and refs[0]() is None and gauge_refs[1]() is None
        # a config gauge on the default (held) frames: the report's own, freed with it
        for name, config in (("thm-7d-negative", {"lam": [[2, 0, 0], [1, 0, 0], [0, 0, 0]]}),
                             ("thm-7d-positive", {"B": [[1, 0, 0], [0, 0, 0], [0, 0, 1]]})):
            gauge_refs.clear()
            rep = run_scenario(name, config=config)
            assert rep.passed, [(c.id, c.status) for c in rep.checks if c.status != "pass"]
            assert len(gauge_refs) == 2 and all(ref() is None for ref in gauge_refs)
            assert _held_set() == held
        # drawn frames and gauges are never held, and the family residuals they are
        # read off, one per family and kind, are held without a Gauge
        rng = random.Random(20)
        for k in range(20):
            _drawn_residual(rng, k)
        assert _family_residuals() == 4
        assert _held_set() == held
    finally:
        gc.enable()


@pytest.mark.parametrize("name", ["ball-7d", "contraction-6d", "contraction-5d"])
def test_evaluation_reads_each_point_table_as_given(name):
    # symbol names are resolved where a point's table is built, never per evaluation
    assert _calls(name, CoefExpr.evaluate) > 0
    assert _calls(name, ring.as_symbol) == 0


@pytest.mark.parametrize("name", ["thm-7d-negative", "thm-5d-negative"])
def test_first_integral_is_built_once_per_report(name):
    # the reduction's closed form builds solv4_lhs once per gauge, and the held first integral and
    # u-substitution pair (two) once per process
    assert _calls(name, solv4_lhs) <= 4


@pytest.mark.parametrize(
    "name, config",
    [
        ("thm-5d-negative", {"npoints": 1}),
        ("thm-5d-negative", {"A": [[0, 0, 0]]}),
        ("thm-7d-negative", {"A": [[1, 0], [0, 1]]}),
        ("thm-7d-negative", {"lam": [1, 0, 0]}),
        ("thm-7d-positive", {"B": [[0, 0, 0], [0, 0, 0], [0, 0, "1/0"]]}),
        ("thm-7d-positive", {"alphaP": "x"}),
        ("ball-7d", {"A": [[1, 0, 0], [0, 1, 0], [0, 0, 1.5]]}),
        ("ball-7d", {"npoints": True}),
        ("thm-5d-positive", {"B": [0.1 + 0.2, 0, 0]}),  # 3/10 is the short rational near it
        ("thm-7d-positive", {"alphaP": 1e-12}),
        ("thm-7d-negative", {"lam": [[1e-12, 0, 0], [0, 0, 0], [0, 0, 0]]}),
        ("thm-5d-positive", {"A": [5]}),
        ("thm-7d-negative", {"lam": [[1, 0, 0], [0, 0], [0, 0, 0]]}),
        # c* is proportional to |A|^2 - |B|^2, so B needs |B|^2 < |A|^2
        ("thm-5d-positive", {"B": [[1, 2, 0]]}),
        ("thm-5d-positive", {"B": [1, 1, 1]}),
        ("thm-5d-positive", {"B": [0, 1, 1], "A": [[1, 0, 0]]}),
        ("thm-7d-positive", {"B": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]}),
    ],
)
def test_unusable_theorem_config_raises_before_any_check(name, config):
    with pytest.raises(BadParams, match=f"{name}: config '{next(iter(config))}'"):
        run_scenario(name, config=config)


@pytest.mark.parametrize("name", SCENARIOS)
def test_unread_config_key_raises_before_any_check(name):
    with pytest.raises(BadParams, match=f"{name}: unknown config key 'lamda'"):
        run_scenario(name, config={"lamda": [[1, 0, 0], [0, 0, 0], [0, 0, 0]]})


def test_a_config_gauge_matrix_is_read_in_every_shape_its_gauge_reads():
    # gauge_rows reads a 5-leg Lambda as three entries or as one column, and B as three entries or one row;
    # |B|^2 = 5 needs |A|^2 above it, so the B case brings its A
    for name, key, nested, flat, config in (("thm-5d-negative", "lam", [[2], [-1], [1]], [2, -1, 1], {}),
                                            ("thm-5d-positive", "B", [[1, 2, 0]], [1, 2, 0], {"A": [[1, 2, 1]]})):
        got, want = (run_scenario(name, config={**config, key: mat}) for mat in (nested, flat))
        assert got.checks == want.checks
    assert got.passed and got.values == want.values and got.values["absB2"] == 5


def test_a_config_gauge_equal_to_a_table_gauge_is_the_held_one(monkeypatch):
    default = run_scenario("thm-7d-negative")
    theorem_gauges, got = scenarios._theorem_gauges, []

    def watched_gauges(geos, *args):
        gauges = theorem_gauges(geos, *args)
        got.extend((geo, g) for geo, g in zip(geos, gauges))
        return gauges

    monkeypatch.setattr(scenarios, "_theorem_gauges", watched_gauges)
    gc.disable()
    try:
        held = _held_set()
        kA_held = dict(catalogue_geometry("kA").held)
        rep = run_scenario("thm-7d-negative", config={"lam": [[1, 0, 0], [0, 0, 0], [0, 0, 0]]})
        assert rep.to_json() == default.to_json()
        assert len(got) == 2 and all(_holds(geo, g) for geo, g in got)
        assert catalogue_geometry("kA").held == kA_held and _held_set() == held
    finally:
        gc.enable()


def test_config_floats_read_as_the_short_rationals_they_round_trip_from():
    rep = run_scenario("thm-5d-positive", config={"B": [0.1, 0, 0], "alphaP": 0.1})
    assert rep.passed, [(c.id, c.status) for c in rep.checks if c.status != "pass"]
    assert rep.values["absB2"] == Fraction(1, 100) and rep.values["alphaP"] == Fraction(1, 10)
    rep = run_scenario("thm-7d-negative", config={"lam": [[0.1, 0, 0], [0, 0, 0], [0, 0, 0]]})
    assert rep.passed, [(c.id, c.status) for c in rep.checks if c.status != "pass"]
    assert rep.values["lam2"] == Fraction(1, 100)


def test_theorem_config_accepts_fractions_and_custom_values():
    rep = run_scenario("thm-5d-positive", config={"A": [[1, 2, 0]], "B": ["1/2", 0, 1], "alphaP": "3/2"})
    assert rep.passed, [(c.id, c.status) for c in rep.checks if c.status != "pass"]
    assert rep.values["absB2"] == Fraction(5, 4) and rep.values["alphaP"] == Fraction(3, 2)
    rep = run_scenario("thm-7d-negative", config={"npoints": 2})
    assert rep.passed
