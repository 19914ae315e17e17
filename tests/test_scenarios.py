"""Tests for the scenario catalogue and its deterministic reports."""
from __future__ import annotations

import cProfile
import gc
import hashlib
import json
import math
import numbers
import pstats
import random
import weakref
from fractions import Fraction
from functools import cache

import pytest

from nilforms import anomaly, gstruct, ring, scenarios
from nilforms.anomaly import Gauge, anomaly_residual, solv4_lhs
from nilforms.connection import curvature, koszul, pontryagin4
from nilforms.elliptic import half_period
from nilforms.forms import CoframeSpec, FormExpr
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
    rep = ScenarioReport(
        name="probe",
        seed=0,
        checks=[CheckResult("nan-residual", "fail", residual=float("nan"))],
        values={"up": float("inf"), "down": -float("inf"), "ok": 0.5, "nested": [float("nan")]},
    )
    doc = json.loads(rep.to_json(), parse_constant=_reject_constant)
    assert doc["checks"][0]["residual"] == "NaN"
    assert doc["values"] == {"up": "Infinity", "down": "-Infinity", "ok": 0.5, "nested": ["NaN"]}


def _call_counts(name: str, seed: int) -> dict:
    """cProfile call counts of one report, keyed by code object."""
    prof = cProfile.Profile()
    prof.enable()
    try:
        run_scenario(name, seed=seed)
    finally:
        prof.disable()
    return {key: stat[1] for key, stat in pstats.Stats(prof).stats.items()}


def _count(counts: dict, fn) -> int:
    code = fn.__code__
    return counts.get((code.co_filename, code.co_firstlineno, code.co_name), 0)


@cache
def _seed0_calls(name: str) -> dict:
    """Call counts of one report at seed 0 that derives every geometry it reads."""
    catalogue_geometry.cache_clear()
    return _call_counts(name, 0)


def _calls(name: str, fn) -> int:
    return _count(_seed0_calls(name), fn)


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
    "contraction-6d": (3, 5, 2, 12),
    "contraction-5d": (3, 5, 2, 12),
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
)


@pytest.mark.parametrize("name", SCENARIOS)
def test_a_second_report_derives_no_frame_geometry(name):
    # so each is derived once per process, whatever the seed
    run_scenario(name, seed=0)
    counts = _call_counts(name, 3)
    got = {fn.__qualname__: _count(counts, fn) for fn in HELD_DERIVATIONS}
    assert _count(counts, run_scenario) == 1  # the counter is live
    assert not any(got.values()), got


# most calls a warm ball-7d report (seed 1 after seed 0) may make of the
# fixed work its float evaluation and G2 contractions would otherwise redo:
# component reads of Theta, Fraction-to-float conversions, key decodings
WARM_BALL_BUDGET = {FormExpr.value_at: 100, numbers.Rational.__float__: 20, ring._decode: 1000}


def test_a_warm_ball_report_redoes_no_fixed_float_or_contraction_work():
    run_scenario("ball-7d", seed=0)
    counts = _call_counts("ball-7d", 1)
    got = {fn.__qualname__: _count(counts, fn) for fn in WARM_BALL_BUDGET}
    assert _count(counts, CoefExpr.evaluate) > 0 and _count(counts, DilatonProfile.jets) > 0  # the counters are live
    assert all(got[fn.__qualname__] <= bound for fn, bound in WARM_BALL_BUDGET.items()), got


def test_a_ball_beyond_the_floats_fails_its_float_checks_alone():
    # |A|^2 = 10^400 has no float: the exact checks still pass and the float ones report an error
    rep = run_scenario("ball-7d", config={"A": [[10**200, 0, 0], [0, 1, 0], [0, 0, 1]]})
    status = {c.id: c.status for c in rep.checks}
    assert status["ball-solves-instanton-equation"] == "pass"
    assert status["instanton-and-closed-torsion-numeric"] == "error"


def _held_set() -> tuple[int, int]:
    """(catalogue frames held, Gauge objects alive); with the cyclic collector off, only held gauges outlive their report."""
    return catalogue_geometry.cache_info().currsize, sum(isinstance(o, Gauge) for o in gc.get_objects())


def _family_gauges() -> int:
    """The symbolic-rows gauges held on the kA and h21 family frames (anomaly.family_gauge)."""
    return sum(rows is None for cid in FREE_FRAME.values() for _kind, rows in catalogue_geometry(cid).gauges)


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
    prof = cProfile.Profile()
    prof.enable()
    try:
        for k in range(4, 12):
            _drawn_residual(rng, k)
    finally:
        prof.disable()
    counts = {key: stat[1] for key, stat in pstats.Stats(prof).stats.items()}
    assert _count(counts, anomaly_residual) == 8  # the counter is live
    assert {fn.__name__: _count(counts, fn) for fn in (koszul, curvature, pontryagin4)} == {
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
        kept.extend(g in geo.gauges.values() for geo, g in zip(geos, gauges))
        return gauges

    monkeypatch.setattr(scenarios, "geometry", watched)
    monkeypatch.setattr(scenarios, "_theorem_gauges", watched_gauges)
    gc.disable()
    try:
        held, family_gauges = _held_set(), _family_gauges()
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
        # drawn frames and gauges are never held: the held set grows by the
        # family gauges they are read off, one per family and kind, alone
        rng = random.Random(20)
        for k in range(20):
            _drawn_residual(rng, k)
        assert _family_gauges() == 4
        assert _held_set() == (held[0], held[1] + _family_gauges() - family_gauges)
    finally:
        gc.enable()


@pytest.mark.parametrize("name", ["ball-7d", "contraction-6d", "contraction-5d"])
def test_evaluation_reads_each_point_table_as_given(name):
    # symbol names are resolved where a point's table is built, never per evaluation
    assert _calls(name, CoefExpr.evaluate) > 0
    assert _calls(name, ring.as_symbol) == 0


@pytest.mark.parametrize("name", ["thm-7d-negative", "thm-5d-negative"])
def test_first_integral_is_built_once_per_report(name):
    # three symbolic checks and the numeric leg each build solv4_lhs once
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
    ],
)
def test_unusable_theorem_config_raises_before_any_check(name, config):
    with pytest.raises(BadParams, match=f"{name}: config '{next(iter(config))}'"):
        run_scenario(name, config=config)


@pytest.mark.parametrize("name", SCENARIOS)
def test_unread_config_key_raises_before_any_check(name):
    with pytest.raises(BadParams, match=f"{name}: unknown config key 'lamda'"):
        run_scenario(name, config={"lamda": [[1, 0, 0], [0, 0, 0], [0, 0, 0]]})


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
