"""Tests for the scenario catalogue and its deterministic reports."""
from __future__ import annotations

import cProfile
import json
import math
import pstats
from fractions import Fraction

import pytest

from nilforms.anomaly import anomaly_residual
from nilforms.connection import curvature, levi_civita
from nilforms.elliptic import half_period
from nilforms.profiles import DilatonProfile
from nilforms.profiles import BadParams
from nilforms.scenarios import (
    SCENARIOS,
    SCHEMA_VERSION,
    CheckResult,
    ScenarioReport,
    ScenarioSpec,
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


def test_unknown_scenario_raises():
    with pytest.raises(KeyError, match="unknown scenario"):
        run_scenario("thm-9d")


def test_scenario_spec_dispatch():
    spec = ScenarioSpec("thm-7d-negative", seed=4, overrides=("rank2-lambda",))
    rep = run_scenario(spec)
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


# most calls of (levi_civita, curvature, anomaly_residual, DilatonProfile.jets)
# one report at seed 0 may make: each coframe's geometry is derived once, and
# each sample point's profile jets are evaluated once per check
DERIVATION_BUDGET = {
    "thm-7d-negative": (2, 6, 2, 128),
    "thm-5d-negative": (2, 6, 2, 128),
    "thm-7d-positive": (4, 6, 2, 0),
    "thm-5d-positive": (4, 6, 2, 0),
    "ball-7d": (2, 3, 0, 80),
    "contraction-6d": (5, 7, 2, 12),
    "contraction-5d": (5, 7, 2, 12),
}


@pytest.mark.parametrize("name", SCENARIOS)
def test_scenario_derives_each_geometry_once(name):
    prof = cProfile.Profile()
    prof.enable()
    try:
        run_scenario(name, seed=0)
    finally:
        prof.disable()
    stats = pstats.Stats(prof).stats

    def calls(fn):
        code = fn.__code__
        return stats.get((code.co_filename, code.co_firstlineno, code.co_name), (0, 0))[1]

    got = tuple(calls(fn) for fn in (levi_civita, curvature, anomaly_residual, DilatonProfile.jets))
    assert got[0] >= 1  # the counter is live
    assert all(n <= bound for n, bound in zip(got, DERIVATION_BUDGET[name])), got


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
    ],
)
def test_unusable_theorem_config_raises_before_any_check(name, config):
    with pytest.raises(BadParams, match=f"{name}: config '{next(iter(config))}'"):
        run_scenario(name, config=config)


def test_theorem_config_accepts_fractions_and_custom_values():
    rep = run_scenario("thm-5d-positive", config={"A": [[1, 2, 0]], "B": ["1/2", 0, 1], "alphaP": "3/2"})
    assert rep.passed, [(c.id, c.status) for c in rep.checks if c.status != "pass"]
    assert rep.values["absB2"] == Fraction(5, 4) and rep.values["alphaP"] == Fraction(3, 2)
    rep = run_scenario("thm-7d-negative", config={"npoints": 2})
    assert rep.passed
