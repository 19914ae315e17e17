"""Tests for the scenario catalogue and its deterministic reports."""
from __future__ import annotations

import json
import math
from fractions import Fraction

import pytest

from nilforms.elliptic import half_period
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
