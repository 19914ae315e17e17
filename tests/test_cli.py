"""Tests for the command-line driver: exit codes, JSON and CSV output."""
from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from nilforms import cli
from nilforms.elliptic import half_period, weierstrass_p
from nilforms.ring import CoefExpr


def run_cli(argv, capsys):
    rc = cli.main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


# ---------------------------------------------------------------------------
# verify

def test_verify_passes_and_prints_report(capsys):
    rc, out, err = run_cli(["verify", "--scenario", "ball-7d"], capsys)
    assert rc == 0
    doc = json.loads(out)
    assert doc["scenario"] == "ball-7d" and doc["passed"] is True
    assert "[pass] ball-7d: frame-integrability" in err


def test_verify_override_fails_with_exit_one(capsys):
    rc, out, _err = run_cli(
        ["verify", "--scenario", "thm-7d-negative", "--set", "rank2-lambda"], capsys
    )
    assert rc == 1
    doc = json.loads(out)
    assert doc["passed"] is False
    assert doc["overrides"] == ["rank2-lambda"]
    # the rank test reads the numeric rows, whatever route the gauge's p1 takes
    status = {c["id"]: c["status"] for c in doc["checks"]}
    assert status["gauge-rank-one"] == "fail"


def test_verify_unknown_scenario_is_config_error(capsys):
    rc, _out, err = run_cli(["verify", "--scenario", "thm-9d"], capsys)
    assert rc == 2 and "unknown scenario" in err


def test_verify_unknown_override_is_config_error(capsys):
    rc, _out, err = run_cli(
        ["verify", "--scenario", "ball-7d", "--set", "rank3-lambda"], capsys
    )
    assert rc == 2 and "unknown override" in err


@pytest.mark.parametrize("scenario", ["thm-7d-positive", "ball-7d", "thm-5d-negative", "thm-5d-positive",
                                      "contraction-6d", "contraction-5d"])
def test_verify_override_the_scenario_does_not_read_is_config_error(scenario, capsys):
    rc, out, err = run_cli(["verify", "--scenario", scenario, "--set", "rank2-lambda"], capsys)
    assert rc == 2 and out == ""
    assert err.startswith(f"error: {scenario}: unknown override 'rank2-lambda'") and err.count("\n") == 1


def test_verify_repeated_override_is_config_error(capsys):
    rc, out, err = run_cli(["verify", "--scenario", "thm-7d-negative", "--set", "rank2-lambda",
                            "--set", "rank2-lambda"], capsys)
    assert rc == 2 and out == ""
    assert err == "error: thm-7d-negative: repeated override 'rank2-lambda'\n"


def test_verify_bad_config_file_is_config_error(tmp_path, capsys):
    p = tmp_path / "conf.json"
    p.write_text("{not json")
    rc, _out, err = run_cli(["verify", "--scenario", "ball-7d", "--config", str(p)], capsys)
    assert rc == 2 and "cannot read config" in err
    p.write_text("[1, 2]")
    rc, _out, err = run_cli(["verify", "--scenario", "ball-7d", "--config", str(p)], capsys)
    assert rc == 2 and "JSON object" in err


def test_verify_config_that_is_not_utf8_is_config_error(tmp_path, capsys):
    # a byte that starts no UTF-8 sequence is unusable input, not a crash
    p = tmp_path / "conf.json"
    p.write_bytes(b'{"npoints": 16, "note": "\xff"}')
    rc, out, err = run_cli(["verify", "--scenario", "ball-7d", "--config", str(p)], capsys)
    assert rc == 2 and out == ""
    assert err.startswith("error: cannot read config") and err.count("\n") == 1


@pytest.mark.parametrize(
    "scenario, config, key",
    [
        ("ball-7d", {"A": "x"}, "'A'"),
        ("ball-7d", {"npoints": 0}, "'npoints'"),
        ("thm-7d-negative", {"npoints": 1}, "'npoints'"),
        ("thm-7d-negative", {"npoints": 0}, "'npoints'"),
        ("thm-7d-negative", {"A": "x"}, "'A'"),
        ("thm-7d-negative", {"lam": "x"}, "'lam'"),
        ("thm-5d-positive", {"A": "x"}, "'A'"),
        ("thm-5d-positive", {"B": "x"}, "'B'"),
        ("thm-5d-positive", {"alphaP": -1}, "'alphaP'"),
        ("thm-7d-negative", {"lamda": [[1, 0, 0], [0, 0, 0], [0, 0, 0]]}, "'lamda'"),
        ("thm-5d-positive", {"B": [0.1 + 0.2, 0, 0]}, "'B'"),
        ("thm-5d-positive", {"B": [True, False, False]}, "'B'"),
        ("thm-5d-positive", {"alphaP": True}, "'alphaP'"),
        ("thm-5d-negative", {"lam": [True, 0, 0]}, "'lam'"),
        ("thm-5d-positive", {"B": [[1, 2, 0]]}, "'B' must be a matrix of numbers with |B|^2 < |A|^2 = 3"),
        ("thm-7d-positive", {"B": [[0, 0, 0], [0, 0, 0], [0, 0, "1/0"]]}, "'1/0' has a zero denominator"),
    ],
    ids=[
        "A-not-a-matrix", "npoints-zero", "7d-negative-npoints-one", "7d-negative-npoints-zero",
        "7d-negative-A-not-a-matrix", "7d-negative-lam-not-numbers", "5d-positive-A-not-a-matrix",
        "5d-positive-B-not-numbers", "5d-positive-alphaP-negative", "7d-negative-unread-key",
        "5d-positive-B-unreadable-float", "5d-positive-B-booleans", "5d-positive-alphaP-boolean",
        "5d-negative-lam-boolean", "5d-positive-B-norm-above-A", "7d-positive-B-zero-denominator",
    ],
)
def test_verify_unusable_ball_config_exits_two_with_one_error_line(tmp_path, capsys, scenario, config, key):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(config))
    rc, out, err = run_cli(["verify", "--scenario", scenario, "--config", str(p)], capsys)
    assert rc == 2 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error:") and key in err


def test_verify_out_file_matches_stdout(tmp_path, capsys):
    p = tmp_path / "report.json"
    rc, out, _err = run_cli(["verify", "--scenario", "ball-7d", "--out", str(p)], capsys)
    assert rc == 0
    assert p.read_text() == out


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--scenario", "ball-7d"],
        ["dump-profile", "--profile", "ball", "--params", "absA2=3", "--grid", "2"],
    ],
    ids=["verify", "dump-profile"],
)
def test_unwritable_out_exits_two_with_one_error_line(tmp_path, capsys, argv):
    target = tmp_path / "missing-dir" / "out.txt"
    rc, out, err = run_cli(argv + ["--out", str(target)], capsys)
    assert rc == 2 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: cannot write")
    assert not target.exists()


# ---------------------------------------------------------------------------
# dump-profile

def test_dump_profile_ball_csv(capsys):
    rc, out, _err = run_cli(
        ["dump-profile", "--profile", "ball", "--params", "absA2=3", "--grid", "8"], capsys
    )
    assert rc == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["x", "u(x)", "f(x)", "e^{2f}", "residual"]
    assert len(rows) == 9
    for row in rows[1:]:
        assert float(row[4]) == 0.0


def test_dump_profile_weierstrass_csv(capsys):
    rc, out, _err = run_cli(
        ["dump-profile", "--profile", "weierstrass", "--params", "d=1,alpha=1", "--grid", "16"],
        capsys,
    )
    assert rc == 0
    rows = list(csv.reader(io.StringIO(out)))[1:]
    assert len(rows) == 16
    tau = half_period(1.0)
    for row in rows:
        x, u = float(row[0]), float(row[1])
        assert 0.0 < x < 2.0 * tau
        assert u == pytest.approx(weierstrass_p(x, 1.0)[0], rel=1e-10)
        assert abs(float(row[4])) < 1e-9


def test_dump_profile_out_file(tmp_path, capsys):
    p = tmp_path / "t.csv"
    rc, out, _err = run_cli(
        ["dump-profile", "--profile", "constant", "--params", "f0=0", "--grid", "4",
         "--out", str(p)], capsys
    )
    assert rc == 0 and out == ""
    assert p.read_text().splitlines()[0] == "x,u(x),f(x),e^{2f},residual"


def test_dump_profile_bad_params(capsys):
    rc, _out, err = run_cli(
        ["dump-profile", "--profile", "ball", "--params", "absA2=0"], capsys
    )
    assert rc == 2 and "positive" in err
    rc, _out, err = run_cli(
        ["dump-profile", "--profile", "ball", "--params", "absA2"], capsys
    )
    assert rc == 2 and "need k=v" in err
    rc, _out, err = run_cli(
        ["dump-profile", "--profile", "ball", "--params", "absA2=x"], capsys
    )
    assert rc == 2 and "bad numeric value" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["dump-profile", "--profile", "ball"], "ball: missing parameter 'absA2'"),
        (["dump-profile", "--profile", "ball", "--params", "absA2=3,foo=2"],
         "ball: unknown parameter 'foo' (takes absA2)"),
        (["crosscheck", "--profile", "ball", "--expr", "lap-e2f", "--params", "absA2=3,foo=2"],
         "ball: unknown parameter 'foo' (takes absA2)"),
        (["crosscheck", "--profile", "weierstrass", "--expr", "lap-e2f", "--params", "d=1"],
         "weierstrass: missing parameter 'alpha'"),
        (["dump-profile", "--profile", "fundamental", "--params", "alpha=1"],
         "fundamental: unknown parameter 'alpha' (takes alphaP, c, center)"),
        (["dump-profile", "--profile", "fundamental", "--params", "c=1,alphaP=2"],
         "fundamental: give alphaP or c, not both"),
        (["dump-profile", "--profile", "fundamental", "--params", "c=1,c=2"], "repeated --params key 'c'"),
        (["dump-profile", "--profile", "fundamental", "--params", "c=1,center=2"],
         "fundamental: center must have four coordinates"),
    ],
)
def test_profile_parameter_errors_name_the_parameter(argv, message, capsys):
    rc, out, err = run_cli(argv, capsys)
    assert rc == 2 and out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize(
    "profile, params",
    [
        ("constant", "f0=-1000"),  # (e^{2 f0})^3 underflows to 0.0
        ("weierstrass", "d=1e300,alpha=1"),  # the half period's cube underflows
        ("weierstrass", "d=1e-300,alpha=1"),  # the Laurent series turns nan
        ("weierstrass", "d=1,alpha=1e300"),  # alpha^2 overflows
        ("fundamental", "alphaP=1e308"),  # c = 3 alphaP overflows
        ("ball", "absA2=1e308"),  # the residual column overflows
    ],
)
def test_dump_profile_outside_the_float_range_exits_two(tmp_path, capsys, profile, params):
    p = tmp_path / "t.csv"
    rc, out, err = run_cli(
        ["dump-profile", "--profile", profile, "--params", params, "--grid", "8", "--out", str(p)], capsys
    )
    assert rc == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not p.exists()


def test_dump_profile_keeps_extreme_but_finite_parameters(capsys):
    for profile, params in (("constant", "f0=-118"), ("constant", "f0=200"), ("weierstrass", "d=1e-20,alpha=1")):
        rc, out, _err = run_cli(["dump-profile", "--profile", profile, "--params", params, "--grid", "8"], capsys)
        assert rc == 0
        cells = [float(v) for row in list(csv.reader(io.StringIO(out)))[1:] for v in row]
        assert len(cells) == 40 and all(map(math.isfinite, cells))


@pytest.mark.parametrize(
    "profile, params",
    [
        ("fundamental", "c=1e-320"),  # g = c/rho is subnormal and g*g underflows
        ("fundamental", "c=1e308"),  # f stays finite but e^{2f} overflows
        ("ball", "absA2=1e-320"),  # the ball's g*g underflows
    ],
)
def test_dump_profile_at_the_float_edge_exits_cleanly(capsys, profile, params):
    rc, out, err = run_cli(["dump-profile", "--profile", profile, "--params", params, "--grid", "8"], capsys)
    assert "Traceback" not in err
    if rc == 0:
        cells = [float(v) for row in list(csv.reader(io.StringIO(out)))[1:] for v in row]
        assert len(cells) == 40 and all(map(math.isfinite, cells))
    else:
        assert rc == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1


def test_params_accept_fractions(capsys):
    rc, out, _err = run_cli(
        ["dump-profile", "--profile", "ball", "--params", "absA2=3/4", "--grid", "2"], capsys
    )
    assert rc == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert float(rows[1][3]) == pytest.approx(3.0 / 16.0)


# ---------------------------------------------------------------------------
# crosscheck

def test_crosscheck_passes(capsys):
    rc, out, _err = run_cli(
        ["crosscheck", "--profile", "ball", "--params", "absA2=3",
         "--expr", "lap-e2f", "--points", "6"], capsys
    )
    assert rc == 0
    doc = json.loads(out)
    assert doc["passed"] is True
    assert doc["max_rel_error"] < 1e-6
    assert doc["expr"] == "lap-e2f" and doc["points"] == 6


def test_crosscheck_exterior_derivative(capsys):
    rc, out, _err = run_cli(
        ["crosscheck", "--profile", "ball", "--params", "absA2=3",
         "--expr", "theta-d", "--points", "4"], capsys
    )
    assert rc == 0 and json.loads(out)["passed"] is True


@pytest.mark.parametrize("expr", list(cli.CROSSCHECKS))
def test_every_crosscheck_id_runs_and_passes(expr, capsys):
    rc, out, _err = run_cli(
        ["crosscheck", "--profile", "ball", "--params", "absA2=3",
         "--expr", expr, "--points", "3"], capsys
    )
    doc = json.loads(out)
    assert rc == 0 and doc["passed"] is True
    assert doc["expr"] == expr and doc["points"] == 3


def test_crosscheck_with_a_nan_error_exits_two(capsys):
    # e^{2f} overflows at c=1e308, so every derivative of lap e^{2f} is nan;
    # max(0.0, nan) is 0.0, which once printed max_rel_error 0.0 and passed
    rc, out, err = run_cli(
        ["crosscheck", "--profile", "fundamental", "--params", "c=1e308", "--expr", "lap-e2f"], capsys
    )
    assert rc == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and "nan" in err


def test_crosscheck_of_a_sum_that_cancels_at_a_huge_scale_passes(capsys):
    # lap e^{2f} of the fundamental profile is harmonic: its terms, each of size about c, cancel to
    # about 0, and the error is measured against their sizes, so c = 1e300 passes
    rc, out, err = run_cli(
        ["crosscheck", "--profile", "fundamental", "--params", "c=1e300", "--expr", "lap-e2f"], capsys
    )
    assert rc == 0 and err == ""
    doc = json.loads(out)
    assert doc["passed"] is True and doc["max_rel_error"] < 1e-9


@pytest.mark.parametrize("params", ["c=1", "c=1e300"])
def test_crosscheck_fails_a_wrong_derivative(params, capsys, monkeypatch):
    # 2 d(e^{2f}) against the central difference of e^{2f}: measured against the sizes of the
    # terms it sums, a derivative off by a factor still fails, at a huge scale too
    partial = CoefExpr.partial
    monkeypatch.setattr(CoefExpr, "partial", lambda self, i: partial(self, i) * 2)
    rc, out, _err = run_cli(
        ["crosscheck", "--profile", "fundamental", "--params", params, "--expr", "e2f-partials"], capsys
    )
    doc = json.loads(out)
    assert rc == 1 and doc["passed"] is False and doc["max_rel_error"] > 0.1


@pytest.mark.parametrize(
    "step, message",
    [
        ("1e300", "reaches the singular set"),  # once an elliptic.AtPole traceback
        ("1e-320", "does not move the sample point"),  # once passed: x +- h == x, every difference 0
    ],
    ids=["step-reaches-the-pole", "step-moves-nothing"],
)
def test_crosscheck_step_that_breaks_the_stencil_exits_two(step, message, capsys):
    rc, out, err = run_cli(
        ["crosscheck", "--profile", "weierstrass", "--params", "d=1,alpha=1", "--expr", "theta-d",
         "--step", step], capsys
    )
    assert rc == 2 and out == ""
    assert err.startswith("error: weierstrass: --step ") and err.count("\n") == 1 and message in err


def test_crosscheck_unknown_expr(capsys):
    rc, _out, err = run_cli(
        ["crosscheck", "--profile", "ball", "--params", "absA2=3", "--expr", "curl"], capsys
    )
    assert rc == 2 and "unknown expression id" in err


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["crosscheck", "--profile", "ball", "--params", "absA2=3", "--expr", "lap-e2f",
          "--points", "0"], "--points"),
        (["crosscheck", "--profile", "ball", "--params", "absA2=3", "--expr", "lap-e2f",
          "--step", "0"], "--step"),
        (["dump-profile", "--profile", "ball", "--params", "absA2=3", "--grid", "-3"], "--grid"),
        (["dump-profile", "--profile", "ball", "--params", "absA2=1e400"], "absA2"),
        (["dump-profile", "--profile", "constant", "--params", "f0=1000"], "f0"),
    ],
    ids=["points-zero", "step-zero", "grid-negative", "params-overflow", "constant-overflow"],
)
def test_unusable_numeric_argument_exits_two_with_one_error_line(argv, flag, capsys):
    rc, out, err = run_cli(argv, capsys)
    assert rc == 2 and out == ""
    errors = [line for line in err.splitlines() if "error:" in line]
    assert len(errors) == 1 and flag in errors[0]
    assert "Traceback" not in err


@pytest.mark.parametrize("value", ["nan", "inf", "-0.5"])
def test_step_and_tolerance_must_be_positive_and_finite(value, capsys):
    for flag in ("--step", "--tol"):
        rc, _out, err = run_cli(
            ["crosscheck", "--profile", "ball", "--params", "absA2=3", "--expr", "lap-e2f",
             flag, value], capsys
        )
        assert rc == 2 and "must be positive and finite" in err


def test_usage_error_exits_two(capsys):
    assert cli.main(["dump-profile", "--profile", "parabolic"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("command", ["dump-profile", "crosscheck"])
def test_custom_profile_is_an_invalid_choice(command, capsys):
    assert cli.main([command, "--profile", "custom"]) == 2
    assert "invalid choice: 'custom'" in capsys.readouterr().err


def _src_env() -> dict:
    """The environment with this checkout's src/ first on PYTHONPATH, for child interpreters."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(Path(__file__).resolve().parents[1] / "src"),
                                                      env.get("PYTHONPATH")]))
    return env


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "nilforms.cli", "verify", "--scenario", "contraction-6d"],
        capture_output=True, text=True, env=_src_env(),
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["passed"] is True


def test_cli_import_needs_no_third_party_package():
    root = Path(__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, nilforms.cli; print(sorted({m.split('.')[0] for m in sys.modules} & {'scipy', 'numpy'}))"],
        capture_output=True, text=True, env=_src_env(),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
    tomllib = pytest.importorskip("tomllib")
    with open(root / "pyproject.toml", "rb") as fh:
        assert tomllib.load(fh)["project"]["dependencies"] == []


def test_only_verify_loads_the_scenario_machinery():
    # what neither the import nor dump-profile nor a scalar crosscheck needs
    unused = ("nilforms.anomaly", "nilforms.gstruct", "nilforms.connection", "nilforms.frames",
              "nilforms.scenarios", "inspect", "dataclasses")
    probe = (
        "import contextlib, io, sys\n"
        f"unused = {unused!r}\n"
        "from nilforms import cli\n"
        "loaded = [[m for m in unused if m in sys.modules]]\n"
        "with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):\n"
        "    codes = [cli.main(['dump-profile', '--profile', 'ball', '--params', 'absA2=3', '--grid', '4'])]\n"
        "    loaded.append([m for m in unused if m in sys.modules])\n"
        "    codes.append(cli.main(['crosscheck', '--profile', 'ball', '--params', 'absA2=3', '--expr', 'lap-e2f',\n"
        "                           '--points', '4']))\n"
        "    loaded.append([m for m in unused if m in sys.modules])\n"
        "    codes.append(cli.main(['verify', '--scenario', 'nope']))\n"
        "print(loaded)\n"
        "print(codes, 'nilforms.scenarios' in sys.modules)\n"
        "with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):\n"
        "    cli.main(['verify', '--scenario', 'contraction-5d'])\n"
        "    after = [[m for m in ('dataclasses', 'inspect') if m in sys.modules]]\n"
        "    cli.main(['crosscheck', '--profile', 'fundamental', '--params', 'c=1', '--expr', 'theta-d',\n"
        "              '--points', '4'])\n"
        "    after.append([m for m in ('dataclasses', 'inspect') if m in sys.modules])\n"
        "print(after)\n"
        "print('nilforms.scenarios' in sys.modules)\n"
    )
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=_src_env())
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == "[[], [], []]"  # after the import, after dump-profile, after crosscheck
    assert lines[1] == "[0, 0, 2] False"
    assert lines[2] == "[[], []]"  # a cold verify and a theta-d crosscheck import neither
    assert lines[-1] == "True"


# sha256 of the stdout of PINNED_ARGV, concatenated in order.  A change that
# should leave the CLI's output alone must leave this digest alone.
PINNED_SHA256 = "000bda83924d8d82338218beff6aff95c046c5df704cb094ccb76795070f2b2e"
PINNED_ARGV = [
    ["dump-profile", "--profile", name, "--params", params, "--grid", "16"]
    for name, params in (("weierstrass", "d=1,alpha=1"), ("ball", "absA2=3"), ("fundamental", "c=1"),
                         ("constant", "f0=0"))
] + [
    ["crosscheck", "--profile", name, "--params", params, "--expr", expr, "--points", "4"]
    for name, params in (("ball", "absA2=3"), ("fundamental", "c=1")) for expr in cli.CROSSCHECKS
]


def test_cli_output_bytes_are_pinned(capsys):
    assert len(PINNED_ARGV) == 16
    digest = hashlib.sha256()
    for argv in PINNED_ARGV:
        rc, out, _err = run_cli(argv, capsys)
        assert rc == 0, argv
        digest.update(out.encode())
    assert digest.hexdigest() == PINNED_SHA256
