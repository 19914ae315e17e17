"""Tests for the command-line driver: exit codes, JSON and CSV output."""
from __future__ import annotations

import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from nilforms import cli
from nilforms.elliptic import half_period, weierstrass_p


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


def test_verify_unknown_scenario_is_config_error(capsys):
    rc, _out, err = run_cli(["verify", "--scenario", "thm-9d"], capsys)
    assert rc == 2 and "unknown scenario" in err


def test_verify_unknown_override_is_config_error(capsys):
    rc, _out, err = run_cli(
        ["verify", "--scenario", "ball-7d", "--set", "rank3-lambda"], capsys
    )
    assert rc == 2 and "unknown override" in err


def test_verify_bad_config_file_is_config_error(tmp_path, capsys):
    p = tmp_path / "conf.json"
    p.write_text("{not json")
    rc, _out, err = run_cli(["verify", "--scenario", "ball-7d", "--config", str(p)], capsys)
    assert rc == 2 and "cannot read config" in err
    p.write_text("[1, 2]")
    rc, _out, err = run_cli(["verify", "--scenario", "ball-7d", "--config", str(p)], capsys)
    assert rc == 2 and "JSON object" in err


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
    ],
    ids=[
        "A-not-a-matrix", "npoints-zero", "7d-negative-npoints-one", "7d-negative-npoints-zero",
        "7d-negative-A-not-a-matrix", "7d-negative-lam-not-numbers", "5d-positive-A-not-a-matrix",
        "5d-positive-B-not-numbers", "5d-positive-alphaP-negative", "7d-negative-unread-key",
        "5d-positive-B-unreadable-float",
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
    ],
    ids=["points-zero", "step-zero", "grid-negative"],
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
    probe = (
        "import contextlib, io, sys\n"
        "from nilforms import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):\n"
        "    codes = [cli.main(['dump-profile', '--profile', 'ball', '--params', 'absA2=3', '--grid', '4']),\n"
        "             cli.main(['crosscheck', '--profile', 'ball', '--params', 'absA2=3', '--expr', 'lap-e2f',\n"
        "                       '--points', '4']),\n"
        "             cli.main(['verify', '--scenario', 'nope'])]\n"
        "print(codes, 'nilforms.scenarios' in sys.modules)\n"
        "cli.main(['verify', '--scenario', 'contraction-5d'])\n"
        "print('nilforms.scenarios' in sys.modules)\n"
    )
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=_src_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[0] == "[0, 0, 2] False"
    assert proc.stdout.splitlines()[-1] == "True"
