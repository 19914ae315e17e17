"""Command-line verification driver.

Subcommands:
  verify        run a catalogued scenario and emit its JSON report
  dump-profile  tabulate a dilaton profile as CSV
  crosscheck    compare symbolic derivatives against finite differences

Exit codes: 0 all checks pass, 1 any check failed, 2 configuration error.
Only verify and the torsion-d and theta-d crosschecks load modules that
dump-profile does not, each when it runs.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from fractions import Fraction

from . import numeric, ring
from .elliptic import half_period, weierstrass_p
from .profiles import PROFILES, BadParams, profile
from .report import SCENARIOS, strict_json


class ConfigError(Exception):
    """Raised for unusable command-line or config-file input (exit code 2)."""


def _torsion_gh():
    from .frames import quaternionic_heisenberg
    from .gstruct import direct_torsion

    return direct_torsion(quaternionic_heisenberg())


def _theta_gh():
    from .frames import quaternionic_heisenberg
    from .gstruct import G2Structure

    return G2Structure(quaternionic_heisenberg()).theta


# crosscheck id -> (finite-difference check in numeric, builder of the expression it checks);
# both are looked up by name when a crosscheck runs, so a wrapper set on a module
# attribute (the benchmark's traced run) sees every call
CROSSCHECKS = {
    "e2f-partials": ("fd_partial_check", lambda: ring.expf(2)),
    "lap-e2f": ("fd_partial_check", lambda: ring.lap_e2f()),
    "grad-square": ("fd_partial_check", lambda: ring.grad_square()),
    "p-laplacian4": ("fd_partial_check", lambda: ring.p_laplacian4()),
    "torsion-d": ("fd_exterior_check", _torsion_gh),
    "theta-d": ("fd_exterior_check", _theta_gh),
}


# ---------------------------------------------------------------------------
# verify

def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError("config file must hold a JSON object")
    return data


def _write_out(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise ConfigError(f"cannot write {path!r}: {exc}") from exc


def cmd_verify(args) -> int:
    if args.scenario not in SCENARIOS:
        raise ConfigError(f"unknown scenario {args.scenario!r}; choose from {', '.join(SCENARIOS)}")
    config = _load_config(args.config)
    from .scenarios import run_scenario  # only verify needs the scenario machinery

    report = run_scenario(args.scenario, seed=args.seed, config=config, overrides=args.set or ())
    text = report.to_json()
    if args.out:
        _write_out(args.out, text)
    sys.stdout.write(text)
    for c in report.checks:
        sys.stderr.write(f"[{c.status}] {report.name}: {c.id}\n")
    return 0 if report.passed else 1


# ---------------------------------------------------------------------------
# dump-profile

def _parse_params(spec: str | None) -> dict:
    out: dict = {}
    if not spec:
        return out
    for item in spec.split(","):
        if not item:
            continue
        if "=" not in item:
            raise ConfigError(f"bad --params entry {item!r} (need k=v)")
        key, val = item.split("=", 1)
        key = key.strip()
        if key in out:
            raise ConfigError(f"repeated --params key {key!r}")
        try:
            out[key] = float(Fraction(val.strip()))
        except (ValueError, ZeroDivisionError, OverflowError) as exc:
            raise ConfigError(f"bad numeric value in --params: {item!r}") from exc
    return out


def _profile_rows(prof, grid: int):
    """(x, u, f, e^{2f}, residual) rows; u echoes e^{2f} off the elliptic slice."""
    if prof.name == "weierstrass":
        rows = []
        d = prof.params["d"]
        tau = half_period(d)
        for k in range(1, grid + 1):
            x1 = 2.0 * tau * k / (grid + 1)
            u, up = weierstrass_p(x1, d)
            g = prof.e2f((x1, 0.0, 0.0, 0.0))
            resid = up * up - (4.0 * u ** 3 - 4.0 * d * d * u)
            rows.append((x1, u, 0.5 * math.log(g), g, resid))
        return rows
    expr, consts = ring.lap_e2f(), None
    if prof.name == "ball":  # radius in [0, 1)
        expr = ring.onshell_factor(ring.const("absA2"))
        consts = {"absA2": float(prof.params["absA2"])}
        line = [(k / grid, (k / grid, 0.0, 0.0, 0.0)) for k in range(grid)]
    elif prof.name == "fundamental":
        cent = [float(v) for v in prof.params["center"]]
        radii = (0.2 + 2.0 * k / grid for k in range(1, grid + 1))
        line = [(r, (cent[0] + r, cent[1], cent[2], cent[3])) for r in radii]
    else:  # constant: tabulate along the first axis with a closure residual
        line = [(x1, (x1, 0.0, 0.0, 0.0)) for x1 in (k / max(grid - 1, 1) for k in range(grid))]
    gs = [prof.e2f(x) for _, x in line]
    table = numeric.build_assignment(prof, [x for _, x in line], consts)
    # f from the jet table
    return [(t, g, f, g, v) for (t, _), g, f, v in zip(line, gs, table[ring.jet_sym()], expr.evaluate(table))]


def cmd_dump_profile(args) -> int:
    prof = profile(args.profile, **_parse_params(args.params))
    try:
        rows = _profile_rows(prof, args.grid)
    except ArithmeticError as exc:  # e^{2f} or a jet beyond the float range
        raise ConfigError(f"{prof.name}: the table leaves the float range ({exc})") from None
    for row in rows:
        if not all(map(math.isfinite, row)):
            raise ConfigError(f"{prof.name}: the table leaves the float range at x={row[0]!r}")
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["x", "u(x)", "f(x)", "e^{2f}", "residual"])
    for row in rows:
        writer.writerow([repr(float(v)) for v in row])
    text = buf.getvalue()
    if args.out:
        _write_out(args.out, text)
    else:
        sys.stdout.write(text)
    return 0


# ---------------------------------------------------------------------------
# crosscheck

def _crosscheck_box(prof):
    if prof.name == "weierstrass":
        tau = half_period(prof.params["d"])
        return ((0.3 * tau, 1.7 * tau), (-0.5, 0.5), (-0.5, 0.5), (-0.5, 0.5))
    if prof.name == "fundamental":
        return ((0.3, 0.8),) * 4
    return ((-0.2, 0.2),) * 4


def _check_step(prof, pts, h: float) -> None:
    """Refuse a step that leaves some coordinate of a sample point where it is, or
    reaches the profile's singular set from one: either makes the stencil meaningless."""
    for x in pts:
        if any(c + h == c or c - h == c for c in x):
            raise ConfigError(f"{prof.name}: --step {h!r} does not move the sample point {x!r}")
        if h >= prof.singular_distance(x):
            raise ConfigError(f"{prof.name}: --step {h!r} reaches the singular set from {x!r}")


def cmd_crosscheck(args) -> int:
    prof = profile(args.profile, **_parse_params(args.params))
    if args.expr not in CROSSCHECKS:
        raise ConfigError(f"unknown expression id {args.expr!r}; known: {', '.join(CROSSCHECKS)}")
    pts = numeric.profile_points(prof, n=args.points, seed=args.seed, box=_crosscheck_box(prof))
    _check_step(prof, pts, args.step)
    check, build = CROSSCHECKS[args.expr]
    try:
        err = getattr(numeric, check)(build(), numeric.assigner(prof), pts, step=args.step)
        if not math.isfinite(err):  # an inf or nan value at some sample point
            raise FloatingPointError(f"max_rel_error {err}")
    except ArithmeticError as exc:  # e^{kf}, a jet or an error beyond the float range
        raise ConfigError(f"{prof.name}: the crosscheck leaves the float range ({exc})") from None
    ok = err <= args.tol
    out = {
        "schema_version": 1,
        "expr": args.expr,
        "profile": prof.name,
        "points": len(pts),
        "step": args.step,
        "max_rel_error": err,
        "tolerance": args.tol,
        "passed": ok,
    }
    sys.stdout.write(strict_json(out))
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# entry point

def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be positive: {text!r}")
    return value


def _positive_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(f"must be positive and finite: {text!r}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="nilforms", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    v = sub.add_parser("verify", help="run a catalogued verification scenario")
    v.add_argument("--scenario", required=True)
    v.add_argument("--config", default=None, help="JSON file with scenario parameters")
    v.add_argument("--seed", type=int, default=0)
    v.add_argument("--out", default=None, help="also write the JSON report here")
    v.add_argument("--set", action="append", default=None, metavar="OVERRIDE",
                   help="named parameter override (e.g. rank2-lambda)")
    v.set_defaults(fn=cmd_verify)

    d = sub.add_parser("dump-profile", help="tabulate a dilaton profile as CSV")
    d.add_argument("--profile", required=True, choices=PROFILES)
    d.add_argument("--params", default=None, help="comma-separated k=v pairs")
    d.add_argument("--grid", type=_positive_int, default=128)
    d.add_argument("--out", default=None)
    d.set_defaults(fn=cmd_dump_profile)

    c = sub.add_parser("crosscheck", help="finite-difference check of symbolic derivatives")
    c.add_argument("--profile", required=True, choices=PROFILES)
    c.add_argument("--params", default=None, help="comma-separated k=v pairs")
    c.add_argument("--expr", required=True)
    c.add_argument("--step", type=_positive_float, default=numeric.DEFAULT_STEP)
    c.add_argument("--tol", type=_positive_float, default=numeric.DEFAULT_TOL)
    c.add_argument("--seed", type=int, default=0)
    c.add_argument("--points", type=_positive_int, default=16)
    c.set_defaults(fn=cmd_crosscheck)
    return ap


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors already; normalize anything else
        return 2 if exc.code not in (0,) else 0
    try:
        return int(args.fn(args))
    except (ConfigError, BadParams) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
