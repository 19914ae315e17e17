"""nilforms benchmark: one workload per run, measured end to end or traced.

    python3 perfbench/run.py --workload catalogue --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

Run it from the root of a source checkout; it imports nilforms from ``src``.
``--trace 0`` prints the end-to-end metrics, with every time scaled to the
reference machine's speed (hostspeed.py), and ``--trace 1`` the per-layer
metrics of a separate traced run.  The last line of stdout is one JSON
object with the keys correct, attempted, failed and metrics; the lines
before it name each metric with its unit, and the provenance.  Details,
errors and spans go to ``perfbench/out/``.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import cProfile
import hashlib
import json
import os
import platform
import pstats
import resource
import statistics
import subprocess
import sys
import time
import traceback
from itertools import islice

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import hostspeed  # noqa: E402
import tracing  # noqa: E402
import workloads as W  # noqa: E402

CHILD = os.path.join(HERE, "child.py")
OUT = os.path.join(HERE, "out")
SETUP_PROBES = 5  # fresh interpreters whose set-up time gives setup_s
PROBE_REF_LOOPS = 4  # reference loops on each side of a set-up probe (hostspeed.py)
CLI_PROBES = 3  # CLI invocations that give cli.import_s / cli.work_s on a warm traced run
CLI_PROBE_ARGV = ["verify", "--scenario", "thm-5d-positive"]


def _child(args: list):
    return subprocess.run([sys.executable, CHILD] + args, cwd=W.ROOT, env=W.child_env(),
                          capture_output=True, text=True, timeout=W.CLI_TIMEOUT_S)


def _failure(exc: BaseException) -> str:
    return "raised " + traceback.format_exception_only(type(exc), exc)[-1].strip()


def _attempt(w, op, call):
    """(output, error or None) of one operation."""
    try:
        out = call(op)
    except Exception as exc:  # a failed operation is counted, never fatal
        return None, _failure(exc)
    return out, w.check(op, out)


# ---------------------------------------------------------------------------
# set-up time

def _warm_setup_s(name: str, seed: int) -> float:
    """Process start to ready for the first operation, in a fresh interpreter."""
    t0 = time.perf_counter()
    with subprocess.Popen([sys.executable, CHILD, "setup", name, str(seed)], cwd=W.ROOT, env=W.child_env(),
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        try:
            _out, err = proc.communicate(timeout=W.CLI_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            raise
    if proc.returncode != 0 or line.strip() != "ready":
        raise RuntimeError(f"set-up probe failed (exit {proc.returncode}): {err.strip()[-300:]}")
    return elapsed


def _cold_setup_s() -> float:
    """Seconds of `import nilforms.cli` in a fresh interpreter."""
    proc = _child(["import"])
    if proc.returncode != 0:
        raise RuntimeError(f"import probe failed (exit {proc.returncode}): {proc.stderr.strip()[-300:]}")
    return float(proc.stdout)


# ---------------------------------------------------------------------------
# end-to-end run

def end_to_end(w, seconds: float) -> dict:
    """Whole rounds for ``seconds``; every time is scaled by the host speed beside it."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})  # children inherit: loop and work share a vCPU
    meter = hostspeed.Meter(w.ref_loops)
    times, walls, kinds, errors, first_round = [], [], [], [], []
    ops = w.ops()
    start = time.perf_counter()
    while True:  # whole rounds only, so every run has the same mix
        for _ in range(w.round_len):
            op = next(ops)
            t0 = time.perf_counter()
            out, err = _attempt(w, op, w.run)
            wall = time.perf_counter() - t0
            walls.append(wall)
            times.append(meter.scale(wall, w.ref_loops))
            kinds.append(w.kind(op))
            if err:
                errors.append(f"{w.label(op)}: {err}")
            elif len(first_round) < w.round_len:
                first_round.append((op, out))
        if time.perf_counter() - start >= seconds:
            break
    window = time.perf_counter() - start
    who = resource.RUSAGE_CHILDREN if isinstance(w, W.ColdCli) else resource.RUSAGE_SELF
    peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024.0
    attempted = len(times)
    if hasattr(w, "repeat_gate"):
        attempted += 1
        try:
            err = w.repeat_gate(first_round) if first_round else "no operation passed to repeat"
        except Exception as exc:
            err = _failure(exc)
        if err:
            errors.append(err)
    probe = _cold_setup_s if isinstance(w, W.ColdCli) else lambda: _warm_setup_s(w.name, w.seed)
    meter.mark(PROBE_REF_LOOPS)
    setup_walls, setup = [], []
    for _ in range(SETUP_PROBES):
        setup_walls.append(probe())
        setup.append(meter.scale(setup_walls[-1], PROBE_REF_LOOPS))
    p90 = statistics.quantiles(times, n=10)[-1] if len(times) >= 2 else times[0]
    beyond = sum(t > p90 for t in times)
    notes = {
        "throughput_per_s": (f"{len(times)} operations in {len(times) // w.round_len} rounds; "
                             f"wall {len(walls) / sum(walls)!r} 1/s"),
        "op_s.p50": (f"median of {len(times)} operations, fastest {min(times)!r} s; "
                     f"wall {statistics.median(walls)!r} s"),
        "op_s.p90": (f"{p90!r} s (n={len(times)}, {beyond} beyond)" if beyond >= 10
                     else f"n/a: {beyond} of {len(times)} samples beyond it, needs 10"),
        "setup_s": f"median of {SETUP_PROBES} fresh interpreters; wall {statistics.median(setup_walls)!r} s",
        "host_speed": (f"{meter.speed()!r} of nominal (median of {len(meter.loops)} reference loops, "
                       f"nominal {hostspeed.NOMINAL_S} s)"),
    }
    metrics = {
        # reference seconds: wall time scaled by the host speed measured beside it (hostspeed.py)
        "throughput_per_s": (len(times) / sum(times), "1/s"),
        "op_s.p50": (statistics.median(times), "s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    return {"metrics": metrics, "notes": notes, "attempted": attempted, "errors": errors,
            "samples": {"op_s": times, "op_wall_s": walls, "op_kind": kinds, "setup_s": setup,
                        "setup_wall_s": setup_walls, "loop_s": meter.loops, "window_s": window}}


# ---------------------------------------------------------------------------
# traced run

def _run_batch(w, batch, call):
    outs, errors = [], []
    t0 = time.perf_counter()
    for i, op in enumerate(batch):
        out, err = _attempt(w, op, lambda o: call(i, o))
        outs.append(out)
        if err:
            errors.append(f"{w.label(op)}: {err}")
    return outs, time.perf_counter() - t0, errors


def _read_side(side: str) -> dict:
    with open(side + ".json", encoding="utf-8") as fh:
        data = json.load(fh)
    os.remove(side + ".json")
    return data


def _cli_launch(w, flag: str, sides: list):
    def call(i, op):
        side = os.path.join(OUT, f"cli-{os.getpid()}-{flag}-{i}")
        sides.append(side)
        w.launcher = [sys.executable, CHILD, "cli", flag, side, "--"]
        return w.run(op)

    return call


def traced(w, import_profile) -> dict:
    batch = list(islice(w.ops(), w.batch_len))
    errors, spans, counters, uncovered = [], [], {}, []
    if isinstance(w, W.ColdCli):
        ref_sides, tr_sides = [], []
        ref, t_ref, errs = _run_batch(w, batch, _cli_launch(w, "0", ref_sides))
        errors += errs
        out, t_tr, errs = _run_batch(w, batch, _cli_launch(w, "1", tr_sides))
        errors += errs
        probes = [_read_side(s) for s in ref_sides if os.path.exists(s + ".json")]
        stats = None
        for op_id, side in enumerate(tr_sides):
            if not os.path.exists(side + ".json"):
                continue
            data = _read_side(side)
            offset = len(spans)
            spans += [(n, s, e, p + offset if p >= 0 else -1, op_id) for n, s, e, p, _op in data["spans"]]
            for k, v in data["counters"].items():
                counters[k] = counters.get(k, 0) + v
            uncovered += data["uncovered"]
            if stats is None:
                stats = pstats.Stats(side + ".prof")
            else:
                stats.add(side + ".prof")
            os.remove(side + ".prof")
        attempted = 2 * len(batch)
    else:
        ref, t_ref, errs = _run_batch(w, batch, lambda i, op: w.run(op))
        errors += errs
        tracer = tracing.Tracer()
        prof = cProfile.Profile()
        tracer.install()
        try:
            prof.enable()
            out, t_tr, errs = _run_batch(w, batch, lambda i, op: tracer.run_op(i, w.label(op), w.run, op))
            prof.disable()
        finally:
            tracer.uninstall()
        errors += errs
        spans, counters = tracer.spans, dict(tracer.counters)
        uncovered = tracing.uncovered(pstats.Stats(prof), spans, tracer.wrapped)
        stats = pstats.Stats(import_profile)
        stats.add(prof)
        probes = []
        for _ in range(CLI_PROBES):
            side = os.path.join(OUT, f"cli-{os.getpid()}-probe")
            proc = _child(["cli", "0", side, "--"] + CLI_PROBE_ARGV + ["--seed", str(w.seed)])
            if proc.returncode != 0:
                errors.append(f"cli probe: exit code {proc.returncode}")
            probes.append(_read_side(side))
        attempted = 2 * len(batch) + CLI_PROBES
    for op, a, b in zip(batch, ref, out):
        if a is not None and b is not None and not w.same(a, b):
            errors.append(f"{w.label(op)}: traced output differs from untraced")
    errors += [f"call outside the span wrappers: {u}" for u in uncovered]

    if stats is None:
        raise RuntimeError("no traced operation left a profile")
    counts = tracing.call_counts(stats)
    selfs = tracing.self_times(stats)
    drawn = counters.get("points_drawn", 0)
    pairs = counters.get("mul_pairs", 0)
    metrics = {k: (v, "count") for k, v in counts.items()}
    metrics.update({
        "ring.mul.kept_frac": (counters.get("mul_kept", 0) / pairs if pairs else 0.0, "ratio"),
        "numeric.points_drawn": (drawn, "count"),
        "numeric.accept_frac": (counters.get("points_accepted", 0) / drawn if drawn else 0.0, "ratio"),
    })
    metrics.update({f"{layer}.self_s": (selfs.get(layer, 0.0), "s") for layer in tracing.LAYERS})
    metrics.update({
        "cli.import_s": (statistics.median(p["import_s"] for p in probes), "s"),
        "cli.work_s": (statistics.median(p["work_s"] for p in probes), "s"),
        "trace.overhead_frac": (1.0 - t_ref / t_tr, "ratio"),
    })
    notes = {"trace.overhead_frac": f"untraced {t_ref!r} s, traced {t_tr!r} s for {len(batch)} operations",
             "cli.import_s": f"median of {len(probes)} CLI invocations"}
    return {"metrics": metrics, "notes": notes, "attempted": attempted, "errors": errors,
            "spans": spans, "samples": {"untraced_batch_s": t_ref, "traced_batch_s": t_tr}}


# ---------------------------------------------------------------------------
# provenance and output

def _git_commit():
    if not os.path.exists(os.path.join(W.ROOT, ".git")):
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=W.ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _src_sha256() -> str:
    h = hashlib.sha256()
    pkg = os.path.join(W.SRC, "nilforms")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def provenance(w, args) -> dict:
    import nilforms

    params = {"workload": w.name, "seconds": args.seconds, "trace": args.trace, "round_len": w.round_len,
              "batch_len": w.batch_len, "setup_probes": SETUP_PROBES, "cli_probes": CLI_PROBES,
              "ref_loops": w.ref_loops, "probe_ref_loops": PROBE_REF_LOOPS, "ref_nominal_s": hostspeed.NOMINAL_S,
              **w.params()}
    return {
        "python": platform.python_version(),
        "nilforms": nilforms.__version__,
        "git_commit": _git_commit(),
        "src_sha256": _src_sha256(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "workload": w.name,
        "seed": args.seed,
        "params_sha256": hashlib.sha256(json.dumps(params, sort_keys=True).encode()).hexdigest(),
        "params": params,
    }


def run_one(args) -> dict:
    os.makedirs(OUT, exist_ok=True)
    if args.trace:
        # Every module, so every binding site gets wrapped; profiled, so that
        # each module's own code counts in its self time.
        import_profile = cProfile.Profile()
        import_profile.enable()
        import nilforms.cli  # noqa: F401
        import_profile.disable()
    w = W.WORKLOADS[args.workload](args.seed)
    res = traced(w, import_profile) if args.trace else end_to_end(w, args.seconds)
    res["provenance"] = provenance(w, args)
    return res


def emit(args, res) -> None:
    prov = res.pop("provenance")
    spans = res.pop("spans", None)
    stem = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    if spans is not None:
        with open(stem + "-spans.jsonl", "w", encoding="utf-8") as fh:
            for name, start, end, parent, op in spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end, "parent": parent, "op": op}) + "\n")
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump({"provenance": prov, **res}, fh, indent=1, default=list)
    print("provenance " + json.dumps(prov, sort_keys=True))
    for name, (value, unit) in res["metrics"].items():
        note = res["notes"].get(name)
        print(f"metric {args.workload} {name} {value!r} {unit}" + (f"  ({note})" if note else ""))
    for name in ("op_s.p90", "host_speed"):
        if name in res["notes"]:
            print(f"metric {args.workload} {name} {res['notes'][name]}")
    failed = len(res["errors"])
    print(f"metric {args.workload} failed_frac {failed / res['attempted']!r} ratio  ({failed}/{res['attempted']})")
    for err in res["errors"][:20]:
        print(f"error {args.workload} {err}")
    result = {
        "correct": not res["errors"],
        "attempted": res["attempted"],
        "failed": len(res["errors"]),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in res["metrics"].items()},
    }
    print(json.dumps(result), flush=True)


def run_all(args) -> int:
    """Each workload in its own process, one after another."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in W.WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=W.ROOT, capture_output=True, text=True, timeout=900)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(f"{name}: exit code {proc.returncode}\n")
            return proc.returncode or 1
        print("\n".join(lines[:-1]), flush=True)
        part = json.loads(lines[-1])
        merged["correct"] = merged["correct"] and part["correct"]
        merged["attempted"] += part["attempted"]
        merged["failed"] += part["failed"]
        merged["metrics"].update({f"{name}.{k}": v for k, v in part["metrics"].items()})
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=list(W.WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(W.SRC, "nilforms", "__init__.py")):
        sys.stderr.write(f"nilforms sources not found under {W.SRC}; run from a source checkout\n")
        return 2
    sys.path.insert(0, W.SRC)
    if args.workload == "all":
        return run_all(args)
    emit(args, run_one(args))
    return 0


if __name__ == "__main__":
    sys.exit(main())
