"""Paired benchmark runs of a parent commit against the working tree.

    python3 tools/bench_pairs.py --workload fresh-frames --seed 1 --pairs 10 --out BENCH_21.json
    python3 tools/bench_pairs.py --workload fresh-frames --seed 7 --pairs 5 --out BENCH_21.json

Each pair runs ``perfbench/run.py --workload W --seed S --seconds T --trace 0``,
T the ``run_seconds`` of BENCHMARK.json, once in a checkout of the parent
commit and once in the working tree, one after the other, the order swapped
from pair to pair so that drift on the host falls on both sides alike.  The
parent checkout is made with ``git archive`` into a temporary directory, so
the repository gains no worktree entry.

The output file collects one entry per workload and seed, so several runs
can write to one file: every pair's end-to-end metrics, and per metric the
medians and quartiles of each side, the ratio of the medians and how many
pairs the change won, with the direction each metric is better in read from
BENCHMARK.json.  ``claim_holds`` says whether the change won at least nine
pairs in ten and its median moved by more than the parent's interquartile
range.  Provenance records both commits, the Python version and the host.
Standard library only.
"""

from __future__ import annotations

import argparse
import datetime
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = os.path.join("perfbench", "run.py")


def _git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True, check=True).stdout.strip()


def export_parent(commit: str, dest: str) -> None:
    """The tree of commit, written into dest by git archive."""
    archive = os.path.join(dest, "parent.tar")
    with open(archive, "wb") as fh:
        subprocess.run(["git", "archive", "--format=tar", commit], cwd=ROOT, stdout=fh, check=True)
    with tarfile.open(archive) as tar:
        tar.extractall(dest, filter="data")
    os.remove(archive)


def run_once(checkout: str, workload: str, seed: int, seconds: float) -> dict:
    """The last-line JSON of one untraced perfbench run in checkout."""
    cmd = [sys.executable, RUN, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, timeout=30 * seconds + 600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{checkout}: exit code {proc.returncode}\n{proc.stderr[-2000:]}")
    out = json.loads(lines[-1])
    return {"correct": out["correct"], "attempted": out["attempted"], "failed": out["failed"],
            "metrics": {name: m["value"] for name, m in out["metrics"].items()}}


def src_sha256(checkout: str) -> str:
    """SHA-256 of the package sources, as perfbench/run.py's provenance computes it."""
    h = hashlib.sha256()
    pkg = os.path.join(checkout, "src", "nilforms")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def _quartiles(xs: list) -> list:
    return statistics.quantiles(xs, n=4, method="inclusive") if len(xs) > 1 else [xs[0]] * 3


def summarise(pairs: list, better: dict) -> dict:
    """Per metric: each side's median and quartiles, the median ratio and the change's wins."""
    out = {}
    for name, direction in better.items():
        if not all(name in p["parent"]["metrics"] and name in p["change"]["metrics"] for p in pairs):
            continue
        old = [p["parent"]["metrics"][name] for p in pairs]
        new = [p["change"]["metrics"][name] for p in pairs]
        sign = 1 if direction == "higher" else -1
        wins = sum(sign * (b - a) > 0 for a, b in zip(old, new))
        q_old, q_new = _quartiles(old), _quartiles(new)
        gain = sign * (q_new[1] - q_old[1])
        out[name] = {
            "better": direction,
            "parent_median": q_old[1],
            "parent_quartiles": [q_old[0], q_old[2]],
            "change_median": q_new[1],
            "change_quartiles": [q_new[0], q_new[2]],
            "median_ratio": q_new[1] / q_old[1] if q_old[1] else None,
            "wins": wins,
            "pairs": len(pairs),
            "claim_holds": wins >= 0.9 * len(pairs) and gain > q_old[2] - q_old[0],
        }
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--parent", default="HEAD", help="the commit to compare against (default HEAD)")
    ap.add_argument("--out", required=True, help="JSON file to add this workload and seed to")
    args = ap.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    seconds = bench["run_seconds"]
    parent = _git("rev-parse", args.parent)
    with tempfile.TemporaryDirectory(prefix="bench-parent-") as parent_dir:
        export_parent(parent, parent_dir)
        pairs = []
        for i in range(args.pairs):
            sides = [("parent", parent_dir), ("change", ROOT)]
            if i % 2:
                sides.reverse()
            pair = {"first": sides[0][0]}
            for side, checkout in sides:
                pair[side] = run_once(checkout, args.workload, args.seed, seconds)
            pairs.append(pair)
            print(f"pair {i + 1}/{args.pairs}: " + ", ".join(
                f"{side} {pair[side]['metrics'].get('throughput_per_s', float('nan')):.1f}/s"
                for side in ("parent", "change")), flush=True)

    entry = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": seconds,
        "command": f"python3 {RUN} --workload {args.workload} --seed {args.seed} --seconds {seconds} --trace 0",
        "provenance": {
            "parent_commit": parent,
            "change_commit": _git("rev-parse", "HEAD"),
            "change_dirty": bool(_git("status", "--porcelain", "--untracked-files=no")),
            "change_src_sha256": src_sha256(ROOT),
            "python": platform.python_version(),
            "host": {"platform": platform.platform(), "machine": platform.machine(), "cpus": os.cpu_count()},
            "finished": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
        },
        "summary": summarise(pairs, better),
        "pairs": pairs,
    }
    doc = {}
    if os.path.exists(args.out):
        with open(args.out, encoding="utf-8") as fh:
            doc = json.load(fh)
    doc[f"{args.workload}@seed{args.seed}"] = entry
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    for name, s in entry["summary"].items():
        print(f"{name}: parent {s['parent_median']:.6g}, change {s['change_median']:.6g}, "
              f"ratio {s['median_ratio']}, wins {s['wins']}/{s['pairs']}, claim_holds {s['claim_holds']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
