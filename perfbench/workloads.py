"""The benchmark's workloads: inputs made from a seed, one operation, its gate.

Each workload is a closed loop with one client: the next operation starts
when the previous one has returned.  Inputs come only from ``random.Random``
seeded with the workload name and ``--seed``; the program receives nothing
but those inputs (scenario names and seeds, integer matrices, CLI argv).

An operation returns an output; ``check`` returns ``None`` when the output
is correct and a one-line reason otherwise.  ``same`` says whether two
outputs of one operation agree (traced against untraced, or a repeat).
"""

from __future__ import annotations

import csv
import io
import json
import os
import random
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

# The scenario catalogue, written out so that the cold-cli parent never
# imports nilforms: its children are the only processes that should.
SCENARIOS = (
    "thm-7d-negative",
    "thm-7d-positive",
    "ball-7d",
    "thm-5d-negative",
    "thm-5d-positive",
    "contraction-6d",
    "contraction-5d",
)

CLI_TIMEOUT_S = 150


def child_env() -> dict:
    """Environment for child interpreters: the checkout's sources first."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


class Catalogue:
    """All seven scenarios in one warm process, round after round.

    Each operation is one scenario report; every round draws fresh scenario
    seeds, so the same coframes are rebuilt again and again (the path a
    derive-once cache would shorten).
    """

    name = "catalogue"
    round_len = len(SCENARIOS)
    ref_loops = 1  # reference loops measured after each operation (hostspeed.py)
    batch_len = len(SCENARIOS)

    def __init__(self, seed: int):
        from nilforms import scenarios

        self.seed = seed
        self._scenarios = scenarios

    def params(self) -> dict:
        return {"scenarios": list(SCENARIOS), "scenario_seed_range": 2 ** 31}

    def ops(self):
        rng = random.Random(f"{self.name}:{self.seed}")
        while True:
            for scenario in SCENARIOS:
                yield scenario, rng.randrange(2 ** 31)

    @staticmethod
    def label(op) -> str:
        return f"{op[0]} --seed {op[1]}"

    @staticmethod
    def kind(op) -> str:
        return op[0]

    def run(self, op):
        report = self._scenarios.run_scenario(op[0], seed=op[1])
        return report.passed, report.to_json()

    @staticmethod
    def check(op, out):
        passed, _text = out
        return None if passed else "report did not pass"

    @staticmethod
    def same(a, b) -> bool:
        return a[1] == b[1]

    def repeat_gate(self, first_round):
        """Re-run one scenario of the first round: its to_json() must repeat byte for byte."""
        op, out = random.Random(f"{self.name}-repeat:{self.seed}").choice(first_round)
        again = self.run(op)
        return None if self.same(out, again) else f"{self.label(op)}: repeated to_json() differs"


class FreshFrames:
    """A new coframe per operation and one exact residual on it.

    The coframe is kA(A) with a random integer 3x3 A or h21(a1, a2, a3); the
    gauge is a random rank-one Lambda or a random B.  No coframe repeats, so
    a cache has nothing to reuse.  The four (coframe, gauge) pairs take
    turns, so every run has the same mix.
    """

    name = "fresh-frames"
    round_len = 4
    ref_loops = 1
    batch_len = 24
    ENTRIES = [v for v in range(-9, 10) if v]

    def __init__(self, seed: int):
        from nilforms import anomaly, frames, ring

        self.seed = seed
        self._anomaly, self._frames, self._ring = anomaly, frames, ring
        self._alphaP = ring.const("alphaP")

    def params(self) -> dict:
        return {"entries": self.ENTRIES, "pairs": ["kA/DLambda", "kA/DB", "h21/DLambda", "h21/DB"]}

    def ops(self):
        rng = random.Random(f"{self.name}:{self.seed}")
        seen = set()

        def vec():
            return [rng.choice(self.ENTRIES) for _ in range(3)]

        while True:
            for kind, rows in (("kA", 3), ("h21", 1)):
                for gauge in ("DLambda", "DB"):
                    A = tuple(tuple(vec()) for _ in range(rows))
                    while A in seen:
                        A = tuple(tuple(vec()) for _ in range(rows))
                    seen.add(A)
                    if gauge == "DLambda" and kind == "kA":
                        u, v = vec(), vec()
                        mat = [[x * y for y in v] for x in u]  # rank one
                    elif kind == "kA":
                        mat = [vec() for _ in range(3)]
                    else:
                        mat = vec()
                    yield kind, A, gauge, mat

    @staticmethod
    def label(op) -> str:
        return f"{op[0]}{list(map(list, op[1]))} {op[2]}{op[3]}"

    @staticmethod
    def kind(op) -> str:
        return f"{op[0]}/{op[2]}"

    def run(self, op):
        kind, A, gauge, mat = op
        an, ring = self._anomaly, self._ring
        c = self._frames.k_a([list(r) for r in A]) if kind == "kA" else self._frames.h21(*A[0])
        residual = an.anomaly_residual(c, self._alphaP, (gauge, mat))
        if gauge == "DLambda":
            want = an.displayed_residual_dlambda(c, mat, self._alphaP)
        else:
            rows = mat if isinstance(mat[0], list) else [mat]
            want = an.displayed_residual_db(c, ring.rat(sum(x * x for r in rows for x in r)), self._alphaP)
        return residual == want, residual

    @staticmethod
    def check(op, out):
        return None if out[0] else "residual differs from its closed form"

    @staticmethod
    def same(a, b) -> bool:
        return a[0] == b[0] and a[1] == b[1]


def _strict_json(text: str):
    def reject(token):
        raise ValueError(f"non-finite JSON constant {token}")

    return json.loads(text, parse_constant=reject)


class ColdCli:
    """One fresh ``python -m nilforms.cli`` process after another.

    A round is the 7 verify scenarios, the designed rank-two failure
    (expected exit code 1), two dump-profile tables and two crosschecks,
    in an order shuffled by the seed.  Import dominates each invocation.
    """

    name = "cold-cli"
    round_len = 12
    ref_loops = 4
    batch_len = 12
    GRID = 64
    POINTS = 16

    def __init__(self, seed: int):
        self.seed = seed
        self.launcher = [sys.executable, "-m", "nilforms.cli"]

    def params(self) -> dict:
        return {"scenarios": list(SCENARIOS), "grid": self.GRID, "points": self.POINTS,
                "launcher": "python -m nilforms.cli"}

    def ops(self):
        rng = random.Random(f"{self.name}:{self.seed}")
        while True:
            batch = [(["verify", "--scenario", s, "--seed", str(rng.randrange(2 ** 31))], 0, f"verify {s}")
                     for s in SCENARIOS]
            batch.append((["verify", "--scenario", "thm-7d-negative", "--set", "rank2-lambda",
                           "--seed", str(rng.randrange(2 ** 31))], 1, "verify rank2-lambda"))
            batch.append((["dump-profile", "--profile", "weierstrass", "--grid", str(self.GRID), "--params",
                           f"d={rng.randint(1, 8)}/4,alpha={rng.randint(1, 3)}"], 0, "dump-profile weierstrass"))
            batch.append((["dump-profile", "--profile", "ball", "--grid", str(self.GRID), "--params",
                           f"absA2={rng.randint(1, 6)}"], 0, "dump-profile ball"))
            batch.append((["crosscheck", "--profile", "ball", "--expr", "lap-e2f", "--points", str(self.POINTS),
                           "--params", f"absA2={rng.randint(1, 6)}", "--seed", str(rng.randrange(2 ** 31))], 0,
                          "crosscheck lap-e2f"))
            batch.append((["crosscheck", "--profile", "fundamental", "--expr", "theta-d", "--points",
                           str(self.POINTS), "--params", f"c={rng.randint(1, 6)}",
                           "--seed", str(rng.randrange(2 ** 31))], 0, "crosscheck theta-d"))
            rng.shuffle(batch)
            yield from batch

    @staticmethod
    def label(op) -> str:
        return " ".join(op[0])

    @staticmethod
    def kind(op) -> str:
        return op[2]

    def run(self, op):
        proc = subprocess.run(self.launcher + op[0], cwd=ROOT, env=child_env(), capture_output=True,
                              text=True, timeout=CLI_TIMEOUT_S)
        return proc.returncode, proc.stdout, proc.stderr

    @classmethod
    def check(cls, op, out):
        argv, expected, _kind = op
        rc, stdout, stderr = out
        if rc != expected:
            tail = stderr.strip().splitlines()[-1:] or [""]
            return f"exit code {rc}, expected {expected}: {tail[0]}"
        try:
            if argv[0] == "dump-profile":
                rows = list(csv.reader(io.StringIO(stdout)))
                if len(rows) != cls.GRID + 1:
                    return f"{len(rows) - 1} CSV rows, expected {cls.GRID}"
                for row in rows[1:]:
                    [float(v) for v in row]
                return None
            doc = _strict_json(stdout)
        except ValueError as exc:
            return f"unparsable output: {exc}"
        if doc.get("passed") is not (expected == 0):
            return f"JSON says passed={doc.get('passed')!r} with exit code {rc}"
        if argv[0] == "crosscheck" and doc.get("points") != cls.POINTS:
            return f"{doc.get('points')} crosscheck points, expected {cls.POINTS}"
        return None

    @staticmethod
    def same(a, b) -> bool:
        return a[0] == b[0] and a[1] == b[1]


WORKLOADS = {w.name: w for w in (Catalogue, FreshFrames, ColdCli)}
