"""Tracing for the benchmark's traced run.

* Spans: every public function of every nilforms module except ``ring`` is
  wrapped at every binding site, because modules bind names with
  ``from .connection import curvature`` and patching only the defining
  module would miss those calls.  A span is (name, start, end, parent
  index, operation id), kept in memory and written out at the end.
* Ring operators are too hot for spans.  Their call counts and every
  module's self time come from cProfile, grouped by source file; calls into
  builtins are charged to the module that made them.
* Two counters need a look at the values: monomials kept by ``CoefExpr``
  multiplication, and sample points drawn and accepted by
  ``numeric.halton_points``.

Comparing each wrapped function's span count with its cProfile call count
shows whether any call went round the wrappers.
"""

from __future__ import annotations

import importlib
import inspect
import os
import pstats
import sys
import time
from collections import Counter, defaultdict

HERE = os.path.dirname(os.path.abspath(__file__))

LAYERS = ("ring", "fractions", "forms", "frames", "connection", "gstruct", "anomaly",
          "profiles", "numeric", "elliptic", "scenarios")

# metric -> functions ("module:qualname") whose cProfile call counts it sums
CALL_COUNTERS = {
    "ring.mul.calls": ["ring:CoefExpr.__mul__"],
    "ring.add.calls": ["ring:CoefExpr.__add__"],
    "ring.partial.calls": ["ring:CoefExpr.partial"],
    "ring.substitute.calls": ["ring:CoefExpr.substitute"],
    "ring.try_divide.calls": ["ring:try_divide"],
    "ring.fraction_new": ["fractions:Fraction.__new__"],
    "forms.d.calls": ["forms:exterior_derivative"],
    "forms.wedge.calls": ["forms:FormExpr.wedge"],
    "frames.coframes_built": ["forms:CoframeSpec.__init__"],
    "connection.levi_civita.calls": ["connection:levi_civita"],
    "connection.curvature.calls": ["connection:curvature"],
    "connection.pontryagin4.calls": ["connection:pontryagin4"],
    "gstruct.residual.calls": [f"gstruct:{n}" for n in (
        "g2_instanton_residual", "g2_holonomy_residual", "su2_instanton_residual",
        "su2_holonomy_residual", "su2_structure_residuals", "su3_structure_residuals",
        "psi_compatibility_residuals", "scalar_identity_residual")],
    "anomaly.residual.calls": ["anomaly:anomaly_residual"],
    "profiles.jets.calls": ["profiles:DilatonProfile.jets"],
    "numeric.evaluate.calls": ["ring:CoefExpr.evaluate"],
    "elliptic.wp.calls": ["elliptic:weierstrass_p"],
    "scenarios.checks": ["scenarios:_ck"],
}

NOT_SPANNED = ("nilforms.ring",)


def code_key(fn) -> tuple:
    """The key cProfile files a Python function's statistics under."""
    code = fn.__code__
    return code.co_filename, code.co_firstlineno, code.co_name


def _resolve(path: str):
    module, qualname = path.split(":")
    obj = importlib.import_module(module if module == "fractions" else f"nilforms.{module}")
    for part in qualname.split("."):
        obj = getattr(obj, part)
    return obj


def _layer(filename: str):
    path = os.path.abspath(filename) if filename[:1] not in ("~", "<") else filename
    parent, base = os.path.split(path)
    if os.path.basename(parent) == "nilforms" and base.endswith(".py"):
        return base[:-3]
    if base in ("fractions.py", "numbers.py"):
        return "fractions"
    if parent == HERE:
        return "trace"
    return None


class Tracer:
    """Spans and value counters for one traced process."""

    def __init__(self):
        self.spans: list = []
        self.op = None
        self.counters = Counter()
        self.wrapped: dict = {}  # span name -> cProfile key of the wrapped function
        self._stack: list = []
        self._undo: list = []

    def _span(self, name, fn):
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx] = (name, start, time.perf_counter(), parent, self.op)

        return wrapper

    def run_op(self, op_id, label, fn, *args):
        """Run one benchmark operation as the root span of its tree."""
        self.op = op_id
        try:
            return self._span(f"op:{label}", fn)(*args)
        finally:
            self.op = None

    def _counting_halton(self, halton):
        counters = self.counters

        def halton_points(n, seed, box, accept=None, max_rounds=64):
            def counted(p):
                ok = accept is None or accept(p)
                counters["points_drawn"] += 1
                counters["points_accepted"] += bool(ok)
                return ok

            return halton(n, seed, box, counted, max_rounds)

        return halton_points

    def _counting_mul(self, mul, coef_type):
        counters = self.counters

        def __mul__(a, b):
            out = mul(a, b)
            if out is not NotImplemented:
                counters["mul_pairs"] += len(a.terms) * (len(b.terms) if isinstance(b, coef_type) else int(bool(b)))
                counters["mul_kept"] += len(out.terms)
            return out

        return __mul__

    def install(self):
        modules = [m for n, m in sorted(sys.modules.items()) if n.startswith("nilforms.") and m is not None]
        replace = {}
        for m in modules:
            if m.__name__ in NOT_SPANNED:
                continue
            for attr, val in vars(m).items():
                if inspect.isfunction(val) and val.__module__ == m.__name__ and not attr.startswith("_"):
                    name = f"{m.__name__.rsplit('.', 1)[1]}.{attr}"
                    inner = self._counting_halton(val) if name == "numeric.halton_points" else val
                    replace[val] = self._span(name, inner)
                    self.wrapped[name] = code_key(val)
        for m in modules:
            for attr, val in list(vars(m).items()):
                if inspect.isfunction(val) and val in replace:
                    setattr(m, attr, replace[val])
                    self._undo.append((m, attr, val))
        coef = sys.modules["nilforms.ring"].CoefExpr
        mul = coef.__dict__["__mul__"]
        counted = self._counting_mul(mul, coef)
        for attr in ("__mul__", "__rmul__"):
            if coef.__dict__.get(attr) is mul:
                setattr(coef, attr, counted)
                self._undo.append((coef, attr, mul))

    def uninstall(self):
        while self._undo:
            obj, attr, val = self._undo.pop()
            setattr(obj, attr, val)

    def export(self) -> dict:
        return {"spans": self.spans, "counters": dict(self.counters)}


def uncovered(stats: pstats.Stats, spans, wrapped: dict) -> list:
    """Wrapped functions whose cProfile call count differs from their span count."""
    seen = Counter(s[0] for s in spans)
    out = []
    for name, key in wrapped.items():
        calls = stats.stats.get(tuple(key), (0, 0))[1]
        if calls != seen[name]:
            out.append(f"{name}: {calls} calls, {seen[name]} spans")
    return out


def self_times(stats: pstats.Stats) -> dict:
    """Self seconds per layer; builtins and library code go to their caller's layer."""
    out = defaultdict(float)
    for (filename, _line, _name), (_cc, _nc, tt, _ct, callers) in stats.stats.items():
        layer = _layer(filename)
        if layer:
            out[layer] += tt
            continue
        for caller, caller_stats in callers.items():
            out[_layer(caller[0]) or "other"] += caller_stats[2]
    return out


def call_counts(stats: pstats.Stats) -> dict:
    out = {}
    for metric, paths in CALL_COUNTERS.items():
        keys = [code_key(_resolve(p)) for p in paths]
        out[metric] = sum(stats.stats.get(k, (0, 0))[1] for k in keys)
    return out
