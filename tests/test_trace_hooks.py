"""The benchmark's traced run can still find and count what it measures.

perfbench/tracing.py names nilforms functions by "module:qualname" and reads
their cProfile call counts by code object; renaming one, or wrapping it in a
decorator without ``__code__`` (``functools.lru_cache``), breaks the traced
run.  Its tracer also patches ``CoefExpr.__mul__`` and reads
``CoefExpr.terms``.  These tests make such a refactor fail here instead.
"""
from __future__ import annotations

import importlib.util
import inspect
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("_perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_call_counter_resolves_to_a_plain_function():
    tracing = _tracing()
    for metric, paths in tracing.CALL_COUNTERS.items():
        for path in paths:
            fn = tracing._resolve(path)
            assert inspect.isfunction(fn) and hasattr(fn, "__code__"), (metric, path)
            assert tracing.code_key(fn)[2] == path.split(":")[1].split(".")[-1], (metric, path)


def test_traced_residual_counts_products_and_matches_untraced():
    from nilforms import anomaly, frames, ring

    def residual():
        return anomaly.anomaly_residual(frames.h21(1, 2, 3), ring.const("alphaP"), ("DLambda", [1, -1, 2]))

    plain = residual()
    tracer = _tracing().Tracer()
    tracer.install()
    try:
        traced = residual()
    finally:
        tracer.uninstall()
    assert tracer.counters["mul_pairs"] > 0
    assert tracer.spans
    assert traced == plain
