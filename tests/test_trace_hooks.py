"""The benchmark's traced run can still find and count what it measures.

perfbench/tracing.py names nilforms functions by "module:qualname" and reads
their cProfile call counts by code object; renaming one, or wrapping it in a
decorator without ``__code__`` (``functools.lru_cache``), breaks the traced
run.  Its tracer also patches ``CoefExpr.__mul__`` and reads
``CoefExpr.terms``.  These tests make such a refactor fail here instead, and
run a catalogue round through the gates the benchmark's catalogue workload
applies (perfbench/run.py, perfbench/workloads.py).
"""
from __future__ import annotations

import cProfile
import gc
import importlib.util
import inspect
import json
import pstats
import weakref
from pathlib import Path

from nilforms import scenarios
from nilforms.anomaly import Gauge
from nilforms.forms import CoframeSpec
from nilforms.gstruct import Geometry, catalogue_geometry
from nilforms.report import SCENARIOS

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

    # a frame with a symbolic entry has no family, so its residual is derived on
    # it and multiplies; a numeric frame's is one substitution, which makes no product
    def residual():
        return anomaly.anomaly_residual(frames.h21(1, None, 2), ring.const("alphaP"), ("DLambda", [1, -1, 2]))

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


def _alive() -> dict:
    """id -> weak reference of every coframe, Geometry and Gauge alive."""
    return {id(o): weakref.ref(o) for o in gc.get_objects() if isinstance(o, (CoframeSpec, Geometry, Gauge))}


def test_a_catalogue_round_passes_the_benchmark_gates():
    # one cold round untraced, then the same reports warm under the tracer and
    # cProfile, as the traced catalogue run makes them: every report passes,
    # the traced reports read the untraced bytes, every call of a wrapped
    # function goes through its span wrapper (a cache made at import around a
    # public function would call it round the wrapper), and a repeated report
    # reads the same bytes
    tracing = _tracing()
    catalogue_geometry.cache_clear()
    gc.collect()
    before = _alive()
    ops = [(name, seed) for seed, name in enumerate(SCENARIOS, start=11)]
    untraced = [scenarios.run_scenario(name, seed=seed).to_json() for name, seed in ops]
    tracer, prof = tracing.Tracer(), cProfile.Profile()
    tracer.install()
    try:
        prof.enable()
        try:
            traced = [scenarios.run_scenario(name, seed=seed).to_json() for name, seed in ops]
        finally:
            prof.disable()
    finally:
        tracer.uninstall()
    assert all(json.loads(text)["passed"] for text in untraced)
    assert traced == untraced
    assert tracing.uncovered(pstats.Stats(prof), tracer.spans, tracer.wrapped) == []
    assert tracing.call_counts(pstats.Stats(prof))["connection.curvature.calls"] == 0
    assert [scenarios.run_scenario(name, seed=seed).to_json() for name, seed in ops] == untraced
    # what the round holds, frames and gauges, goes with catalogue_geometry's cache,
    # so no other cache keeps a frame the round built
    held = [ref for key, ref in _alive().items() if key not in before]
    assert any(isinstance(ref(), Gauge) for ref in held)
    catalogue_geometry.cache_clear()
    gc.collect()
    assert [ref() for ref in held if ref() is not None] == []


def test_a_cold_traced_round_calls_nothing_round_the_wrappers():
    # a cold round builds every catalogue frame under the tracer, so a builder
    # captured at import (a table of functions) would be called round its wrapper
    tracing = _tracing()
    catalogue_geometry.cache_clear()
    tracer, prof = tracing.Tracer(), cProfile.Profile()
    tracer.install()
    try:
        prof.enable()
        try:
            for seed, name in enumerate(SCENARIOS):
                scenarios.run_scenario(name, seed=seed)
        finally:
            prof.disable()
    finally:
        tracer.uninstall()
    assert "frames.k_a" in tracer.wrapped  # the builders are wrapped
    assert tracing.uncovered(pstats.Stats(prof), tracer.spans, tracer.wrapped) == []
