"""The benchmark's traced run can still find the functions it counts.

perfbench/tracing.py names nilforms functions by "module:qualname" and reads
their cProfile call counts by code object; renaming one, or wrapping it in a
decorator without ``__code__`` (``functools.lru_cache``), breaks the traced
run.  This test makes such a refactor fail here instead.
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
