"""The benchmark's warm workloads still run against the package's API.

perfbench/workloads.py builds coframes, residuals and scenario reports
through the public functions of nilforms; an API change that breaks it
should fail here, not only when the benchmark runs.  The module is loaded
by path, as the benchmark itself loads it.
"""
from __future__ import annotations

import importlib.util
import itertools
from pathlib import Path

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def _workloads():
    spec = importlib.util.spec_from_file_location("_perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_first_fresh_frames_round_passes_its_check():
    w = _workloads().FreshFrames(1)
    for op in itertools.islice(w.ops(), w.round_len):
        assert w.check(op, w.run(op)) is None, w.label(op)


def test_first_catalogue_operation_passes_its_check():
    w = _workloads().Catalogue(1)
    op = next(w.ops())
    assert w.check(op, w.run(op)) is None, w.label(op)
