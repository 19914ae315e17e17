"""tools/bench_pairs.py's summary of paired runs, on synthetic pairs.

The tool is loaded by path, as it is run; no benchmark runs here.
"""
from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
METRICS = {
    "throughput_per_s": {"name": "throughput_per_s", "better": "higher", "bound": 0.25},
    "op_s.p50": {"name": "op_s.p50", "better": "lower", "bound": 0.25},
}


def _tool():
    spec = importlib.util.spec_from_file_location("_bench_pairs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _summarise(parent: list, change: list, name: str) -> dict:
    pairs = [{"parent": {"metrics": {name: a}}, "change": {"metrics": {name: b}}} for a, b in zip(parent, change)]
    return _tool().summarise(pairs, METRICS)


STEADY = [100.0, 101.0, 99.0, 100.0, 100.0]


@pytest.mark.parametrize("name, parent, change, verdict, claim", [
    ("throughput_per_s", STEADY, [90.0, 91.0, 89.0, 90.0, 90.0], "pass", False),  # 10 % worse, bound 25 %
    ("throughput_per_s", STEADY, [70.0, 71.0, 69.0, 70.0, 70.0], "fail", False),  # 30 % worse
    ("throughput_per_s", STEADY, [120.0, 121.0, 119.0, 120.0, 120.0], "pass", True),
    ("throughput_per_s", [50.0, 150.0, 100.0, 60.0, 140.0], [60.0] * 5, "unresolved", False),  # IQR 80 % of the median
    ("op_s.p50", [1.0, 1.01, 0.99, 1.0, 1.0], [1.3, 1.31, 1.29, 1.3, 1.3], "fail", False),  # lower is better
    ("op_s.p50", [1.0, 1.01, 0.99, 1.0, 1.0], [1.2, 1.21, 1.19, 1.2, 1.2], "pass", False),
    ("op_s.p50", [1.0, 1.01, 0.99, 1.0, 1.0], [0.8, 0.81, 0.79, 0.8, 0.8], "pass", True),
])
def test_summary_gives_a_no_regression_verdict_per_metric(name, parent, change, verdict, claim):
    out = _summarise(parent, change, name)
    assert list(out) == [name]  # a metric the pairs do not carry is left out
    s = out[name]
    assert s["no_regression"] == verdict and s["claim_holds"] == claim
    assert s["bound"] == 0.25 and s["pairs"] == 5
    sign = 1 if s["better"] == "higher" else -1
    assert s["worse_by"] == pytest.approx(sign * (s["parent_median"] - s["change_median"]) / s["parent_median"])


def test_a_change_exactly_at_the_bound_passes():
    s = _summarise([100.0] * 5, [75.0] * 5, "throughput_per_s")["throughput_per_s"]
    assert s["worse_by"] == pytest.approx(0.25) and s["no_regression"] == "pass"
    assert s["wins"] == 0 and s["median_ratio"] == pytest.approx(0.75)


def _run(failed: int, attempted: int) -> dict:
    return {"correct": not failed, "attempted": attempted, "failed": failed, "metrics": {"throughput_per_s": 100.0}}


def test_summary_gives_each_sides_share_of_failed_operations():
    pairs = [{"parent": _run(0, 100), "change": _run(3, 100)},
             {"parent": _run(0, 300), "change": _run(1, 300)}]
    out = _tool().summarise(pairs, METRICS)
    assert out["operations"] == {
        "parent": {"failed_share": 0.0, "all_correct": True},
        "change": {"failed_share": 4 / 400, "all_correct": False},
    }
    assert set(out) == {"operations", "throughput_per_s"}
