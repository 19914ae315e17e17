"""What a report is on the wire: the catalogued scenario names and strict JSON.

Kept apart from ``scenarios`` so that the CLI can check a scenario name and
write JSON without loading the scenario machinery.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

from .ring import CoefExpr

SCENARIOS = (
    "thm-7d-negative",
    "thm-7d-positive",
    "ball-7d",
    "thm-5d-negative",
    "thm-5d-positive",
    "contraction-6d",
    "contraction-5d",
)


def strict_json(obj) -> str:
    """Indented, key-sorted JSON that a strict parser accepts (no NaN/Infinity)."""
    return json.dumps(_sanitize(obj), sort_keys=True, indent=2, allow_nan=False) + "\n"


def _sanitize(obj):
    """obj with every value JSON can hold as it is: a Fraction or ring element as
    its string, a non-finite float as "NaN"/"Infinity"/"-Infinity"."""
    if isinstance(obj, dict):
        return {str(k): _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    if isinstance(obj, Fraction):
        return str(obj)
    if isinstance(obj, CoefExpr):
        return repr(obj)
    if isinstance(obj, float):
        if math.isfinite(obj):
            return float(obj)
        return "NaN" if math.isnan(obj) else ("Infinity" if obj > 0 else "-Infinity")
    if isinstance(obj, (int, str, bool)) or obj is None:
        return obj
    return repr(obj)
