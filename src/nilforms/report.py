"""What a report is on the wire: the catalogued scenario names and strict JSON.

Kept apart from ``scenarios`` so that the CLI can check a scenario name and
write JSON without loading the scenario machinery.  ``strict_json`` writes
its text in one walk over the payload, to the bytes
``json.dumps(..., sort_keys=True, indent=2)`` gives once each value is made
one JSON can hold.
"""

from __future__ import annotations

from fractions import Fraction
from json.encoder import encode_basestring_ascii as _string

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
    """Indented, key-sorted JSON that a strict parser accepts (no NaN/Infinity).

    A key is written as str(key), the last of equal ones winning; a Fraction
    as its string, a non-finite float as "NaN"/"Infinity"/"-Infinity", and
    anything else JSON cannot hold (a ring element) as its repr.
    """
    out: list = []
    _write(obj, out, "\n")
    out.append("\n")
    return "".join(out)


_NON_FINITE = {"nan": '"NaN"', "inf": '"Infinity"', "-inf": '"-Infinity"'}  # float repr -> the string written


def _write(obj, out: list, newline: str) -> None:
    """Append the JSON text of obj to out, its nested lines starting with newline plus two spaces."""
    if isinstance(obj, str):
        out.append(_string(obj))
    elif isinstance(obj, dict):
        named = {str(k): v for k, v in obj.items()}
        inner = newline + "  "
        sep = "{" + inner
        for key in sorted(named):
            out.append(sep + _string(key) + ": ")
            _write(named[key], out, inner)
            sep = "," + inner
        out.append(newline + "}" if named else "{}")
    elif isinstance(obj, (list, tuple)):
        inner = newline + "  "
        sep = "[" + inner
        for v in obj:
            out.append(sep)
            _write(v, out, inner)
            sep = "," + inner
        out.append(newline + "]" if obj else "[]")
    elif isinstance(obj, float):
        text = float.__repr__(obj)
        out.append(_NON_FINITE.get(text, text))
    elif obj is None or obj is True or obj is False:
        out.append("null" if obj is None else "true" if obj else "false")
    elif isinstance(obj, int):
        out.append(int.__repr__(obj))
    else:
        out.append(_string(str(obj) if isinstance(obj, Fraction) else repr(obj)))
