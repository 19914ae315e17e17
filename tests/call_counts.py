"""The calls a piece of work makes, per Python function, as cProfile counts them.

cProfile files a function's statistics under its code key (file, first
line, name), so a function is looked up by that key: a function that was
not called, or that no longer has that code, counts 0.
"""
from __future__ import annotations

import cProfile
import pstats


def call_counts(work) -> dict:
    """{code key: calls} of each function work() called, work itself included."""
    prof = cProfile.Profile()
    prof.runcall(work)
    return {key: stat[1] for key, stat in pstats.Stats(prof).stats.items()}


def count(counts: dict, fn) -> int:
    """The calls of fn in counts (call_counts), looked up by its code key; 0 when it was not called."""
    code = fn.__code__
    return counts.get((code.co_filename, code.co_firstlineno, code.co_name), 0)
