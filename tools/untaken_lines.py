"""The statement lines of each ``src/nilforms`` function that the benchmark's work never runs.

    python3 tools/untaken_lines.py

Runs, under ``sys.settrace`` in this one process, the operations of the
three workloads of ``perfbench/workloads.py``: a cold catalogue round at
seeds 0 and 1 (seven scenario reports each), ``FRESH_OPS`` fresh-frames
residuals, and one cold-cli round with every CLI subcommand (verify,
dump-profile, crosscheck), called through ``nilforms.cli.main`` with its
output captured rather than in child processes.  Then it prints, per
function of ``src/nilforms``, the statement lines that never ran; a
function that was never called is marked so.

A simple statement counts as run when any line it spans ran; a compound
one (if, for, try, with, a nested def) when any line of its whole span
ran, so a header is never listed beside a body that ran.  Lines inside a
nested function or class belong to that function.  Standard library only;
it writes nothing and is not part of the test suite.
"""

from __future__ import annotations

import ast
import contextlib
import io
import itertools
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PKG = os.path.join(ROOT, "src", "nilforms")
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]
FRESH_OPS = 16

_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
_COMPOUND = (ast.If, ast.For, ast.AsyncFor, ast.While, ast.Try, ast.With, ast.AsyncWith, ast.Match)


def _spans(node) -> list:
    """(first line, last line) of each statement directly in node's body, its docstring left out."""
    out = []
    for field in ("body", "orelse", "finalbody", "handlers", "cases"):
        for child in getattr(node, field, ()):
            if isinstance(child, (ast.ExceptHandler, ast.match_case)):
                out.extend(_spans(child))
                continue
            first = min([child.lineno] + [d.lineno for d in getattr(child, "decorator_list", ())])
            out.append((first, child.end_lineno if not isinstance(child, _SCOPES) else child.body[0].lineno - 1))
            if isinstance(child, _COMPOUND):
                out.extend(_spans(child))
    return out


def functions(path: str) -> list:
    """(qualified name, def line, [(first, last) of each statement]) of every function in the module at path."""
    out = []

    def visit(node, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, _SCOPES):
                name = f"{prefix}{child.name}"
                if not isinstance(child, ast.ClassDef):
                    body = child.body
                    doc = ast.get_docstring(child, clean=False) is not None
                    spans = _spans(child)
                    if doc:
                        spans = [s for s in spans if s[0] != body[0].lineno]
                    out.append((name, child.lineno, spans))
                visit(child, f"{name}.")
            elif not isinstance(child, (ast.expr, ast.expr_context)):
                visit(child, prefix)

    with open(path, encoding="utf-8") as fh:
        visit(ast.parse(fh.read()), "")
    return out


def _trace_into(hit: set):
    def local(frame, event, _arg):
        if event == "line":
            hit.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def trace(frame, _event, _arg):
        return local if frame.f_code.co_filename.startswith(PKG) else None

    return trace


def run_workloads() -> None:
    """The three workloads' operations, as the module docstring lists them."""
    import workloads
    from nilforms import cli
    from nilforms.gstruct import catalogue_geometry

    catalogue_geometry.cache_clear()
    for seed in (0, 1):
        w = workloads.Catalogue(seed)
        for op in itertools.islice(w.ops(), w.round_len):
            w.run(op)
    w = workloads.FreshFrames(1)
    for op in itertools.islice(w.ops(), FRESH_OPS):
        w.run(op)
    w = workloads.ColdCli(0)
    for argv, _expected, _kind in itertools.islice(w.ops(), w.round_len):
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            cli.main(argv)


def main() -> int:
    hit: set = set()
    sys.settrace(_trace_into(hit))
    try:
        run_workloads()
    finally:
        sys.settrace(None)

    for name in sorted(f for f in os.listdir(PKG) if f.endswith(".py")):
        path = os.path.join(PKG, name)
        lines = {ln for fn, ln in hit if fn == path}
        for qualname, def_line, spans in functions(path):
            untaken = [first for first, last in spans if not lines.intersection(range(first, last + 1))]
            if not untaken:
                continue
            called = len(untaken) < len(spans)
            note = "" if called else " (never called)"
            print(f"{name[:-3]}.{qualname}:{def_line}{note}: {', '.join(map(str, untaken))}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
