"""The package's import graph: every module imports at its top.

An import inside a function hides an edge of the module graph, and is how a
cycle between two modules gets papered over.  Only the CLI imports lazily, on
purpose: each subcommand loads what it runs when it runs.
"""
from __future__ import annotations

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "nilforms"
LAZY_BY_DESIGN = ("cli.py",)


def _function_imports(path: Path) -> list:
    """(line, function name) of each import statement inside a function of path."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            for inner in ast.walk(node):
                if isinstance(inner, (ast.Import, ast.ImportFrom)):
                    found.append((inner.lineno, getattr(node, "name", "<lambda>")))
    return sorted(set(found))


@pytest.mark.parametrize("name", sorted(p.name for p in SRC.glob("*.py") if p.name not in LAZY_BY_DESIGN))
def test_no_module_imports_inside_a_function(name):
    assert _function_imports(SRC / name) == []


def test_the_probe_sees_the_cli_lazy_imports():
    assert _function_imports(SRC / "cli.py")  # else the test above could pass by seeing nothing
