"""The package's import graph: every module imports at its top, and uses what it imports.

An import inside a function hides an edge of the module graph, and is how a
cycle between two modules gets papered over.  Only the CLI imports lazily, on
purpose: each subcommand loads what it runs when it runs.  An imported name
that a module never uses is an edge with no reason left; no linter is
required to run the tests, so an ``ast`` walk finds those.
"""
from __future__ import annotations

import ast
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "nilforms"
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


def _unused_imports(path: Path) -> list:
    """(line, name) of each name an import statement of path binds and no expression of path reads."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound.setdefault(alias.asname or alias.name.split(".")[0], node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound.setdefault(alias.asname or alias.name, node.lineno)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in bound.items() if name not in read)


@pytest.mark.parametrize("path", sorted([*SRC.glob("*.py"), *TESTS.glob("*.py")]),
                         ids=lambda p: f"{p.parent.name}/{p.name}")
def test_every_imported_name_is_used(path):
    assert _unused_imports(path) == []


def test_the_probe_sees_an_unused_import(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("import os.path\nfrom math import pi as tau, e\nprint(e)\n", encoding="utf-8")
    assert _unused_imports(probe) == [(1, "os"), (2, "tau")]
