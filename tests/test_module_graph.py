"""The package's import graph: every module imports at its top, and uses what it imports.

An import inside a function hides an edge of the module graph, and is how a
cycle between two modules gets papered over.  Only the CLI imports lazily, on
purpose: each subcommand loads what it runs when it runs.  An imported name
that a module never uses is an edge with no reason left; no linter is
required to run the tests, so an ``ast`` walk finds those.  So does one for a
module-level table that holds a public function: it captures the function at
import, so a wrapper later set on the module attribute misses its calls.  The
exact layers load no float layer: a fresh interpreter that imports the
anomaly chain loads neither the profiles nor the numeric sweeps.
"""
from __future__ import annotations

import ast
import os
import subprocess
import sys
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


def _public_functions(path: Path) -> set:
    """The names of the public functions path defines at module level."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    return {node.name for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and not node.name.startswith("_")}


def _held_functions(path: Path, public: dict) -> list:
    """(line, name) of each public nilforms function a module-level container of path holds.

    public maps each module stem to its public functions.  A lambda looks a
    name up when it is called, and a call's callee is only called, so
    neither is a hold.
    """
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    names = {fn: fn for fn in public.get(path.stem, ())}  # bound name -> function name
    modules = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                bound = alias.asname or alias.name
                if node.module is None:
                    modules[bound] = alias.name
                elif alias.name in public.get(node.module, ()):
                    names[bound] = alias.name
    found = []
    for node in tree.body:
        if not isinstance(node, (ast.Assign, ast.AnnAssign)) or not isinstance(
                node.value, (ast.Dict, ast.List, ast.Tuple, ast.Set)):
            continue
        stack = [node.value]
        while stack:
            inner = stack.pop()
            if isinstance(inner, ast.Lambda):
                continue
            if isinstance(inner, ast.Call):
                stack.extend([*inner.args, *(kw.value for kw in inner.keywords)])
                continue
            if isinstance(inner, ast.Name) and inner.id in names:
                found.append((inner.lineno, names[inner.id]))
            elif (isinstance(inner, ast.Attribute) and isinstance(inner.value, ast.Name)
                  and inner.attr in public.get(modules.get(inner.value.id), ())):
                found.append((inner.lineno, f"{modules[inner.value.id]}.{inner.attr}"))
            stack.extend(ast.iter_child_nodes(inner))
    return sorted(found)


def test_no_module_level_container_holds_a_public_function(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("from . import ring\nfrom .frames import k_a\n\ndef h5():\n    pass\n\n"
                     "T = {'a': k_a, 'b': (h5, ring.lap_e2f), 'c': lambda: k_a(), 'd': [k_a()]}\n",
                     encoding="utf-8")
    public = {path.stem: _public_functions(path) for path in SRC.glob("*.py")}
    found = _held_functions(probe, {**public, "probe": _public_functions(probe)})
    assert found == [(7, "h5"), (7, "k_a"), (7, "ring.lap_e2f")]  # the walk sees each kind of hold
    held = [(path.name, *hit) for path in sorted(SRC.glob("*.py")) for hit in _held_functions(path, public)]
    assert held == []


def test_the_on_shell_factor_is_built_in_one_function():
    # lap e^{2f} + 2|A|^2 is ring.onshell_factor; every other site calls it
    hits = [(path.name, line.strip()) for path in sorted(SRC.glob("*.py"))
            for line in path.read_text(encoding="utf-8").splitlines() if "lap_e2f() +" in line]
    assert hits == [("ring.py", "return lap_e2f() + rat(2) * absA2")]


def test_the_horizontal_legs_are_spelled_in_one_place():
    # (1, 2, 3, 4) is forms.HORIZONTAL or ring.COORDS; every other site reads one of them,
    # and a pure volume 4-form is read by forms.horizontal_volume
    hits = [(path.name, line.strip()) for path in sorted(SRC.glob("*.py"))
            for line in path.read_text(encoding="utf-8").splitlines() if "(1, 2, 3, 4)" in line]
    assert hits == [("forms.py", "HORIZONTAL = (1, 2, 3, 4)"), ("ring.py", "COORDS = (1, 2, 3, 4)")]


def test_the_exact_anomaly_chain_loads_no_float_layer():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC.parent), env.get("PYTHONPATH")]))
    float_layer = ("nilforms.numeric", "nilforms.profiles", "nilforms.elliptic")
    probe = f"import sys, nilforms.anomaly\nprint([m for m in {float_layer!r} if m in sys.modules])"
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
