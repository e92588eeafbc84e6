"""Every name a library module imports is used in that module, and every
private name it defines is read somewhere in the library.

__init__.py is exempt from the first: it imports names to re-export them.
"""

import ast
import inspect
from pathlib import Path

import pytest

from wavelqr import kernels, sim, spectrum
from wavelqr.model import Boundary, WaveConfig
from wavelqr.riccati import ModalTable

SRC = Path(__file__).resolve().parent.parent / "src" / "wavelqr"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text())
    imported = {
        alias.asname or alias.name.split(".")[0]
        for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
    }
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert sorted(imported - used) == []


def test_no_dead_private_names():
    """Every module-level _name a library module defines is read somewhere
    in the library."""
    defined, loaded = set(), set()
    for path in SRC.glob("*.py"):
        tree = ast.parse(path.read_text())
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.add((path.stem, node.name))
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined.update((path.stem, t.id) for t in targets if isinstance(t, ast.Name))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loaded.add(node.id)
            elif isinstance(node, ast.Attribute):
                loaded.add(node.attr)
    dead = {f"{mod}.{name}" for mod, name in defined
            if name.startswith("_") and not name.startswith("__") and name not in loaded}
    assert sorted(dead) == []


def test_no_local_or_private_cross_imports():
    """No library module imports inside a function, and none imports a
    _name from another library module."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        for func in ast.walk(tree):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found += [f"{path.name}:{node.lineno}: import in {func.name}"
                          for node in ast.walk(func)
                          if isinstance(node, (ast.Import, ast.ImportFrom))]
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (
                    node.level > 0 or (node.module or "").split(".")[0] == "wavelqr"):
                found += [f"{path.name}:{node.lineno}: private {alias.name}"
                          for alias in node.names if alias.name.startswith("_")]
    assert sorted(found) == []


#: assemble_Q and simulate_fd still take problem data (a boundary or cfg, a
#: family and N) and no table: the benchmark's tracing shim binds those
#: parameters by name (test_benchmark_contract.py), so they move onto the
#: table together with the shim, and stay out of this check until then
PROBLEM_DATA_EXEMPT = {"assemble_Q", "simulate_fd"}


def test_table_consumers_take_no_problem_data():
    """A public function of spectrum, kernels or sim that takes a ModalTable
    reads the problem from its cfg: it takes no WaveConfig and no Boundary
    beside the table, which could name another problem than the table's."""
    found = []
    for mod in (spectrum, kernels, sim):
        for name, fn in inspect.getmembers(mod, inspect.isfunction):
            if fn.__module__ != mod.__name__ or name.startswith("_") or name in PROBLEM_DATA_EXEMPT:
                continue
            params = inspect.signature(fn).parameters.values()
            if any(p.annotation is ModalTable for p in params):
                found += [f"{mod.__name__}.{name}({p.name})" for p in params
                          if p.annotation in (WaveConfig, Boundary)
                          or p.name in ("cfg", "boundary")]
    assert found == []
