"""Every name a library module imports is used in that module, and every
private name it defines is read somewhere in the library.  A CLI command
executes only the library modules it calls.  The records are named tuples,
or read-only like them, and no module imports dataclasses.

__init__.py is exempt from the first: it imports names to re-export them.
"""

import ast
import functools
import inspect
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from wavelqr import cli, kernels, sim, spectrum
from wavelqr.model import Boundary, ExplicitWeights, ModalWeight, PowerLawWeights, WaveConfig
from wavelqr.riccati import ModalTable, solve_family

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "wavelqr"
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


def test_records_are_named_tuples():
    """No library module imports dataclasses: a frozen dataclass writes and
    compiles its methods when its module executes, a named tuple does not.
    A subclass of a namedtuple declares __slots__ = (), so that its
    instances, like the tuple's, have no __dict__ to assign to."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                modules = []
            found += [f"{path.name}:{node.lineno}: imports {m}"
                      for m in modules if m.split(".")[0] == "dataclasses"]
            if isinstance(node, ast.ClassDef) and any(
                    isinstance(base, ast.Call) and ast.unparse(base.func) == "namedtuple"
                    for base in node.bases):
                slots = [ast.unparse(stmt.value) for stmt in node.body
                         if isinstance(stmt, ast.Assign)
                         and [ast.unparse(t) for t in stmt.targets] == ["__slots__"]]
                if slots != ["()"]:
                    found.append(f"{path.name}:{node.lineno}: {node.name} __slots__ {slots}")
    assert sorted(found) == []


@functools.cache
def library_records():
    """One instance of each record type of the library, by type name."""
    cfg = WaveConfig(Boundary.DIRICHLET, alpha=0.1)
    family = PowerLawWeights(1.0, 5.0)
    table = solve_family(cfg, family, 4)
    grid = np.linspace(0.0, 1.0, 5)
    state = sim.project_initial(lambda x: np.sin(np.pi * x), lambda x: 0.0 * x, 4,
                                Boundary.DIRICHLET)
    report = kernels.convergence_report(cfg, family, [2, 4], fit_window=(2, 8))
    rc = cli.parse_config({"boundary": "dirichlet", "weights": {"type": "power", "q": 1.0,
                                                                "r": 5.0}})
    records = [
        cfg, family, ModalWeight(1, 1.0, 0.0, 1.0), ExplicitWeights({}), table,
        kernels.assemble_P(table, grid), kernels.assemble_K(table, grid), report,
        report.series[0], state, sim.simulate_decoupled(table, state, 0.1, 0.05),
        sim.predicted_cost(state, table), spectrum.coupled_modes(table, state.a),
        spectrum.coupled_truncated_are(table), rc, rc.sim, rc.converge,
    ]
    return {type(r).__name__: r for r in records}


RECORD_TYPES = sorted(library_records())


@pytest.mark.parametrize("name", RECORD_TYPES)
def test_records_are_read_only(name):
    """Assigning a field, or any other attribute, of a record raises
    AttributeError, as it did when the records were frozen dataclasses."""
    record = library_records()[name]
    for attr in (record._fields[0], record._fields[-1], "extra"):
        with pytest.raises(AttributeError):
            setattr(record, attr, None)


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


#: the wavelqr modules a fresh process executes: the package registers them
#: unexecuted (importlib.util.LazyLoader), and a module executes on first use
REPORT_EXECUTED = """
import sys, types
print(" ".join(sorted(name.removeprefix("wavelqr.") for name, m in sys.modules.items()
                      if name.startswith("wavelqr.") and type(m) is types.ModuleType)))
"""
#: the entry point ends its process with os._exit, which would end the
#: script before it reports: os._exit raises SystemExit instead
RUN_CLI_AS_MAIN = """
import os, runpy, sys


def exit_run(code):
    raise SystemExit(code)


os._exit = exit_run
sys.argv = ["wavelqr", *sys.argv[1:]]
try:
    runpy.run_module("wavelqr.cli", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    assert not exc.code, exc.code
else:
    raise AssertionError("the entry point returned without exiting")
"""

ALL_MODULES = {"model", "quad", "riccati", "spectrum", "kernels", "sim", "digits"}
EXECUTED_BY_COMMAND = {
    "synth": {"model", "riccati", "spectrum", "digits"},
    "spectrum": {"model", "riccati", "spectrum", "digits"},
    "verify": {"model", "quad", "riccati", "spectrum", "kernels"},
    "kernels": {"model", "quad", "riccati", "kernels", "digits"},
    "converge": {"model", "quad", "riccati", "kernels"},
    "compare-boundary": ALL_MODULES - {"sim"},
    "simulate": ALL_MODULES,
}


def executed_modules(script, *args):
    """The wavelqr modules executed by a fresh interpreter that runs script."""
    proc = subprocess.run(
        [sys.executable, "-c", script + REPORT_EXECUTED, *args],
        env=dict(os.environ, PYTHONPATH=str(SRC.parent)),
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.split())


def test_importing_the_package_executes_no_module():
    assert executed_modules("import wavelqr") == set()


@pytest.mark.parametrize("command", sorted(EXECUTED_BY_COMMAND))
def test_command_executes_only_the_modules_it_calls(command, tmp_path):
    """`python -m wavelqr.cli COMMAND` on the example config executes the
    modules its command calls and no other."""
    config = ROOT / "demos" / "config_example.json"
    executed = executed_modules(
        RUN_CLI_AS_MAIN, command, "--config", str(config), "--out", str(tmp_path))
    assert executed == EXECUTED_BY_COMMAND[command]
