"""What the benchmark's tracing shim reads of the library.

perfbench/shim.py imports wavelqr.cli, then wraps the public functions it
finds in vars() of seven layer modules, looked up in sys.modules.  It binds
each traced call's arguments with inspect.signature and reads some of them
by name, so renaming one of these parameters breaks the per-layer metrics
without failing any other test.  The pinned names change together with the
shim, when it is re-keyed on the modal table (ROADMAP item 1).
"""

import ast
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import wavelqr
from wavelqr import cli, kernels, sim

BOUND_BY_NAME = [
    (cli.write_csv, {"path"}),
    (cli.write_json, {"path"}),
    (kernels.assemble_P, {"sols"}),
    (kernels.assemble_Q, {"boundary", "N"}),
    (sim.simulate_fd, {"M", "family"}),
]


@pytest.mark.parametrize(
    "fn, names", BOUND_BY_NAME, ids=[f"{fn.__module__}.{fn.__name__}" for fn, _ in BOUND_BY_NAME]
)
def test_shim_reads_these_parameters(fn, names):
    assert names <= set(inspect.signature(fn).parameters)


SRC = Path(__file__).resolve().parent.parent / "src"
#: perfbench/spans.py's LAYERS: the modules whose functions the shim wraps
SHIM_LAYERS = ("cli", "riccati", "spectrum", "model", "kernels", "sim", "quad")

#: in a fresh interpreter, what the shim sees after `import wavelqr.cli`
AFTER_CLI_IMPORT = """
import inspect, json, sys
import wavelqr.cli
import wavelqr

layers = sys.argv[1:]
report = {"in_sys_modules": [layer for layer in layers if f"wavelqr.{layer}" in sys.modules]}
report["functions"] = {
    layer: sorted(name for name, obj in vars(sys.modules[f"wavelqr.{layer}"]).items()
                  if inspect.isfunction(obj) and obj.__module__ == f"wavelqr.{layer}"
                  and not name.startswith("_"))
    for layer in report["in_sys_modules"]
}
exports = {}
for name in wavelqr.__all__:
    namespace = {}
    exec(f"from wavelqr import {name}", namespace)
    obj = namespace[name]
    exports[name] = [obj.__module__, getattr(sys.modules[obj.__module__], name) is obj]
report["exports"] = exports
report["dir"] = dir(wavelqr)
try:
    wavelqr.no_such_name
    report["unknown_name"] = "resolved"
except AttributeError:
    report["unknown_name"] = "AttributeError"
print(json.dumps(report))
"""


@pytest.fixture(scope="module")
def after_cli_import():
    proc = subprocess.run(
        [sys.executable, "-c", AFTER_CLI_IMPORT, *SHIM_LAYERS],
        env=dict(os.environ, PYTHONPATH=str(SRC)), capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def public_functions(layer):
    """The public functions defined at the top level of a layer's source."""
    tree = ast.parse((SRC / "wavelqr" / f"{layer}.py").read_text())
    return sorted(node.name for node in tree.body
                  if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"))


def test_every_layer_is_in_sys_modules_after_cli_import(after_cli_import):
    assert after_cli_import["in_sys_modules"] == list(SHIM_LAYERS)


@pytest.mark.parametrize("layer", SHIM_LAYERS)
def test_vars_lists_each_public_function(after_cli_import, layer):
    assert after_cli_import["functions"][layer] == public_functions(layer)


def test_package_names_resolve_to_their_defining_module(after_cli_import):
    exports = after_cli_import["exports"]
    assert list(exports) == wavelqr.__all__
    for name, (module, same_object) in exports.items():
        assert module.startswith("wavelqr.") and same_object, name
    assert set(wavelqr.__all__) <= set(after_cli_import["dir"])


def test_unknown_package_name_raises_attribute_error(after_cli_import):
    assert after_cli_import["unknown_name"] == "AttributeError"
