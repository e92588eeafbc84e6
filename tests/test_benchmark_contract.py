"""Parameter names the benchmark's tracing shim binds by name.

perfbench/shim.py binds each traced call's arguments with
inspect.signature and reads some of them by name, so renaming one of these
parameters breaks the per-layer metrics without failing any other test.
The pinned names change together with the shim, when it is re-keyed on the
modal table (ROADMAP item 1).
"""

import inspect

import pytest

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
