"""LQR boundary control of the 1D wave equation: synthesis and verification.

The package computes closed-form modal Riccati solutions, feedback gain
kernels and closed-loop spectra for Dirichlet and Neumann boundary
actuation, and verifies them with independent oracles and simulators.

Importing the package executes none of its modules.  Each submodule is
registered in sys.modules unexecuted and runs on its first attribute
read, and the names the package re-exports are read from their module on
use (PEP 562), so a process executes only the modules it calls.
"""

import importlib.util
import sys

#: the public names each submodule lends the package; __getattr__ reads
#: them from the submodule at each access
_EXPORTS = {
    "model": (
        "Boundary",
        "WaveConfig",
        "ModalWeight",
        "PowerLawWeights",
        "ExplicitWeights",
        "modal_matrices",
        "true_modal_input",
        "weight_arrays",
        "mode_range",
    ),
    "riccati": (
        "ModalTable",
        "modal_table",
        "solve_family",
        "residual_arrays",
        "are_oracle",
    ),
    "spectrum": (
        "coupled_truncated_are",
        "open_loop_spectrum",
        "closed_loop_spectrum",
        "closed_loop_trace_det",
        "coupled_spectrum",
    ),
    "kernels": (
        "KernelField",
        "GainProfile",
        "assemble_P",
        "assemble_K",
        "assemble_Q",
        "pde_residual",
        "decay_fit",
        "convergence_report",
    ),
    "sim": (
        "ModalState",
        "SimResult",
        "project_initial",
        "simulate_decoupled",
        "simulate_coupled_modal",
        "simulate_fd",
        "reconstruct_field",
        "predicted_cost",
    ),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_OWNER)


def _lazy(name):
    """The submodule name, in sys.modules and unexecuted: its code runs on
    the first attribute read, so a process runs only the modules it uses."""
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    loader = importlib.util.LazyLoader(spec.loader)
    spec.loader = loader
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    loader.exec_module(module)
    return module


model = _lazy("model")
quad = _lazy("quad")
riccati = _lazy("riccati")
spectrum = _lazy("spectrum")
kernels = _lazy("kernels")
sim = _lazy("sim")
digits = _lazy("digits")


def __getattr__(name):
    """A re-exported name, read from the module that defines it."""
    if name in _OWNER:
        return getattr(globals()[_OWNER[name]], name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__})


__version__ = "0.1.0"
