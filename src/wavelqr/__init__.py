"""LQR boundary control of the 1D wave equation: synthesis and verification.

The package computes closed-form modal Riccati solutions, feedback gain
kernels and closed-loop spectra for Dirichlet and Neumann boundary
actuation, and verifies them with independent oracles and simulators.
"""

from .model import (
    Boundary,
    WaveConfig,
    ModalWeight,
    PowerLawWeights,
    ExplicitWeights,
    modal_matrices,
    true_modal_input,
    weight_arrays,
    mode_range,
)
from .riccati import (
    ModalTable,
    modal_table,
    solve_family,
    residual_arrays,
    are_oracle,
)
from .spectrum import (
    coupled_truncated_are,
    open_loop_spectrum,
    closed_loop_spectrum,
    closed_loop_trace_det,
    coupled_spectrum,
)
from .kernels import (
    KernelField,
    GainProfile,
    assemble_P,
    assemble_K,
    assemble_Q,
    pde_residual,
    decay_fit,
    convergence_report,
)
from .sim import (
    ModalState,
    SimResult,
    project_initial,
    simulate_decoupled,
    simulate_coupled_modal,
    simulate_fd,
    reconstruct_field,
    predicted_cost,
)

__all__ = [
    "Boundary",
    "WaveConfig",
    "ModalWeight",
    "PowerLawWeights",
    "ExplicitWeights",
    "modal_matrices",
    "true_modal_input",
    "weight_arrays",
    "mode_range",
    "ModalTable",
    "modal_table",
    "solve_family",
    "residual_arrays",
    "are_oracle",
    "coupled_truncated_are",
    "open_loop_spectrum",
    "closed_loop_spectrum",
    "closed_loop_trace_det",
    "coupled_spectrum",
    "KernelField",
    "GainProfile",
    "assemble_P",
    "assemble_K",
    "assemble_Q",
    "pde_residual",
    "decay_fit",
    "convergence_report",
    "ModalState",
    "SimResult",
    "project_initial",
    "simulate_decoupled",
    "simulate_coupled_modal",
    "simulate_fd",
    "reconstruct_field",
    "predicted_cost",
]

__version__ = "0.1.0"
