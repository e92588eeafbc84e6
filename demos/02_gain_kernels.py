# Spatial kernels: the two-point cost kernel P(x1, x2), the state weight
# Q(x1, x2) and the feedback gain profile K(x).
#
# The feedback is u(t) = integral K(x) z(x, t) dx.  Under Dirichlet
# actuation K comes from the x1-derivative trace of P at the actuated end;
# under Neumann actuation from the kernel values at x = 1, which flips the
# sign of every odd cosine coefficient.

import os

import numpy as np

from wavelqr import PowerLawWeights, WaveConfig, assemble_K, assemble_P, assemble_Q, solve_family
from wavelqr.kernels import pde_residual, summability_warnings
from wavelqr.model import Boundary

grid = np.linspace(0.0, 1.0, 201)
family = PowerLawWeights(q=1.0, r=5.0)

for boundary in (Boundary.DIRICHLET, Boundary.NEUMANN):
    cfg = WaveConfig(boundary, alpha=0.0, beta=1.0, R=1.0)
    sols = solve_family(cfg, family, 32)
    kp = assemble_P(sols, grid)
    kq = assemble_Q(family, grid, boundary, 32)
    kg = assemble_K(sols, grid)

    print(f"--- {boundary.value} ---")
    print(f"P(0.5, 0.5) =\n{kp.values[100, 100]}")
    sym = max(
        np.abs(kp.values[i, j] - kp.values[j, i].T).max()
        for i, j in [(10, 50), (30, 170), (77, 123)]
    )
    print(f"two-point symmetry deviation at sample pairs: {sym:.2e}")
    if boundary == Boundary.DIRICHLET:
        print(f"kernel magnitude on the boundary rows: {np.abs(kp.values[0]).max():.2e}")
        print(f"gain profile at the ends: {np.abs(kg.values[[0, -1]]).max():.2e}")
    else:
        print(f"gain at x=0 (note the odd-mode sign flips): {kg.values[0]}")

    # the diagonal modal solution satisfies the kernel Riccati PDE only on
    # the diagonal Fourier coefficients; the off-diagonal defect survives
    fields = pde_residual(sols, grid)
    print(f"kernel Riccati PDE residual field, max abs: {np.abs(fields.values).max():.4f}")
    print(f"Q series warnings: {summability_warnings(family) or 'none'}")

    out = os.path.join("out", "demo02")
    os.makedirs(out, exist_ok=True)
    np.savetxt(
        os.path.join(out, f"gain_{boundary.value}.csv"),
        np.column_stack([grid, kg.values]),
        delimiter=",",
        header="x,K1,K2",
        comments="",
    )
    print(f"wrote {out}/gain_{boundary.value}.csv\n")
