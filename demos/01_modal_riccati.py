# Closed-form modal Riccati synthesis for boundary-controlled waves.
#
# Each spatial mode of the wave equation reduces to a 2x2 LQR problem.
# This script solves a power-law weighted family in closed form, checks the
# solutions against the independent Hamiltonian oracle, and shows why the
# other quadratic-formula branch must be discarded.

import numpy as np

from wavelqr import PowerLawWeights, WaveConfig, are_oracle, modal_table, solve_family
from wavelqr.model import Boundary, modal_matrices
from wavelqr.riccati import negative_root_matrices

cfg = WaveConfig(Boundary.DIRICHLET, alpha=0.0, beta=1.0, R=1.0)
family = PowerLawWeights(q=1.0, r=5.0)

print("Per-mode stabilizing solutions, Dirichlet actuation, Q = q/n^r I")
print(f"{'n':>3} {'P11':>12} {'P12':>12} {'P22':>12} {'K1':>12} {'K2':>12} {'rel res':>9}")
t = solve_family(cfg, family, 8)
for row in zip(t.n, t.p11, t.p12, t.p22, t.k1, t.k2, t.rel_residual):
    n, p11, p12, p22, k1, k2, rel = row
    print(f"{n:>3} {p11:>12.6f} {p12:>12.3e} {p22:>12.3e} "
          f"{k1:>12.3e} {k2:>12.3e} {rel:>9.1e}")

# The closed forms and the Hamiltonian sign-iteration oracle are two genuinely
# different computations; they agree to roughly machine precision.
print("\nCross-check against the stable-subspace oracle (mode 1):")
P_closed = modal_table(cfg, [1], [1.0], [0.0], [1.0]).matrices[0]
F, G = modal_matrices(cfg, 1)
P = are_oracle(F, G, np.eye(2), np.array([[cfg.R]]))
print("closed form:", P_closed)
print("oracle:     ", P)
print("max abs difference:", np.abs(P - P_closed).max())

# Taking the negative sign in the P12 quadratic produces a matrix that is
# never nonnegative definite when the weight is positive definite.
print("\nNegative-branch solution for mode 1 and its eigenvalues:")
Pm = negative_root_matrices(cfg, [1], [1.0], [0.0], [1.0])[0]
print(Pm)
print("eigenvalues:", np.linalg.eigvalsh(Pm) if np.all(np.isfinite(Pm)) else "complex branch")
