# Open- and closed-loop spectra, per mode and for the coupled truncation.
#
# The per-mode feedback moves each conjugate pair off the imaginary axis.
# How much damping a mode receives falls off with the mode number once the
# weights decay, and the shared scalar control couples the modes, shifting
# the true spectrum slightly from the idealized per-mode picture.

import numpy as np

from wavelqr import (
    PowerLawWeights,
    WaveConfig,
    closed_loop_spectrum,
    coupled_spectrum,
    open_loop_spectrum,
    solve_family,
)
from wavelqr.model import Boundary

cfg = WaveConfig(Boundary.DIRICHLET, alpha=0.0, beta=1.0, R=1.0)
family = PowerLawWeights(q=1.0, r=2.5, cutoff=16)
sols = solve_family(cfg, family, 16)
lam = open_loop_spectrum(cfg, sols.n)
mu, _ = closed_loop_spectrum(cfg, sols.n, sols.k1, sols.k2)
abscissa = mu.real.max(axis=1)

print("Undamped plant: open-loop eigenvalues are purely imaginary")
print(f"{'n':>3} {'open loop':>22} {'closed loop':>26} {'|Re mu|':>10}")
for n, lam_p, mu_p in zip(sols.n[:10], lam[:10, 0], mu[:10, 0]):
    print(f"{n:>3} {lam_p:>22.4f} {mu_p:>26.5f} {abs(mu_p.real):>10.5f}")

peak = int(np.argmax(np.abs(abscissa))) + 1
print(f"\ndamping peaks at mode {peak} and then decreases: the higher the")
print("spatial mode, the less damping the optimal feedback provides.")

ev, absc = coupled_spectrum(cfg, sols, 16)
per_mode = abscissa.max()
print(f"\ncoupled truncation spectral abscissa: {absc:.6f}")
print(f"worst per-mode abscissa:              {per_mode:.6f}")
print("the coupling through the shared control shifts the margins slightly")
