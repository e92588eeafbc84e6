# The closed loop, simulated three ways.
#
# 1. decoupled: every mode under its own 2x2 closed loop (the idealized
#    mode-by-mode picture in which the Riccati cost identity is exact),
# 2. coupled modal: one shared scalar control drives all modes at once,
# 3. finite differences: leapfrog on the grid with the feedback injected
#    through the actuated boundary.

import numpy as np

from wavelqr import (
    ModalWeight,
    PowerLawWeights,
    WaveConfig,
    assemble_K,
    modal_table,
    predicted_cost,
    project_initial,
    reconstruct_field,
    simulate_coupled_modal,
    simulate_decoupled,
    simulate_fd,
    solve_family,
)
from wavelqr.model import Boundary
from wavelqr.sim import ModalState, decay_horizon, field_energy, modal_energy

cfg = WaveConfig(Boundary.DIRICHLET, alpha=0.0, beta=1.0, R=1.0)

# --- the cost identity: simulated infinite-horizon cost = a0' P a0
n = 2
w = ModalWeight(n, 1.0, 0.0, 1.0)
sol = modal_table(cfg, [n], [w.q11], [w.q12], [w.q22])
state1 = ModalState(cfg.boundary, (n,), np.array([[1.0, 0.5]]))
T = decay_horizon(sol)
res = simulate_decoupled(sol, state1, T, 0.002)
pred = predicted_cost(state1, sol).per_mode
print(f"mode {n}: simulated cost over T={T:.2f}: {res.total_cost:.8f}")
print(f"         Riccati prediction a0' P a0:  {pred:.8f}")
print(f"         relative deviation:           {abs(res.total_cost-pred)/pred:.2e}\n")

# --- coupled modal vs finite differences, band-limited initial data
N, M = 8, 400
family = PowerLawWeights(q=1.0, r=5.0)
sols = solve_family(cfg, family, N)

z1 = lambda x: np.sin(np.pi * x) + 0.4 * np.sin(2 * np.pi * x) - 0.2 * np.sin(5 * np.pi * x)
z2 = lambda x: 0.3 * np.sin(3 * np.pi * x) + 0.1 * np.sin(8 * np.pi * x)

x = np.linspace(0.0, 1.0, M + 1)
profile = assemble_K(sols, x)
fd = simulate_fd(cfg, profile, z1, z2, M, 5.0, cfl=0.9, family=family, N=N)
t_end = fd.times[-1]
state0 = project_initial(z1, z2, N, cfg.boundary)
coupled = simulate_coupled_modal(sols, state0, t_end, t_end / 2500)

print(f"accumulated criterion over [0, {t_end:.3f}]:")
print(f"  coupled modal:      {coupled.total_cost:.6f}")
print(f"  finite differences: {fd.total_cost:.6f}")
print(f"  quadratic form z0' P z0 (field frame): {predicted_cost(state0, sols).field:.6f}")

stT = ModalState(cfg.boundary, state0.modes, coupled.states[-1])
zm, _ = reconstruct_field(stT, x)
err = np.sqrt(np.trapezoid((fd.states[-1][:, 0] - zm) ** 2, x))
err /= np.sqrt(np.trapezoid(zm**2, x))
print(f"\ndisplacement fields at t={t_end:.2f}: relative L2 gap {err:.2%}")
print("(the finite-difference field also carries the boundary layer that the")
print(" truncated modal basis cannot represent; project both onto the first")
print(" N modes and the gap drops to the scheme's dispersion error)")

e0 = modal_energy(state0)
eT = field_energy(x, fd.states[-1][:, 0], fd.states[-1][:, 1])
print(f"\nenergy: initial {e0:.4f} ->  final {eT:.4f}")
print(f"control effort: max |u| = {np.abs(fd.u_record).max():.4f}")
