# Dirichlet vs Neumann actuation under the same power-law weight family.
#
# Three quantities tell the story: how fast the solved Riccati components
# decay in the mode number, which kernel series converge, and how much
# damping the closed loop gives each mode.  Dirichlet actuation wins on all
# three for the same r, mainly because its input gain grows like n pi while
# the Neumann input stays flat.

import numpy as np

from wavelqr import PowerLawWeights, WaveConfig, closed_loop_spectrum, modal_table, solve_family
from wavelqr.kernels import decay_fit, series_thresholds
from wavelqr.model import Boundary

q, r = 1.0, 5.0
print(f"power-law family q = {q}, r = {r}\n")

ns_fit = np.arange(50, 301)
for boundary in (Boundary.DIRICHLET, Boundary.NEUMANN):
    cfg = WaveConfig(boundary, alpha=0.0, beta=1.0, R=1.0)
    amp = q / ns_fit**r
    t = modal_table(cfg, ns_fit, amp, np.zeros_like(amp), amp)
    exps = {"P12": decay_fit(ns_fit, t.p12), "P22": decay_fit(ns_fit, t.p22),
            "P11": decay_fit(ns_fit, t.p11)}
    th = series_thresholds(boundary)
    verdict = "convergent" if r > th["P11"] else "divergent"
    print(f"{boundary.value:>9}: decay exponents "
          f"P12 {exps['P12']:+.2f}, P22 {exps['P22']:+.2f}, P11 {exps['P11']:+.2f}; "
          f"P11 series {verdict} (needs r > {th['P11']:.0f})")

print("\nclosed-loop damping |Re mu_n| per mode:")
print(f"{'n':>3} {'dirichlet':>12} {'neumann':>12}")
damping = []
for boundary in (Boundary.DIRICHLET, Boundary.NEUMANN):
    cfg = WaveConfig(boundary, alpha=0.0, beta=1.0, R=1.0)
    t = solve_family(cfg, PowerLawWeights(q=q, r=r, cutoff=16), 12)
    t = t[t.n >= 1]
    mu, _ = closed_loop_spectrum(cfg, t.n, t.k1, t.k2)
    damping.append(np.abs(mu.real.max(axis=1)))
for n, d, nm in zip(range(1, 13), *damping):
    print(f"{n:>3} {d:>12.6f} {nm:>12.6f}")

print("\nsame weights, same control penalty: the Dirichlet loop both damps")
print("low modes harder and keeps its cost kernel summable at smaller r.")
