"""Acceptance gate: one test per criterion, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import json
import time

import numpy as np
import pytest

from conftest import sweep_configs
from wavelqr.cli import load_config, main
from wavelqr.kernels import (
    assemble_K,
    basis_matrix,
    convergence_report,
    decay_fit,
    pde_residual,
)
from wavelqr.model import (
    Boundary,
    ExplicitWeights,
    ModalWeight,
    PowerLawWeights,
    WaveConfig,
    mode_range,
    projection_weight,
)
from wavelqr.quad import simpson_weights
from wavelqr.riccati import (
    _closed_form_arrays,
    input_gain_sq,
    modal_table,
    oracle_solve_modes,
    residual_arrays,
    solve_family,
)
from wavelqr.sim import (
    ModalState,
    decay_horizon,
    field_energy,
    predicted_cost,
    project_initial,
    reconstruct_field,
    simulate_coupled_modal,
    simulate_decoupled,
    simulate_fd,
)
from wavelqr.spectrum import (
    Stability,
    classify,
    closed_loop_spectrum,
    coupled_spectrum,
    open_loop_spectrum,
)


def report(num, ok, detail):
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'} - {detail}")


def sweep_mode_arrays(boundary):
    lo = 1 if boundary == Boundary.DIRICHLET else 0
    return np.arange(lo, 201)


def power_amplitudes(ns, q, r):
    return np.where(ns == 0, q, q / np.maximum(ns, 1).astype(float) ** r)


def test_criterion_1_closed_form_residuals_and_psd():
    """All modal ARE residuals <= 1e-10 relative and P PSD over the sweep."""
    t0 = time.time()
    worst_res = 0.0
    worst_eig = 0.0
    for boundary in (Boundary.DIRICHLET, Boundary.NEUMANN):
        ns = sweep_mode_arrays(boundary)
        w2 = (ns * np.pi) ** 2
        for alpha, beta, R, q, r in sweep_configs():
            cfg = WaveConfig(boundary, alpha=alpha, beta=beta, R=R)
            amp = power_amplitudes(ns, q, r)
            c = input_gain_sq(cfg, ns)
            p11, p12, p22 = _closed_form_arrays(w2, c, alpha, amp, amp, 0.0)
            res = residual_arrays(w2, c, alpha, amp, amp, 0.0, p11, p12, p22)
            scale = 1.0 + amp + np.maximum.reduce([np.abs(p11), np.abs(p12), np.abs(p22)]) ** 2
            worst_res = max(worst_res, float(np.max(np.abs(np.stack(res)) / scale)))
            min_eig = 0.5 * (p11 + p22) - np.sqrt(0.25 * (p11 - p22) ** 2 + p12**2)
            worst_eig = min(worst_eig, float(min_eig.min()))
    elapsed = time.time() - t0
    ok = worst_res <= 1e-10 and worst_eig >= -1e-12 and elapsed < 5.0
    report(1, ok, f"max rel residual {worst_res:.2e}, min eigenvalue {worst_eig:.2e}, "
                  f"{elapsed:.2f}s")
    assert worst_res <= 1e-10
    assert worst_eig >= -1e-12
    assert elapsed < 5.0


def test_criterion_2_oracle_equivalence():
    """Closed form matches the modal Kleinman oracle to 1e-8 relative."""
    worst = 0.0
    for boundary in (Boundary.DIRICHLET, Boundary.NEUMANN):
        ns = sweep_mode_arrays(boundary)
        w2 = (ns * np.pi) ** 2
        for alpha, beta, R, q, r in sweep_configs():
            cfg = WaveConfig(boundary, alpha=alpha, beta=beta, R=R)
            amp = power_amplitudes(ns, q, r)
            c = input_gain_sq(cfg, ns)
            p11, p12, p22 = _closed_form_arrays(w2, c, alpha, amp, amp, 0.0)
            o11, o12, o22 = oracle_solve_modes(cfg, ns, amp, 0.0, amp)
            scale = 1.0 + np.maximum.reduce([np.abs(p11), np.abs(p12), np.abs(p22)])
            diff = np.maximum.reduce(
                [np.abs(p11 - o11), np.abs(p12 - o12), np.abs(p22 - o22)]
            )
            worst = max(worst, float(np.max(diff / scale)))
    ok = worst <= 1e-8
    report(2, ok, f"max elementwise rel difference {worst:.2e}")
    assert worst <= 1e-8


def test_criterion_3_closed_loop_consistency():
    """Trace/det identities, strict stability, marginality, conjugacy."""
    worst_id = 0.0
    worst_conj = 0.0
    stable_ok = True
    for boundary in (Boundary.DIRICHLET, Boundary.NEUMANN):
        lo = 1 if boundary == Boundary.DIRICHLET else 0
        n = np.array(sorted({lo, 1, 2, 7, 50, 200}))
        for alpha, beta, R, q, r in sweep_configs()[::3]:
            cfg = WaveConfig(boundary, alpha=alpha, beta=beta, R=R)
            amp = np.array([q if m == 0 else q / float(m) ** r for m in n])
            t = modal_table(cfg, n, amp, np.zeros(len(n)), amp)
            mu = closed_loop_spectrum(t)
            mu_plus, mu_minus = mu[:, 0], mu[:, 1]
            c = input_gain_sq(cfg, n)
            tr = -(alpha + c * t.p22)
            det = (n * np.pi) ** 2 + c * t.p12
            s = mu_plus + mu_minus
            p = mu_plus * mu_minus
            worst_id = max(
                worst_id,
                *(np.abs(s.real - tr) / np.maximum(1.0, np.abs(tr))),
                *(np.abs(s.imag) / np.maximum(1.0, np.abs(tr))),
                *(np.abs(p.real - det) / np.maximum(1.0, np.abs(det))),
                *(np.abs(p.imag) / np.maximum(1.0, np.abs(det))),
            )
            # Q positive definite or damped plant implies strict stability
            driven = (amp > 0) | (alpha > 0)
            stable_ok = stable_ok and bool(np.all(mu.real.max(axis=1)[driven] < 0))
            conj = tr * tr - 4 * det < 0
            worst_conj = max(worst_conj, *np.abs(mu_minus - mu_plus.conjugate())[conj], 0.0)
    cfg0 = WaveConfig(Boundary.DIRICHLET, alpha=0.0)
    t0 = modal_table(cfg0, [3], [0.0], [0.0], [0.0])
    marginal = closed_loop_spectrum(t0)
    marginal_ok = classify(marginal[0].real.max()) is Stability.MARGINAL
    ok = worst_id <= 1e-10 and stable_ok and marginal_ok and worst_conj <= 1e-12
    report(3, ok, f"identity dev {worst_id:.2e}, conjugacy dev {worst_conj:.2e}, "
                  f"strict stability {stable_ok}, marginal classified {marginal_ok}")
    assert worst_id <= 1e-10
    assert stable_ok
    assert marginal_ok
    assert worst_conj <= 1e-12


def component_sequences(boundary, q, r_exp):
    cfg = WaveConfig(boundary, alpha=0.0, beta=1.0, R=1.0)
    ns = np.arange(50, 501)
    amp = np.array([q / float(n) ** r_exp for n in ns])
    t = modal_table(cfg, ns, amp, np.zeros(len(ns)), amp)
    return ns, t.p12, t.p22, t.p11


def test_criterion_4_decay_exponents_and_thresholds():
    """Fitted decay exponents, the P12 upper bound, and series threshold verdicts.

    The P12 rate follows from the (1,1) entry of the modal ARE,
    -2 w2 P12 + Q11 - c P12^2 = 0 with w2 = n^2 pi^2, whose stabilizing root
    is P12 = Q11 / (w2 + sqrt(w2^2 + c Q11)).  Hence

        Q11 / (2 w2 + sqrt(c Q11)) <= P12 <= Q11 / (2 w2),

    and with Q11 = q / n^r and c Q11 << w2^2 (c = beta^2/R is constant in n
    under Neumann actuation and grows like n^2 under Dirichlet actuation),
    P12 ~ q / (2 pi^2 n^(r+2)) under both boundaries: the target is -(r+2).
    The bound q / (2 pi n^(r+1)) holds for every n >= 1 and is checked as
    an inequality, not as a rate.
    """
    failures = []
    q = 1.0

    for boundary, r_exp in ((Boundary.DIRICHLET, 5.0), (Boundary.NEUMANN, 7.0)):
        label = f"{boundary.value} r={r_exp:g}"
        ns, p12, p22, p11 = component_sequences(boundary, q, r_exp)
        targets = (-(r_exp + 2.0), -3.5, -1.5)
        for name, seq, want in zip(("P12", "P22", "P11"), (p12, p22, p11), targets):
            got = decay_fit(ns, seq)
            if abs(got - want) > 0.1:
                failures.append(f"{label} {name}: fitted {got:.3f}, required {want}+-0.1")
        bound = q / (2.0 * np.pi * ns.astype(float) ** (r_exp + 1.0))
        above = ns[p12 > bound]
        if above.size:
            failures.append(
                f"{label} P12 exceeds q / (2 pi n^(r+1)) at {above.size} modes,"
                f" first n={above[0]}"
            )

    thresholds = {"Q": 1.0, "K": 2.0, "P11": {"dirichlet": 4.0, "neumann": 6.0}}
    for boundary in (Boundary.DIRICHLET, Boundary.NEUMANN):
        cfg = WaveConfig(boundary, alpha=0.0, beta=1.0, R=1.0)
        for r_exp in (1.5, 2.5, 4.5, 6.5):
            rep = convergence_report(
                cfg, PowerLawWeights(1.0, r_exp), [8, 16, 32],
                fit_window=(50, 120),
            )
            for name in ("Q", "K", "P11"):
                th = thresholds[name]
                if isinstance(th, dict):
                    th = th[boundary.value]
                expect = "convergent" if r_exp > th else "divergent"
                if rep[name].verdict != expect:
                    failures.append(
                        f"{boundary.value} r={r_exp} {name}: verdict {rep[name].verdict},"
                        f" expected {expect}"
                    )

    ok = not failures
    detail = (
        "P12 rate -(r+2), P12 <= q / (2 pi n^(r+1)) on n in [50, 500],"
        " P22/P11 exponents and threshold verdicts as specified"
        if ok else "; ".join(failures)
    )
    report(4, ok, detail)
    assert ok, "\n".join(failures)


def test_criterion_5_lqr_value_identity():
    """Simulated infinite-horizon cost equals a0' P a0 within 0.1 percent."""
    worst = 0.0
    for boundary in (Boundary.DIRICHLET, Boundary.NEUMANN):
        for alpha in (0.0, 0.5):
            cfg = WaveConfig(boundary, alpha=alpha, beta=1.0, R=1.0)
            for n in (1, 2, 5, 20):
                sol = modal_table(cfg, [n], [1.0], [0.0], [1.0])
                st = ModalState(boundary, (n,), np.array([[1.0, 0.5]]))
                T = decay_horizon(sol)
                mu = closed_loop_spectrum(sol)
                mu_mag = max(abs(mu[0, 0]), 1.0)
                dt = min(2 * np.pi / mu_mag / 40.0, T / 50.0)
                res = simulate_decoupled(sol, st, T, dt)
                pred = predicted_cost(st, sol).per_mode
                worst = max(worst, abs(res.total_cost - pred) / pred)
    ok = worst <= 1e-3
    report(5, ok, f"max cost deviation {worst:.2e} (tolerance 1e-3)")
    assert worst <= 1e-3


def test_criterion_6_pde_residual_structure():
    """Single active mode zeroes every field; two modes give the cross term."""
    grid = np.linspace(0.0, 1.0, 201)
    single_max = 0.0
    for boundary, k in ((Boundary.DIRICHLET, 2), (Boundary.NEUMANN, 1)):
        cfg = WaveConfig(boundary, alpha=0.3, beta=1.2, R=0.8)
        fam = ExplicitWeights({k: ModalWeight(k, 1.0, 0.2, 2.0)})
        sols = solve_family(cfg, fam, 6)
        fields = pde_residual(sols, grid)
        single_max = max(single_max, float(np.abs(fields.values).max()))

    cfg = WaveConfig(Boundary.DIRICHLET, alpha=0.0, beta=1.0, R=1.0)
    fam = ExplicitWeights(
        {1: ModalWeight(1, 1.0, 0.0, 1.0), 3: ModalWeight(3, 0.5, 0.0, 0.5)}
    )
    sols = solve_family(cfg, fam, 3)
    p12 = dict(zip(sols.n.tolist(), sols.p12))
    fields = pde_residual(sols, grid)
    expect = np.zeros((201, 201))
    for m in (1, 3):
        for n in (1, 3):
            if m != n:
                expect -= (
                    cfg.gamma_sq * m * n * np.pi**2 * p12[m] * p12[n]
                    * np.outer(np.sin(m * np.pi * grid), np.sin(n * np.pi * grid))
                )
    cross_dev = float(np.max(np.abs(fields.values[..., 0, 0] - expect)))
    ok = single_max <= 1e-10 and cross_dev <= 1e-10
    report(6, ok, f"single-mode residual {single_max:.2e}, cross-term deviation {cross_dev:.2e}")
    assert single_max <= 1e-10
    assert cross_dev <= 1e-10


def test_criterion_7_cross_simulator_agreement():
    """FD vs coupled-modal within 2 percent; open-loop drift within 1 percent."""
    t0 = time.time()
    cfg = WaveConfig(Boundary.DIRICHLET, alpha=0.0, beta=1.0, R=1.0)
    N, M = 8, 400
    x = np.linspace(0.0, 1.0, M + 1)

    def z1(xx):
        return np.sin(np.pi * xx) + 0.4 * np.sin(2 * np.pi * xx) - 0.2 * np.sin(5 * np.pi * xx)

    def z2(xx):
        return 0.3 * np.sin(3 * np.pi * xx) + 0.1 * np.sin(8 * np.pi * xx)

    fam = PowerLawWeights(1.0, 5.0)
    sols = solve_family(cfg, fam, N)
    prof = assemble_K(sols, x)
    rf = simulate_fd(cfg, prof, z1, z2, M, 5.0, cfl=0.9, family=fam, N=N)
    t_end = rf.times[-1]
    st0 = project_initial(z1, z2, N, cfg.boundary)
    rm = simulate_coupled_modal(sols, st0, t_end, t_end / 2500)

    # the gain kernel is band limited, so the first N mode coefficients of
    # the PDE close exactly onto the coupled truncation; compare there
    wq = simpson_weights(M + 1, 1.0 / M)
    phi = basis_matrix(cfg.boundary, st0.modes, x)
    pw = projection_weight(cfg.boundary, st0.modes)
    a_fd = np.stack(
        [(phi @ (wq * rf.states[-1][:, 0])) / pw, (phi @ (wq * rf.states[-1][:, 1])) / pw],
        axis=1,
    )
    f_fd = reconstruct_field(ModalState(cfg.boundary, st0.modes, a_fd), x)
    f_m = reconstruct_field(ModalState(cfg.boundary, st0.modes, rm.states[-1]), x)
    errs = []
    for got, ref in zip(f_fd, f_m):
        errs.append(
            float(np.sqrt(np.trapezoid((got - ref) ** 2, x) / np.trapezoid(ref**2, x)))
        )
    traj_err = max(errs)

    r0 = simulate_fd(cfg, None, z1, z2, M, 10.0, cfl=0.9)
    E = [field_energy(x, r0.states[k, :, 0], r0.states[k, :, 1])
         for k in range(0, len(r0.times), 100)]
    drift = max(abs(e - E[0]) / E[0] for e in E)
    elapsed = time.time() - t0
    ok = traj_err <= 0.02 and drift <= 0.01 and elapsed < 30.0
    report(7, ok, f"trajectory rel L2 {traj_err:.2e}, energy drift {drift:.2e}, "
                  f"{elapsed:.1f}s")
    assert traj_err <= 0.02
    assert drift <= 0.01
    assert elapsed < 30.0


def test_criterion_8_block_triangular_coupled_spectrum():
    """Single-active-gain coupled spectrum splits into mu pair + open loop."""
    from scipy.optimize import linear_sum_assignment

    worst = 0.0
    for boundary, k in ((Boundary.DIRICHLET, 3), (Boundary.NEUMANN, 2)):
        cfg = WaveConfig(boundary, alpha=0.0, beta=1.0, R=1.0)
        N = 8
        # the full table: every other mode is a zero-weight row with zero gain
        sols = solve_family(cfg, ExplicitWeights({k: ModalWeight(k, 1.0, 0.0, 1.0)}), N)
        ev, _ = coupled_spectrum(sols)
        row = sols[sols.n == k]
        mu = closed_loop_spectrum(row)
        others = [n for n in mode_range(cfg.boundary, N) if n != k]
        expect = np.concatenate([mu[0], open_loop_spectrum(cfg, others).ravel()])
        assert len(ev) == len(expect) == 2 * len(sols)
        cost = np.abs(np.asarray(ev)[:, None] - expect[None, :])
        rows, cols = linear_sum_assignment(cost)
        worst = max(worst, float(cost[rows, cols].max()))
    ok = worst <= 1e-8
    report(8, ok, f"max eigenvalue pairing distance {worst:.2e}")
    assert worst <= 1e-8


def test_criterion_9_determinism(tmp_path):
    """Byte-identical synth and verify outputs across repeated runs."""
    config = {
        "boundary": "dirichlet",
        "alpha": 0.0,
        "beta": 1.0,
        "R": 1.0,
        "weights": {"type": "power", "q": 1.0, "r": 5.0},
        "N": 16,
        "grid_points": 101,
        "seed": 0,
    }
    path = tmp_path / "reference.json"
    path.write_text(json.dumps(config))
    for cmd in ("verify", "synth"):
        assert main([cmd, "--config", str(path), "--out", str(tmp_path / "run1")]) == 0
        assert main([cmd, "--config", str(path), "--out", str(tmp_path / "run2")]) == 0
    identical = all(
        (tmp_path / "run1" / name).read_bytes() == (tmp_path / "run2" / name).read_bytes()
        for name in ("verify.json", "modes.csv")
    )
    report(9, identical, "verify.json and modes.csv byte-identical across runs")
    assert identical
