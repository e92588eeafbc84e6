from dataclasses import replace

import numpy as np
import pytest
from scipy.linalg import expm

from conftest import one_mode, sweep_configs
from wavelqr.kernels import assemble_K, assemble_P, assemble_Q, basis_matrix
from wavelqr.model import (
    Boundary,
    ExplicitWeights,
    ModalWeight,
    PowerLawWeights,
    WaveConfig,
    mode_range,
    projection_weight,
)
from wavelqr.quad import running_quadrature, simpson_weights, trapezoid_weights
from wavelqr.riccati import modal_table, solve_family
from wavelqr.sim import (
    ModalState,
    SimulationError,
    decay_horizon,
    expm_2x2,
    expm_pade,
    field_energy,
    modal_energy,
    predicted_cost,
    project_initial,
    reconstruct_field,
    simulate_coupled_modal,
    simulate_decoupled,
    simulate_fd,
    target_solution,
)
from wavelqr.spectrum import closed_loop_matrices, closed_loop_spectrum, coupled_loop_parts


def no_gains(cfg, N):
    """The zero-weight table of the modes up to N: no mode has feedback."""
    return solve_family(cfg, ExplicitWeights({}), N)


def band_limited(boundary):
    bf = np.sin if boundary == Boundary.DIRICHLET else np.cos

    def z1(x):
        return bf(np.pi * x) + 0.4 * bf(2 * np.pi * x) - 0.2 * bf(5 * np.pi * x)

    def z2(x):
        return 0.3 * bf(3 * np.pi * x) + 0.1 * bf(8 * np.pi * x)

    return z1, z2


def project_grid_state(boundary, modes, x, z1, z2):
    """Simpson projection of grid samples onto the modal basis."""
    wq = simpson_weights(len(x), x[1] - x[0])
    phi = basis_matrix(boundary, modes, x)
    pw = projection_weight(boundary, modes)
    a = np.stack([(phi @ (wq * z1)) / pw, (phi @ (wq * z2)) / pw], axis=1)
    return a


class TestProjectInitial:
    def test_pure_mode_orthogonality(self):
        st = project_initial(lambda x: np.sin(2 * np.pi * x), lambda x: 0.0, 6,
                             Boundary.DIRICHLET)
        expect = np.zeros((6, 2))
        expect[1, 0] = 1.0
        np.testing.assert_allclose(st.a, expect, atol=1e-10)

    def test_zero_data(self):
        st = project_initial(lambda x: 0.0, lambda x: 0.0, 4, Boundary.NEUMANN)
        assert np.all(st.a == 0.0)

    def test_parabola_coefficients_analytic(self):
        # x(1-x) has sine coefficients 8/(n pi)^3 for odd n, 0 for even
        st = project_initial(lambda x: x * (1 - x), lambda x: 0.0, 8, Boundary.DIRICHLET)
        for i, n in enumerate(st.modes):
            expect = 8.0 / (n * np.pi) ** 3 if n % 2 == 1 else 0.0
            np.testing.assert_allclose(st.a[i, 0], expect, atol=1e-10)

    @pytest.mark.parametrize("boundary", [Boundary.DIRICHLET, Boundary.NEUMANN])
    def test_round_trip_band_limited(self, boundary):
        z1, z2 = band_limited(boundary)
        st = project_initial(z1, z2, 8, boundary, n_quad=8193)
        x = np.linspace(0.0, 1.0, 257)
        f = reconstruct_field(st, x)
        np.testing.assert_allclose(f.z1, z1(x), atol=1e-10)
        np.testing.assert_allclose(f.z2, z2(x), atol=1e-10)

    def test_neumann_mean_mode_weight(self):
        st = project_initial(lambda x: 1.0 + np.cos(np.pi * x), lambda x: 0.0, 3,
                             Boundary.NEUMANN)
        np.testing.assert_allclose(st.a[0, 0], 1.0, atol=1e-12)
        np.testing.assert_allclose(st.a[1, 0], 1.0, atol=1e-10)


class TestReconstructField:
    def test_zero_state(self):
        st = ModalState(Boundary.DIRICHLET, (1, 2), np.zeros((2, 2)))
        f = reconstruct_field(st, np.linspace(0, 1, 11))
        assert np.all(f.z1 == 0.0) and np.all(f.z2 == 0.0)

    def test_single_unit_mode(self):
        a = np.zeros((3, 2))
        a[2, 0] = 1.0
        st = ModalState(Boundary.NEUMANN, (0, 1, 2), a)
        x = np.linspace(0, 1, 33)
        f = reconstruct_field(st, x)
        np.testing.assert_allclose(f.z1, np.cos(2 * np.pi * x), atol=1e-15)


class TestTargetSolution:
    def test_zero_initial_state(self, dirichlet_cfg):
        st = ModalState(Boundary.DIRICHLET, (1, 2), np.zeros((2, 2)))
        res = target_solution(dirichlet_cfg, st, 1.0, 0.01)
        assert np.all(res.states == 0.0) and np.all(res.cost == 0.0)

    def test_undamped_energy_constant(self, dirichlet_cfg):
        st = ModalState(Boundary.DIRICHLET, (1,), np.array([[1.0, 0.3]]))
        res = target_solution(dirichlet_cfg, st, 3.0, 0.01)
        energies = [
            modal_energy(ModalState(Boundary.DIRICHLET, (1,), res.states[k]))
            for k in range(0, len(res.times), 40)
        ]
        np.testing.assert_allclose(energies, energies[0], rtol=1e-12)

    def test_damped_amplitude_envelope(self):
        # alpha^2 < 4 n^2 pi^2: after one damped period the state returns in
        # phase scaled by exp(-alpha T / 2)
        cfg = WaveConfig(Boundary.DIRICHLET, alpha=0.8)
        omega = np.sqrt((np.pi) ** 2 - cfg.alpha**2 / 4.0)
        period = 2 * np.pi / omega
        nsteps = 400
        st = ModalState(Boundary.DIRICHLET, (1,), np.array([[1.0, 0.3]]))
        res = target_solution(cfg, st, period, period / nsteps)
        expect = np.exp(-cfg.alpha * period / 2.0) * st.a
        np.testing.assert_allclose(res.states[-1], expect, rtol=1e-9, atol=1e-12)


def closed_loops(boundary, params, N):
    """Per-mode (k, 2, 2) closed loops and the coupled (2N)^2 loop of a sweep config."""
    alpha, beta, R, q, r = params
    cfg = WaveConfig(boundary, alpha=alpha, beta=beta, R=R)
    sols = solve_family(cfg, PowerLawWeights(q, r), N)
    _, A, B, Krow = coupled_loop_parts(cfg, sols)
    return closed_loop_matrices(cfg, sols.n, sols.k1, sols.k2), A + B @ Krow


def deviation(got, ref):
    """Largest entry of |got - ref| over the largest entry of |ref|, per matrix."""
    return (np.abs(got - ref).max(axis=(-2, -1)) / np.abs(ref).max(axis=(-2, -1))).max()


class TestExponentials:
    """expm_2x2 (closed form) and expm_pade (scaling and squaring) against
    scipy.linalg.expm, and against a 40-digit reference where scipy's own
    squarings lose digits."""

    @pytest.mark.parametrize("boundary", [Boundary.DIRICHLET, Boundary.NEUMANN])
    def test_match_scipy_over_sweep(self, boundary):
        dt = 0.002  # the simulation step: Pade degree 3 at N=2 up to 7 at N=64
        for params in sweep_configs():
            blocks, coupled = closed_loops(boundary, params, 64)
            assert deviation(expm_2x2(blocks * dt), expm(blocks * dt)) <= 1e-15
            if params[1:3] == (2.0, 0.5):  # the largest input gain beta^2 / R
                assert deviation(expm_pade(coupled * dt), expm(coupled * dt)) <= 1e-14
            for N in (2, 16):
                _, coupled = closed_loops(boundary, params, N)
                assert deviation(expm_pade(coupled * dt), expm(coupled * dt)) <= 1e-14

    @pytest.mark.parametrize("boundary, alpha", [(Boundary.DIRICHLET, 0.0), (Boundary.NEUMANN, 0.2)])
    def test_match_scipy_at_fine_grid_size(self, boundary, alpha):
        blocks, coupled = closed_loops(boundary, (alpha, 1.0, 1.0, 1.0, 5.0), 208)
        dt = 0.002
        assert deviation(expm_2x2(blocks * dt), expm(blocks * dt)) <= 1e-15
        assert deviation(expm_pade(coupled * dt), expm(coupled * dt)) <= 1e-14

    @pytest.mark.parametrize("q2", [0.0, 1e-10, -1e-10])
    def test_critical_damping(self, q2):
        # A = [[0, 1], [-d, -2]] has s = -1 and q^2 = 1 - d exactly
        A = np.array([[[0.0, 1.0], [-(1.0 - q2), -2.0]]])
        ref = expm(A[0])
        assert deviation(expm_2x2(A), ref) <= 1e-15
        assert deviation(expm_pade(A[0]), ref) <= 1e-14
        if q2 == 0.0:  # e^A = e^-1 (I + (A + I))
            np.testing.assert_allclose(expm_2x2(A)[0], np.exp(-1.0) * np.array([[2.0, 1.0], [-1.0, 0.0]]),
                                       rtol=1e-15, atol=0)

    @pytest.mark.parametrize("boundary", [Boundary.DIRICHLET, Boundary.NEUMANN])
    @pytest.mark.parametrize("dt", [1.0, 5.0])
    def test_large_step_against_high_precision(self, boundary, dt):
        mpmath = pytest.importorskip("mpmath")

        def reference(A):
            with mpmath.workdps(40):
                return np.array(mpmath.expm(mpmath.matrix(A.tolist())).tolist(), dtype=float)

        blocks, coupled = closed_loops(boundary, (0.1, 0.5, 1.0, 10.0, 2.5), 8)
        for A in (*blocks * dt, coupled * dt):
            # e^A is conditioned like ||A||: bound the deviation by u ||A||_1
            tol = 1e-15 * np.abs(A).sum(axis=0).max()
            if A.shape == (2, 2):
                assert deviation(expm_2x2(A[None])[0], reference(A)) <= tol
            assert deviation(expm_pade(A), reference(A)) <= tol

    def test_no_overflow_where_exp_s_underflows(self):
        # s = -800, q = 790: cosh(q) overflows, e^(s+q) = e^-10 does not
        A = np.array([[[-10.0, 0.0], [0.0, -1590.0]]])
        np.testing.assert_allclose(expm_2x2(A)[0], [[np.exp(-10.0), 0.0], [0.0, 0.0]], rtol=1e-15, atol=0)


class TestSimulateDecoupled:
    def test_zero_weights_damped_cost_zero(self):
        cfg = WaveConfig(Boundary.DIRICHLET, alpha=1.0)
        fam = ExplicitWeights({})
        sols = solve_family(cfg, fam, 3)
        st = ModalState(Boundary.DIRICHLET, (1, 2, 3), np.ones((3, 2)))
        res = simulate_decoupled(cfg, sols, st, 2.0, 0.01)
        assert np.all(res.cost == 0.0)
        ref = target_solution(cfg, st, 2.0, 0.01)
        np.testing.assert_allclose(res.states, ref.states, atol=1e-12)

    def test_exact_propagation(self, dirichlet_cfg):
        fam = ExplicitWeights({2: ModalWeight(2, 1.0, 0.0, 1.0)})
        sols = solve_family(dirichlet_cfg, fam, 2)
        a0 = np.array([[0.5, -0.2], [1.0, 0.4]])
        st = ModalState(Boundary.DIRICHLET, (1, 2), a0)
        dt = 0.01
        res = simulate_decoupled(dirichlet_cfg, sols, st, 1.0, dt)
        k = 37
        A = closed_loop_matrices(dirichlet_cfg, sols.n, sols.k1, sols.k2)
        for i in range(len(sols)):
            prop = expm(A[i] * (k * dt))
            np.testing.assert_allclose(res.states[k, i], prop @ a0[i], rtol=1e-10, atol=1e-13)

    @pytest.mark.parametrize("boundary", [Boundary.DIRICHLET, Boundary.NEUMANN])
    @pytest.mark.parametrize("alpha", [0.0, 0.5])
    @pytest.mark.parametrize("n", [1, 2, 5, 20])
    def test_lqr_value_identity(self, boundary, alpha, n):
        """Infinite-horizon simulated cost equals the Riccati quadratic form."""
        cfg = WaveConfig(boundary, alpha=alpha, beta=1.0, R=1.0)
        w = ModalWeight(n, 1.0, 0.0, 1.0)
        sol = one_mode(cfg, w)
        st = ModalState(boundary, (n,), np.array([[1.0, 0.5]]))
        T = decay_horizon(cfg, sol, 1e-8)
        mu, _ = closed_loop_spectrum(cfg, sol.n, sol.k1, sol.k2)
        mu_mag = max(abs(mu[0, 0]), 1.0)
        dt = min(2 * np.pi / mu_mag / 40.0, T / 50.0)
        res = simulate_decoupled(cfg, sol, st, T, dt)
        pred = predicted_cost(st, sol).per_mode
        assert abs(res.total_cost - pred) <= 1e-3 * pred

    def test_dt_validation(self, dirichlet_cfg):
        fam = ExplicitWeights({})
        sols = solve_family(dirichlet_cfg, fam, 1)
        st = ModalState(Boundary.DIRICHLET, (1,), np.ones((1, 2)))
        with pytest.raises(ValueError):
            simulate_decoupled(dirichlet_cfg, sols, st, 1.0, 0.0)


class TestSimulateCoupled:
    def test_zero_gains_match_open_loop(self, dirichlet_cfg):
        st = ModalState(Boundary.DIRICHLET, (1, 2, 3, 4), np.ones((4, 2)))
        res = simulate_coupled_modal(dirichlet_cfg, no_gains(dirichlet_cfg, 4), st, 2.0, 0.01)
        ref = target_solution(dirichlet_cfg, st, 2.0, 0.01)
        np.testing.assert_allclose(res.states, ref.states, atol=1e-10)
        assert np.all(res.u_record == 0.0)

    @pytest.mark.parametrize("boundary,k", [(Boundary.DIRICHLET, 2), (Boundary.NEUMANN, 1)])
    def test_single_active_gain_matches_decoupled(self, boundary, k):
        cfg = WaveConfig(boundary, alpha=0.0, beta=1.0, R=1.0)
        N = 4
        w = ModalWeight(k, 1.0, 0.0, 1.0)
        sols = solve_family(cfg, ExplicitWeights({k: w}), N)
        modes = tuple(mode_range(boundary, N))
        a0 = np.zeros((len(modes), 2))
        i = modes.index(k)
        a0[i] = [1.0, -0.3]
        st = ModalState(boundary, modes, a0)
        res_c = simulate_coupled_modal(cfg, sols, st, 2.0, 0.005)
        st1 = ModalState(boundary, (k,), a0[i : i + 1])
        res_d = simulate_decoupled(cfg, sols[sols.n == k], st1, 2.0, 0.005)
        np.testing.assert_allclose(res_c.states[:, i], res_d.states[:, 0], atol=1e-10)

    def test_driven_modes_respond(self, dirichlet_cfg):
        # modes with zero gain still feel the shared control through their
        # true input vectors
        sols = solve_family(dirichlet_cfg, ExplicitWeights({1: ModalWeight(1, 1.0, 0.0, 1.0)}), 3)
        modes = (1, 2, 3)
        a0 = np.zeros((3, 2))
        a0[0] = [1.0, 0.0]
        st = ModalState(Boundary.DIRICHLET, modes, a0)
        res = simulate_coupled_modal(dirichlet_cfg, sols, st, 1.0, 0.005)
        assert np.abs(res.states[-1, 1:]).max() > 1e-4

    def test_terminal_energy_regression(self, dirichlet_cfg):
        fam = PowerLawWeights(1.0, 5.0)
        sols = solve_family(dirichlet_cfg, fam, 8)
        modes = tuple(range(1, 9))
        a0 = np.zeros((8, 2))
        for i in range(8):
            a0[i] = [1.0 / (i + 1) ** 2, 0.5 / (i + 1) ** 2]
        st = ModalState(Boundary.DIRICHLET, modes, a0)
        res = simulate_coupled_modal(dirichlet_cfg, sols, st, 10.0, 0.002)
        stT = ModalState(Boundary.DIRICHLET, modes, res.states[-1], t=10.0)
        ratio = modal_energy(stT) / modal_energy(st)
        assert ratio < 1.0
        np.testing.assert_allclose(ratio, 0.08132684984988023, rtol=1e-6)

    def test_mode_mismatch_rejected(self, dirichlet_cfg):
        st = ModalState(Boundary.DIRICHLET, (1, 2), np.zeros((2, 2)))
        with pytest.raises(ValueError, match="modes"):
            simulate_coupled_modal(dirichlet_cfg, no_gains(dirichlet_cfg, 4), st, 1.0, 0.01)


class TestSimulateFd:
    def test_cfl_and_grid_validation(self, dirichlet_cfg):
        z1, z2 = band_limited(Boundary.DIRICHLET)
        with pytest.raises(ValueError, match="CFL"):
            simulate_fd(dirichlet_cfg, None, z1, z2, 64, 1.0, cfl=1.2)
        with pytest.raises(ValueError, match="32"):
            simulate_fd(dirichlet_cfg, None, z1, z2, 16, 1.0)

    def test_nan_input_aborts_with_diagnostic(self, dirichlet_cfg):
        z1 = lambda x: np.where(x < 0.5, np.nan, 0.0)
        with pytest.raises(SimulationError, match="non-finite"):
            simulate_fd(dirichlet_cfg, None, z1, lambda x: 0.0, 64, 1.0)

    def test_open_loop_energy_drift_undamped(self, dirichlet_cfg):
        z1, z2 = band_limited(Boundary.DIRICHLET)
        res = simulate_fd(dirichlet_cfg, None, z1, z2, 400, 10.0, cfl=0.9)
        x = np.linspace(0, 1, 401)
        E = [field_energy(x, res.states[k, :, 0], res.states[k, :, 1])
             for k in range(0, len(res.times), 200)]
        drift = max(abs(e - E[0]) / E[0] for e in E)
        assert drift <= 1e-4  # measured 1.3e-5 at build time

    def test_open_loop_energy_monotone_damped(self):
        cfg = WaveConfig(Boundary.DIRICHLET, alpha=0.7)
        z1, z2 = band_limited(Boundary.DIRICHLET)
        res = simulate_fd(cfg, None, z1, z2, 200, 4.0, cfl=0.9)
        x = np.linspace(0, 1, 201)
        E = [field_energy(x, res.states[k, :, 0], res.states[k, :, 1])
             for k in range(0, len(res.times), 50)]
        assert all(b < a * (1 + 1e-9) for a, b in zip(E, E[1:]))

    def test_neumann_open_loop_drift(self, neumann_cfg):
        z1, z2 = band_limited(Boundary.NEUMANN)
        res = simulate_fd(neumann_cfg, None, z1, z2, 400, 5.0, cfl=0.9)
        x = np.linspace(0, 1, 401)
        E0 = field_energy(x, res.states[0, :, 0], res.states[0, :, 1])
        ET = field_energy(x, res.states[-1, :, 0], res.states[-1, :, 1])
        assert abs(ET - E0) / E0 <= 1e-3

    def test_dirichlet_boundary_tracks_control(self, dirichlet_cfg):
        z1, z2 = band_limited(Boundary.DIRICHLET)
        fam = PowerLawWeights(1.0, 5.0)
        sols = solve_family(dirichlet_cfg, fam, 8)
        x = np.linspace(0, 1, 101)
        prof = assemble_K(sols, dirichlet_cfg, x)
        res = simulate_fd(dirichlet_cfg, prof, z1, z2, 100, 0.5, cfl=0.9, family=fam, N=8)
        np.testing.assert_allclose(
            res.states[:, 0, 0], dirichlet_cfg.beta * res.u_record, atol=1e-12
        )
        assert np.all(res.states[:, -1, 0] == 0.0)

    @pytest.mark.parametrize("boundary", [Boundary.DIRICHLET, Boundary.NEUMANN])
    def test_cross_simulator_band_limited_agreement(self, boundary):
        """FD and coupled-modal agree on the modal content they share.

        The gain kernel is band limited, so the first N mode coefficients of
        the PDE close exactly onto the coupled truncation; projecting the FD
        field onto the basis removes the boundary-layer content the modal
        representation cannot carry.
        """
        cfg = WaveConfig(boundary, alpha=0.0, beta=1.0, R=1.0)
        N, M = 8, 400
        z1, z2 = band_limited(boundary)
        fam = PowerLawWeights(1.0, 5.0)
        sols = solve_family(cfg, fam, N)
        x = np.linspace(0.0, 1.0, M + 1)
        prof = assemble_K(sols, cfg, x)
        rf = simulate_fd(cfg, prof, z1, z2, M, 5.0, cfl=0.9, family=fam, N=N)
        t_end = rf.times[-1]
        st0 = project_initial(z1, z2, N, boundary)
        rm = simulate_coupled_modal(cfg, sols, st0, t_end, t_end / 2500)

        a_fd = project_grid_state(boundary, st0.modes, x,
                                  rf.states[-1][:, 0], rf.states[-1][:, 1])
        f_fd = reconstruct_field(ModalState(boundary, st0.modes, a_fd, t=t_end), x)
        f_m = reconstruct_field(ModalState(boundary, st0.modes, rm.states[-1], t=t_end), x)
        for got, ref in ((f_fd.z1, f_m.z1), (f_fd.z2, f_m.z2)):
            err = np.sqrt(np.trapezoid((got - ref) ** 2, x))
            err /= np.sqrt(np.trapezoid(ref**2, x))
            assert err <= 0.02

    def test_cross_simulator_raw_field_with_weak_control(self, dirichlet_cfg):
        # with the initial data weighted to high modes the control (and with
        # it the unresolvable boundary layer) stays small, so even the raw
        # displacement fields agree
        N, M = 8, 400
        z1 = lambda x: np.sin(5 * np.pi * x) + 0.5 * np.sin(7 * np.pi * x)
        z2 = lambda x: 0.4 * np.sin(6 * np.pi * x)
        fam = PowerLawWeights(1.0, 5.0)
        sols = solve_family(dirichlet_cfg, fam, N)
        x = np.linspace(0.0, 1.0, M + 1)
        prof = assemble_K(sols, dirichlet_cfg, x)
        rf = simulate_fd(dirichlet_cfg, prof, z1, z2, M, 5.0, cfl=0.9, family=fam, N=N)
        t_end = rf.times[-1]
        st0 = project_initial(z1, z2, N, Boundary.DIRICHLET)
        rm = simulate_coupled_modal(dirichlet_cfg, sols, st0, t_end, t_end / 2500)
        f_m = reconstruct_field(
            ModalState(Boundary.DIRICHLET, st0.modes, rm.states[-1], t=t_end), x
        )
        err = np.sqrt(np.trapezoid((rf.states[-1][:, 0] - f_m.z1) ** 2, x))
        err /= np.sqrt(np.trapezoid(f_m.z1**2, x))
        assert err <= 0.02

    def test_fd_cost_matches_modal_cost(self, dirichlet_cfg):
        z1, z2 = band_limited(Boundary.DIRICHLET)
        N, M = 8, 400
        fam = PowerLawWeights(1.0, 5.0)
        sols = solve_family(dirichlet_cfg, fam, N)
        x = np.linspace(0.0, 1.0, M + 1)
        prof = assemble_K(sols, dirichlet_cfg, x)
        rf = simulate_fd(dirichlet_cfg, prof, z1, z2, M, 5.0, cfl=0.9, family=fam, N=N)
        st0 = project_initial(z1, z2, N, Boundary.DIRICHLET)
        rm = simulate_coupled_modal(dirichlet_cfg, sols, st0, rf.times[-1], rf.times[-1] / 2500)
        np.testing.assert_allclose(rf.total_cost, rm.total_cost, rtol=1e-3)

    @pytest.mark.parametrize("boundary", [Boundary.DIRICHLET, Boundary.NEUMANN])
    @pytest.mark.parametrize("family", [
        PowerLawWeights(1.0, 5.0),
        # weights that stop at mode 3 < N
        ExplicitWeights({n: ModalWeight(n, 2.0 / max(n, 1) ** 3, 0.0, 2.0 / max(n, 1) ** 3)
                         for n in range(4)}),
        ExplicitWeights({1: ModalWeight(1, 2.0, 0.5, 1.0), 2: ModalWeight(2, 1.0, -0.8, 1.0),
                         6: ModalWeight(6, 0.3, 0.1, 0.2)}),
    ], ids=["power", "cutoff<N", "explicit-Q12"])
    def test_modal_cost_matches_dense_double_quadrature(self, boundary, family):
        """The state cost summed over the N modes equals the double trapezoid
        quadrature of z' Q z against the assembled (M+1)^2 Q kernel."""
        cfg = WaveConfig(boundary, alpha=0.3, beta=1.0, R=0.8)
        N, M = 8, 64
        z1, z2 = band_limited(boundary)
        x = np.linspace(0.0, 1.0, M + 1)
        prof = assemble_K(solve_family(cfg, family, N), cfg, x)
        res = simulate_fd(cfg, prof, z1, z2, M, 0.5, cfl=0.9, family=family, N=N)
        q = assemble_Q(family, x, boundary, N).values
        zw = res.states * trapezoid_weights(M + 1, 1.0 / M)[None, :, None]
        state_cost = np.einsum("tia,ijab,tjb->t", zw, q, zw)
        ref = running_quadrature(state_cost + cfg.R * res.u_record**2, res.metadata["dt"])
        assert ref[-1] > 0
        np.testing.assert_allclose(res.cost, ref, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("boundary,alpha", [
        (Boundary.DIRICHLET, 0.0), (Boundary.DIRICHLET, 0.8), (Boundary.NEUMANN, 0.4),
    ])
    def test_leapfrog_recurrence_and_centered_velocity(self, boundary, alpha):
        """The generated positions satisfy the centered damped leapfrog
        recurrence and the recorded velocity is the centered difference."""
        cfg = WaveConfig(boundary, alpha=alpha, beta=1.0, R=1.0)
        N, M = 4, 64
        z1f, z2f = band_limited(boundary)
        fam = PowerLawWeights(1.0, 5.0)
        sols = solve_family(cfg, fam, N)
        x = np.linspace(0.0, 1.0, M + 1)
        prof = assemble_K(sols, cfg, x)
        res = simulate_fd(cfg, prof, z1f, z2f, M, 0.5, cfl=0.9)
        h = 1.0 / M
        dt = res.metadata["dt"]
        w = res.states[:, :, 0]
        v = res.states[:, :, 1]
        for k in range(1, len(res.times) - 1):
            # centered velocity identity on the interior
            np.testing.assert_allclose(
                v[k, 1:-1], (w[k + 1, 1:-1] - w[k - 1, 1:-1]) / (2 * dt),
                rtol=0, atol=1e-11,
            )
            if boundary == Boundary.DIRICHLET:
                lap = (w[k, 2:] - 2 * w[k, 1:-1] + w[k, :-2]) / h**2
                lhs = (w[k + 1, 1:-1] - 2 * w[k, 1:-1] + w[k - 1, 1:-1]) / dt**2
                rhs = lap - alpha * (w[k + 1, 1:-1] - w[k - 1, 1:-1]) / (2 * dt)
                np.testing.assert_allclose(lhs, rhs, rtol=0, atol=1e-7 / dt)

    def test_gain_profile_grid_mismatch_rejected(self, dirichlet_cfg):
        fam = PowerLawWeights(1.0, 5.0)
        sols = solve_family(dirichlet_cfg, fam, 4)
        prof = assemble_K(sols, dirichlet_cfg, np.linspace(0, 1, 33))
        z1, z2 = band_limited(Boundary.DIRICHLET)
        with pytest.raises(ValueError, match="grid"):
            simulate_fd(dirichlet_cfg, prof, z1, z2, 64, 1.0)


class TestPredictedCost:
    def test_zero_solution(self, dirichlet_cfg):
        sols = solve_family(dirichlet_cfg, ExplicitWeights({}), 2)
        st = ModalState(Boundary.DIRICHLET, (1, 2), np.ones((2, 2)))
        pred = predicted_cost(st, sols)
        assert pred.per_mode == 0.0 and pred.field == 0.0

    @pytest.mark.parametrize("boundary", [Boundary.DIRICHLET, Boundary.NEUMANN])
    def test_field_frame_matches_double_quadrature(self, boundary):
        cfg = WaveConfig(boundary, alpha=0.1, beta=1.0, R=1.0)
        N = 6
        fam = PowerLawWeights(1.0, 4.0)
        sols = solve_family(cfg, fam, N)
        z1, z2 = band_limited(boundary)
        st = project_initial(z1, z2, N, boundary)
        pred = predicted_cost(st, sols)

        npts = 801
        x = np.linspace(0.0, 1.0, npts)
        wq = simpson_weights(npts, x[1] - x[0])
        kf = assemble_P(sols, x, boundary)
        z = np.stack([z1(x) * np.ones_like(x), z2(x) * np.ones_like(x)], axis=1)
        zw = z * wq[:, None]
        total = np.einsum("ia,ijab,jb->", zw, kf.values, zw)
        np.testing.assert_allclose(pred.field, total, rtol=1e-8)

    def test_per_mode_vs_field_weights(self, neumann_cfg):
        sols = modal_table(neumann_cfg, [0, 1], [1.0, 0.5], [0.0, 0.0], [1.0, 0.5])
        a = np.array([[1.0, 0.0], [1.0, 0.0]])
        st = ModalState(Boundary.NEUMANN, (0, 1), a)
        pred = predicted_cost(st, sols)
        q0 = float(a[0] @ sols.matrices[0] @ a[0])
        q1 = float(a[1] @ sols.matrices[1] @ a[1])
        np.testing.assert_allclose(pred.per_mode, q0 + q1)
        np.testing.assert_allclose(pred.field, 1.0 * q0 + 0.25 * q1)


class TestTableInputs:
    def test_missing_mode_equals_zero_row(self):
        """The gain kernel of a table missing a mode is, bit for bit, that of
        the full table with the mode's solution and gains set to zero; the
        simulators and the cost prediction refuse such a table."""
        cfg = WaveConfig(Boundary.NEUMANN, alpha=0.4, beta=1.3, R=0.6)
        table = solve_family(cfg, PowerLawWeights(1.0, 3.0), 6)
        st = project_initial(*band_limited(Boundary.NEUMANN), 6, Boundary.NEUMANN)
        x = np.linspace(0.0, 1.0, 41)
        keep = table.n != 3
        zeroed = replace(table, **{c: np.where(keep, getattr(table, c), 0.0)
                                   for c in ("p11", "p12", "p22", "k1", "k2")})
        sols = table[keep]
        assert np.array_equal(assemble_K(sols, cfg, x).values, assemble_K(zeroed, cfg, x).values)
        with pytest.raises(ValueError, match="modes"):
            simulate_decoupled(cfg, sols, st, 0.5, 0.01)

    @pytest.mark.parametrize("modes", [(1, 2), (1, 2, 3, 4, 5), (2, 1, 3, 4)],
                             ids=["fewer", "more", "reordered"])
    def test_mode_mismatch_raises_everywhere(self, dirichlet_cfg, modes):
        sols = solve_family(dirichlet_cfg, PowerLawWeights(1.0, 5.0), 4)
        st = ModalState(Boundary.DIRICHLET, modes, np.ones((len(modes), 2)))
        with pytest.raises(ValueError, match="modes"):
            simulate_decoupled(dirichlet_cfg, sols, st, 0.5, 0.01)
        with pytest.raises(ValueError, match="modes"):
            simulate_coupled_modal(dirichlet_cfg, sols, st, 0.5, 0.01)
        with pytest.raises(ValueError, match="modes"):
            predicted_cost(st, sols)


class TestEnergies:
    def test_modal_vs_field_energy_consistency(self):
        # field_energy differentiates samples, so agreement is limited by
        # the O(h^2) gradient of the mode-8 content
        z1, z2 = band_limited(Boundary.DIRICHLET)
        st = project_initial(z1, z2, 8, Boundary.DIRICHLET)
        x = np.linspace(0.0, 1.0, 2001)
        f = reconstruct_field(st, x)
        np.testing.assert_allclose(
            modal_energy(st), field_energy(x, f.z1, f.z2), rtol=1e-4
        )

    def test_decay_horizon_marginal_raises(self, dirichlet_cfg):
        sols = solve_family(dirichlet_cfg, ExplicitWeights({}), 2)
        with pytest.raises(ValueError, match="stable"):
            decay_horizon(dirichlet_cfg, sols)
