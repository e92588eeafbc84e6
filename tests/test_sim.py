import tracemalloc
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
    weight_arrays,
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
)
from wavelqr.spectrum import closed_loop_matrices, closed_loop_spectrum, coupled_loop_parts


def no_gains(cfg, N):
    """The zero-weight table of the modes up to N: no mode has feedback."""
    return solve_family(cfg, ExplicitWeights({}), N)


def open_loop(cfg, st, T, dt):
    """simulate_decoupled on the zero-weight table of st's modes: the open-loop
    target trajectory."""
    return simulate_decoupled(cfg, no_gains(cfg, max(st.modes)), st, T, dt)


def open_loop_reference(cfg, st, times):
    """States (len(times), k, 2) of expm(F_n t) a_n per mode, by scipy, with
    F_n = [[0, 1], [-n^2 pi^2, -alpha]] written out here."""
    out = np.empty((len(times), len(st.modes), 2))
    for i, n in enumerate(st.modes):
        F = np.array([[0.0, 1.0], [-((n * np.pi) ** 2), -cfg.alpha]])
        out[:, i] = [expm(F * t) @ st.a[i] for t in times]
    return out


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


def reference_fd(cfg, gain_profile, w0, w1, M, T, cfl=0.9, family=None, N=None):
    """(states, u_record, cost) of simulate_fd by its plain array step loop:
    one fresh array per operation, states stored point-major, and the cost
    projections taken from contiguous copies of each component."""
    h = 1.0 / M
    dt = cfl * h
    nsteps = int(np.ceil(T / dt - 1e-12))
    nsteps += nsteps % 2
    x = np.linspace(0.0, 1.0, M + 1)
    Kx = np.zeros((M + 1, 2)) if gain_profile is None else gain_profile.values
    wq = trapezoid_weights(M + 1, h)
    k1w = wq * Kx[:, 0]
    k2w = wq * Kx[:, 1]
    dirichlet = cfg.boundary == Boundary.DIRICHLET
    beta = cfg.beta

    def lap0(w):
        out = np.empty_like(w)
        out[1:-1] = (w[2:] - 2.0 * w[1:-1] + w[:-2]) / (h * h)
        if dirichlet:
            out[1] = (w[2] - 2.0 * w[1]) / (h * h)
            out[0] = 0.0
            out[-1] = 0.0
        else:
            out[0] = 2.0 * (w[1] - w[0]) / (h * h)
            out[-1] = 2.0 * (w[-2] - w[-1]) / (h * h)
        return out

    lap_u = np.zeros(M + 1)
    if dirichlet:
        lap_u[1] = beta / (h * h)
    else:
        lap_u[-1] = 2.0 * beta / h

    def control(z1, z2):
        return float(k1w @ z1 + k2w @ z2)

    z1 = np.asarray(w0(x), dtype=float) * np.ones_like(x)
    z2 = np.asarray(w1(x), dtype=float) * np.ones_like(x)
    u = control(z1, z2)
    if dirichlet:
        z1[0] = beta * u
        z1[-1] = 0.0

    states = np.empty((nsteps + 1, M + 1, 2))
    u_rec = np.empty(nsteps + 1)
    states[0, :, 0] = z1
    states[0, :, 1] = z2
    u_rec[0] = u

    damp = 1.0 + 0.5 * cfg.alpha * dt
    z2n1 = (0.5 * dt) * lap_u / damp
    denom = 1.0 - float(k2w @ z2n1)
    lap = lap0(z1)
    for k in range(1, nsteps + 1):
        acc = lap + lap_u * u - cfg.alpha * z2
        z1n = z1 + dt * z2 + 0.5 * dt * dt * acc
        if dirichlet:
            z1n[-1] = 0.0
        lap = lap0(z1n)
        z2n0 = (z2 + 0.5 * dt * (acc + lap)) / damp
        u_next = (float(k1w @ z1n) + float(k2w @ z2n0)) / denom
        z2 = z2n0 + u_next * z2n1
        if dirichlet:
            old = z1[0]
            z1n[0] = beta * u_next
            z2[0] = (z1n[0] - old) / dt
            z2[-1] = 0.0
        z1 = z1n
        u = u_next
        states[k, :, 0] = z1
        states[k, :, 1] = z2
        u_rec[k] = u

    if family is not None:
        modes = mode_range(cfg.boundary, N)
        q11, q12, q22 = weight_arrays(family, modes)
        proj = (basis_matrix(cfg.boundary, modes, x) * wq).T
        c1 = np.ascontiguousarray(states[:, :, 0]) @ proj
        c2 = np.ascontiguousarray(states[:, :, 1]) @ proj
        state_cost = (c1 * c1) @ q11 + 2.0 * ((c1 * c2) @ q12) + (c2 * c2) @ q22
    else:
        state_cost = np.zeros(nsteps + 1)
    cost = running_quadrature(state_cost + cfg.R * u_rec**2, dt)
    return states, u_rec, cost


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
        st = project_initial(z1, z2, 8, boundary)
        x = np.linspace(0.0, 1.0, 257)
        f1, f2 = reconstruct_field(st, x)
        np.testing.assert_allclose(f1, z1(x), atol=1e-10)
        np.testing.assert_allclose(f2, z2(x), atol=1e-10)

    def test_neumann_mean_mode_weight(self):
        st = project_initial(lambda x: 1.0 + np.cos(np.pi * x), lambda x: 0.0, 3,
                             Boundary.NEUMANN)
        np.testing.assert_allclose(st.a[0, 0], 1.0, atol=1e-12)
        np.testing.assert_allclose(st.a[1, 0], 1.0, atol=1e-10)


class TestReconstructField:
    def test_zero_state(self):
        st = ModalState(Boundary.DIRICHLET, (1, 2), np.zeros((2, 2)))
        z1, z2 = reconstruct_field(st, np.linspace(0, 1, 11))
        assert np.all(z1 == 0.0) and np.all(z2 == 0.0)

    def test_single_unit_mode(self):
        a = np.zeros((3, 2))
        a[2, 0] = 1.0
        st = ModalState(Boundary.NEUMANN, (0, 1, 2), a)
        x = np.linspace(0, 1, 33)
        z1, _ = reconstruct_field(st, x)
        np.testing.assert_allclose(z1, np.cos(2 * np.pi * x), atol=1e-15)


class TestTargetSolution:
    """The open-loop target trajectory: simulate_decoupled on a zero-weight
    table, with zero controls and zero cost."""

    def test_zero_initial_state(self, dirichlet_cfg):
        st = ModalState(Boundary.DIRICHLET, (1, 2), np.zeros((2, 2)))
        res = open_loop(dirichlet_cfg, st, 1.0, 0.01)
        assert np.all(res.states == 0.0) and np.all(res.cost == 0.0)
        assert np.all(res.u_record == 0.0)

    def test_undamped_energy_constant(self, dirichlet_cfg):
        st = ModalState(Boundary.DIRICHLET, (1,), np.array([[1.0, 0.3]]))
        res = open_loop(dirichlet_cfg, st, 3.0, 0.01)
        assert np.all(res.u_record == 0.0) and np.all(res.cost == 0.0)
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
        res = open_loop(cfg, st, period, period / nsteps)
        assert np.all(res.u_record == 0.0) and np.all(res.cost == 0.0)
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
        ref = open_loop_reference(cfg, st, res.times)
        np.testing.assert_allclose(res.states, ref, atol=1e-12)

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
        T = decay_horizon(cfg, sol)
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
        ref = open_loop_reference(dirichlet_cfg, st, res.times)
        np.testing.assert_allclose(res.states, ref, atol=1e-10)
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
        stT = ModalState(Boundary.DIRICHLET, modes, res.states[-1])
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
        with pytest.raises(SimulationError, match=r"non-finite at step 1 \(t="):
            simulate_fd(dirichlet_cfg, None, z1, lambda x: 0.0, 64, 1.0)

    def test_nan_input_aborts_with_diagnostic_neumann(self, neumann_cfg):
        z1 = lambda x: np.where(x < 0.5, np.nan, 0.0)
        with pytest.raises(SimulationError, match=r"non-finite at step 1 \(t="):
            simulate_fd(neumann_cfg, None, z1, lambda x: 0.0, 64, 1.0)

    @pytest.mark.parametrize("boundary", [Boundary.DIRICHLET, Boundary.NEUMANN])
    @pytest.mark.parametrize("alpha", [0.0, 0.3])
    @pytest.mark.parametrize("feedback", ["open", "gain", "gain+family"])
    def test_bit_identical_to_reference_loop(self, boundary, alpha, feedback):
        """states, u_record and cost equal the plain array step loop to the
        bit, signed zeros included: the initial data hold -0.0 entries, and
        the control changes sign."""
        cfg = WaveConfig(boundary, alpha=alpha, beta=1.0, R=0.8)
        M, N = 96, 8
        f1, f2 = band_limited(boundary)
        z1 = lambda x: np.where(x < 0.6, f1(x), -0.0)
        z2 = lambda x: np.where(x > 0.3, f2(x), -0.0)
        fam = ExplicitWeights({1: ModalWeight(1, 2.0, 0.5, 1.0),
                               2: ModalWeight(2, 1.0, -0.8, 1.0),
                               6: ModalWeight(6, 0.3, 0.1, 0.2)})
        prof = None
        if feedback != "open":
            x = np.linspace(0.0, 1.0, M + 1)
            prof = assemble_K(solve_family(cfg, PowerLawWeights(1.0, 5.0), N), cfg, x)
        kw = dict(family=fam, N=N) if feedback == "gain+family" else {}
        res = simulate_fd(cfg, prof, z1, z2, M, 1.0, cfl=0.9, **kw)
        states, u_rec, cost = reference_fd(cfg, prof, z1, z2, M, 1.0, cfl=0.9, **kw)
        assert np.any(np.signbit(states[0]) & (states[0] == 0.0))
        if prof is not None:
            assert u_rec.min() < 0.0 < u_rec.max()
        assert res.states.shape == states.shape
        for got, ref in ((res.states, states), (res.u_record, u_rec), (res.cost, cost)):
            np.testing.assert_array_equal(np.ascontiguousarray(got).view(np.int64),
                                          ref.view(np.int64))

    def test_traced_peak_is_the_trajectory(self, dirichlet_cfg):
        """At the reference sizes, simulate_fd allocates little beyond its
        trajectory: the cost projections read the states in place."""
        fam = PowerLawWeights(1.0, 5.0)
        N, M = 32, 400
        x = np.linspace(0.0, 1.0, M + 1)
        prof = assemble_K(solve_family(dirichlet_cfg, fam, N), dirichlet_cfg, x)
        z1, z2 = band_limited(Boundary.DIRICHLET)
        tracemalloc.start()
        try:
            res = simulate_fd(dirichlet_cfg, prof, z1, z2, M, 5.0, family=fam, N=N)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * res.states.nbytes

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
        f_fd = reconstruct_field(ModalState(boundary, st0.modes, a_fd), x)
        f_m = reconstruct_field(ModalState(boundary, st0.modes, rm.states[-1]), x)
        for got, ref in zip(f_fd, f_m):
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
        zm, _ = reconstruct_field(ModalState(Boundary.DIRICHLET, st0.modes, rm.states[-1]), x)
        err = np.sqrt(np.trapezoid((rf.states[-1][:, 0] - zm) ** 2, x))
        err /= np.sqrt(np.trapezoid(zm**2, x))
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
        ref = running_quadrature(state_cost + cfg.R * res.u_record**2, res.times[1])
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
        dt = res.times[1]
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

    def test_family_without_mode_count_rejected(self, dirichlet_cfg):
        z1, z2 = band_limited(Boundary.DIRICHLET)
        with pytest.raises(ValueError, match="mode count N"):
            simulate_fd(dirichlet_cfg, None, z1, z2, 64, 1.0, family=PowerLawWeights(1.0, 5.0))


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
        np.testing.assert_allclose(
            modal_energy(st), field_energy(x, *reconstruct_field(st, x)), rtol=1e-4
        )

    def test_decay_horizon_marginal_raises(self, dirichlet_cfg):
        sols = solve_family(dirichlet_cfg, ExplicitWeights({}), 2)
        with pytest.raises(ValueError, match="stable"):
            decay_horizon(dirichlet_cfg, sols)
