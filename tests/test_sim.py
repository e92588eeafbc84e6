import importlib.util
import json
import re
import tracemalloc
import warnings
from contextlib import contextmanager
from dataclasses import replace
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import expm

from conftest import one_mode, sweep_configs
from wavelqr.kernels import GainProfile, assemble_K, assemble_P, assemble_Q, basis_matrix
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
from wavelqr import cli, sim
from wavelqr.cli import parse_config
from wavelqr.riccati import modal_table, solve_family
from wavelqr.sim import (
    FD_BLOCK,
    MAX_SLAB,
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
from wavelqr.spectrum import (
    closed_loop_matrices,
    closed_loop_spectrum,
    coupled_loop_parts,
    coupled_spectrum,
)

ROOT = Path(__file__).resolve().parent.parent


def no_gains(cfg, N):
    """The zero-weight table of the modes up to N: no mode has feedback."""
    return solve_family(cfg, ExplicitWeights({}), N)


def open_loop(cfg, st, T, dt):
    """simulate_decoupled on the zero-weight table of st's modes: the open-loop
    target trajectory."""
    return simulate_decoupled(no_gains(cfg, max(st.modes)), st, T, dt)


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


def fd_cost(cfg, family, N, x, u_rec, dt, projections):
    """The running cost of an FD trajectory whose position and velocity
    projections are projections(proj), or its R u^2 part alone without a
    family."""
    state_cost = np.zeros(len(u_rec))
    if family is not None:
        modes = mode_range(cfg.boundary, N)
        q11, q12, q22 = weight_arrays(family, modes)
        proj = (basis_matrix(cfg.boundary, modes, x) * trapezoid_weights(len(x), x[1] - x[0])).T
        c1, c2 = projections(proj)
        state_cost = (c1 * c1) @ q11 + 2.0 * ((c1 * c2) @ q12) + (c2 * c2) @ q22
    return running_quadrature(state_cost + cfg.R * u_rec**2, dt)


def reference_fd(cfg, gain_profile, w0, w1, M, T, cfl=0.9, family=None, N=None):
    """(states, u_record, cost) of simulate_fd by its plain array step loop in
    summed form: one fresh array per operation, the increment d carried,
    the positions of steps 0 to nsteps + 1 and the velocities stored
    apart, and the cost projections of all positions taken at once."""
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
    alpha = cfg.alpha

    def diff2(w):
        """h^2 Lap w less the control."""
        out = np.zeros_like(w)
        out[1:-1] = np.diff(w, 2)
        if dirichlet:
            out[1] = (w[2] - w[1]) - w[1]
        else:
            out[0] = 2.0 * (w[1] - w[0])
            out[-1] = 2.0 * (w[-2] - w[-1])
        return out

    ia = 1 if dirichlet else M
    r = dt * dt / (h * h)
    bu = dt * dt * (beta / (h * h) if dirichlet else 2.0 * beta / h)
    damp = 1.0 + 0.5 * alpha * dt
    a = (1.0 - 0.5 * alpha * dt) / damp
    b = r / damp
    e = bu / damp
    denom = 1.0 - float(k2w[ia]) * e / (2.0 * dt)

    z1 = np.asarray(w0(x), dtype=float) * np.ones_like(x)
    z2 = np.asarray(w1(x), dtype=float) * np.ones_like(x)
    u = float(k1w @ z1 + k2w @ z2)
    if dirichlet:
        z1[0] = beta * u
        z1[-1] = 0.0

    W = np.empty((nsteps + 2, M + 1))
    V = np.empty((nsteps + 1, M + 1))
    u_rec = np.empty(nsteps + 1)
    W[0] = z1
    V[0] = z2
    u_rec[0] = u
    d = dt * z2 + 0.5 * (r * diff2(z1) - (alpha * dt * dt) * z2)
    d[ia] += 0.5 * bu * u
    if dirichlet:
        d[-1] = 0.0
    p = float(k2w @ d)
    for k in range(1, nsteps + 1):
        W[k] = W[k - 1] + d
        d0 = a * d + b * diff2(W[k])
        q = float(k2w @ d0)
        u = (float(k1w @ W[k]) + (q + p) / (2.0 * dt)) / denom
        dn = d0.copy()
        dn[ia] += e * u
        p = q + float(k2w[ia]) * (e * u)  # k2w @ dn, regrouped
        V[k] = (dn + d) / (2.0 * dt)
        if dirichlet:
            W[k, 0] = beta * u
            V[k, 0] = (W[k, 0] - W[k - 1, 0]) / dt
        if not np.all(np.isfinite(W[k])):
            raise SimulationError(f"finite-difference solution became non-finite at step {k} ")
        u_rec[k] = u
        d = dn
    W[-1] = W[-2] + d

    def projections(proj):
        c = W @ proj
        c2 = np.empty_like(c[:-1])
        c2[0] = V[0] @ proj
        c2[1:] = (c[2:] - c[:-2]) / (2.0 * dt)
        return c[:-1], c2

    states = np.stack([W[:-1], V], axis=2)
    return states, u_rec, fd_cost(cfg, family, N, x, u_rec, dt, projections)


def reference_fd_kdk(cfg, gain_profile, w0, w1, M, T, cfl=0.9, family=None, N=None):
    """(states, u_record, cost) of the kick-drift-kick leapfrog that
    simulate_fd stepped before the summed form, by its plain array step
    loop: the velocity carried and kicked twice per step, states stored
    point-major, and the cost projections taken from contiguous copies of
    each component."""
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

    def projections(proj):
        return (np.ascontiguousarray(states[:, :, 0]) @ proj,
                np.ascontiguousarray(states[:, :, 1]) @ proj)

    return states, u_rec, fd_cost(cfg, family, N, x, u_rec, dt, projections)


def modal_steps(T, dt):
    n = int(np.ceil(T / dt - 1e-12))
    return n + n % 2


def reference_decoupled(cfg, sols, state0, T, dt):
    """(states, u_record, cost) of simulate_decoupled by its whole-trajectory
    loop: one einsum step per row, then the per-mode controls and the cost
    integrand of all rows at once; u_record sums the per-mode controls of
    each step."""
    nsteps = modal_steps(T, dt)
    gains = np.stack([sols.k1, sols.k2], axis=1)
    qblocks = np.stack([sols.q11, sols.q12, sols.q12, sols.q22], axis=1).reshape(-1, 2, 2)
    props = expm_2x2(closed_loop_matrices(sols) * dt)
    a = np.empty((nsteps + 1, len(state0.modes), 2))
    a[0] = state0.a
    for k in range(nsteps):
        a[k + 1] = np.einsum("nij,nj->ni", props, a[k])
    u = np.einsum("nj,tnj->tn", gains, a)
    integrand = np.einsum("tni,nij,tnj->t", a, qblocks, a) + cfg.R * np.sum(u**2, axis=1)
    return a, u.sum(axis=1), running_quadrature(integrand, dt)


def reference_coupled(cfg, sols, state0, T, dt):
    """(states, u_record, cost) of simulate_coupled_modal by its
    whole-trajectory loop: the propagator of the plain expression
    (A + B Krow) dt, one matrix-vector step per row, then the controls and
    the cost integrand of all rows at once."""
    nsteps = modal_steps(T, dt)
    modes = sols.n
    A, B, Krow = coupled_loop_parts(sols)
    prop = expm_pade((A + B @ Krow) * dt)
    s = np.empty((nsteps + 1, 2 * len(modes)))
    s[0] = state0.a.reshape(-1)
    for k in range(nsteps):
        s[k + 1] = prop @ s[k]
    a = s.reshape(nsteps + 1, len(modes), 2)
    u = s @ Krow[0]
    pw2 = projection_weight(cfg.boundary, modes) ** 2
    qblocks = np.stack([sols.q11, sols.q12, sols.q12, sols.q22], axis=1).reshape(-1, 2, 2)
    integrand = np.einsum("tni,nij,tnj->t", a, qblocks * pw2[:, None, None], a) + cfg.R * u**2
    return a, u, running_quadrature(integrand, dt)


@contextmanager
def dense_coupled():
    """simulate_coupled_modal on its dense path, as where the closed loop's
    eigenstructure cannot be verified."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sim, "coupled_modes", lambda sols, a0: None)
        yield


def bits(x):
    return np.ascontiguousarray(x).view(np.int64)


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
    A, B, Krow = coupled_loop_parts(sols)
    return closed_loop_matrices(sols), A + B @ Krow


def deviation(got, ref):
    """Largest entry of |got - ref| over the largest entry of |ref|, per matrix."""
    return (np.abs(got - ref).max(axis=(-2, -1)) / np.abs(ref).max(axis=(-2, -1))).max()


def pade_path(A):
    """(degree, squarings) that expm_pade(A) takes, read off its helpers."""
    top = np.abs(A).max()
    pade, extra = sim._pade_coefficients, sim._extra_squarings
    path = {}

    def coefficients(m):
        path["degree"] = m
        return pade(m)

    def extra_squarings(absA, m):
        # absA is |A| / 2^s exactly; the last call is the one taken
        ell = extra(absA, m)
        path["squarings"] = round(np.log2(top / absA.max())) + ell
        return ell

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sim, "_pade_coefficients", coefficients)
        mp.setattr(sim, "_extra_squarings", extra_squarings)
        expm_pade(A)
    return path["degree"], path["squarings"]


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

    @pytest.mark.parametrize("boundary", [Boundary.DIRICHLET, Boundary.NEUMANN])
    @pytest.mark.parametrize("N", [330, 400, 512])
    def test_match_scipy_at_scaled_sizes(self, boundary, N):
        # about where the unscaled degrees run out at the simulation step
        _, coupled = closed_loops(boundary, (0.0, 1.0, 1.0, 1.0, 5.0), N)
        dt = 0.002
        assert deviation(expm_pade(coupled * dt), expm(coupled * dt)) <= 1e-14

    @pytest.mark.parametrize("dt, scaled", [(0.002, False), (0.05, True)])
    def test_traced_growth_at_most_eight_matrices(self, dt, scaled):
        """On the (416, 416) fine-grid loop, expm_pade allocates at most eight
        matrices of its size, at degree 9 on A and on A / 2^s with squarings."""
        _, coupled = closed_loops(Boundary.DIRICHLET, (0.0, 1.0, 1.0, 1.0, 5.0), 208)
        A = coupled * dt
        tracemalloc.start()
        try:
            degree, squarings = pade_path(A)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert degree == 9
        assert (squarings > 0) is scaled
        assert peak <= 8 * A.nbytes

    def test_simulation_loops_take_unscaled_degree(self):
        """The coupled loops that simulate builds for the benchmark workloads,
        and for the example config at N <= 256, fit a degree unscaled: their
        propagators come from the degree loop of expm_pade, never from its
        scaled degree 9."""
        spec = importlib.util.spec_from_file_location("workloads", ROOT / "perfbench" / "workloads.py")
        workloads = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(workloads)
        docs = [workloads.command_config(w, "simulate", seed=0, tiny=tiny)
                for w in workloads.WORKLOADS.values() for tiny in (False, True)]
        example = json.loads((ROOT / "demos" / "config_example.json").read_text())
        docs += [dict(example, boundary=b, N=N)
                 for b in ("dirichlet", "neumann") for N in (8, 64, 128, 256)]
        for doc in docs:
            rc = parse_config(doc)
            A, B, Krow = coupled_loop_parts(solve_family(rc.wave, rc.family, rc.N))
            _, squarings = pade_path((A + B @ Krow) * rc.sim.dt)
            assert squarings == 0, (doc["boundary"], doc["N"])

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
        res = simulate_decoupled(sols, st, 2.0, 0.01)
        assert np.all(res.cost == 0.0)
        ref = open_loop_reference(cfg, st, res.times)
        np.testing.assert_allclose(res.states, ref, atol=1e-12)

    def test_exact_propagation(self, dirichlet_cfg):
        fam = ExplicitWeights({2: ModalWeight(2, 1.0, 0.0, 1.0)})
        sols = solve_family(dirichlet_cfg, fam, 2)
        a0 = np.array([[0.5, -0.2], [1.0, 0.4]])
        st = ModalState(Boundary.DIRICHLET, (1, 2), a0)
        dt = 0.01
        res = simulate_decoupled(sols, st, 1.0, dt)
        k = 37
        A = closed_loop_matrices(sols)
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
        T = decay_horizon(sol)
        mu = closed_loop_spectrum(sol)
        mu_mag = max(abs(mu[0, 0]), 1.0)
        dt = min(2 * np.pi / mu_mag / 40.0, T / 50.0)
        res = simulate_decoupled(sol, st, T, dt)
        pred = predicted_cost(st, sol).per_mode
        assert abs(res.total_cost - pred) <= 1e-3 * pred

    def test_dt_validation(self, dirichlet_cfg):
        fam = ExplicitWeights({})
        sols = solve_family(dirichlet_cfg, fam, 1)
        st = ModalState(Boundary.DIRICHLET, (1,), np.ones((1, 2)))
        with pytest.raises(ValueError):
            simulate_decoupled(sols, st, 1.0, 0.0)


class TestSimulateCoupled:
    def test_zero_gains_match_open_loop(self, dirichlet_cfg):
        st = ModalState(Boundary.DIRICHLET, (1, 2, 3, 4), np.ones((4, 2)))
        res = simulate_coupled_modal(no_gains(dirichlet_cfg, 4), st, 2.0, 0.01)
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
        res_c = simulate_coupled_modal(sols, st, 2.0, 0.005)
        st1 = ModalState(boundary, (k,), a0[i : i + 1])
        res_d = simulate_decoupled(sols[sols.n == k], st1, 2.0, 0.005)
        np.testing.assert_allclose(res_c.states[:, i], res_d.states[:, 0], atol=1e-10)

    def test_driven_modes_respond(self, dirichlet_cfg):
        # modes with zero gain still feel the shared control through their
        # true input vectors
        sols = solve_family(dirichlet_cfg, ExplicitWeights({1: ModalWeight(1, 1.0, 0.0, 1.0)}), 3)
        modes = (1, 2, 3)
        a0 = np.zeros((3, 2))
        a0[0] = [1.0, 0.0]
        st = ModalState(Boundary.DIRICHLET, modes, a0)
        res = simulate_coupled_modal(sols, st, 1.0, 0.005)
        assert np.abs(res.states[-1, 1:]).max() > 1e-4

    def test_terminal_energy_regression(self, dirichlet_cfg):
        fam = PowerLawWeights(1.0, 5.0)
        sols = solve_family(dirichlet_cfg, fam, 8)
        modes = tuple(range(1, 9))
        a0 = np.zeros((8, 2))
        for i in range(8):
            a0[i] = [1.0 / (i + 1) ** 2, 0.5 / (i + 1) ** 2]
        st = ModalState(Boundary.DIRICHLET, modes, a0)
        res = simulate_coupled_modal(sols, st, 10.0, 0.002)
        stT = ModalState(Boundary.DIRICHLET, modes, res.states[-1])
        ratio = modal_energy(stT) / modal_energy(st)
        assert ratio < 1.0
        np.testing.assert_allclose(ratio, 0.08132684984988023, rtol=1e-6)

    @pytest.mark.parametrize("boundary, alpha, beta, R, q, r, N", [
        # Newton from the per-mode loops finds some roots twice
        (Boundary.DIRICHLET, 0.0, 1.0, 1.0, 1.0, 2.5, 208),
        # the same, on a coupled loop that is unstable
        (Boundary.DIRICHLET, 0.0, 2.0, 0.5, 10.0, 2.5, 64),
        # zero-weight rows have no gain
        (Boundary.DIRICHLET, 0.0, 1.0, 1.0, None, None, 4),
        (Boundary.NEUMANN, 0.3, 1.0, 1.0, None, None, 4),
        (Boundary.NEUMANN, 0.3, 1.0, 1.0, 2, None, 4),
    ])
    def test_unverified_roots_take_the_dense_path(self, boundary, alpha, beta, R, q, r, N):
        """Where the closed loop's eigenstructure is not verified, the run is
        the dense path's to the bit, and no floating-point warning escapes."""
        cfg = WaveConfig(boundary, alpha=alpha, beta=beta, R=R)
        if r is not None:
            sols = solve_family(cfg, PowerLawWeights(q, r), N)
        else:  # no weights, or the single weight of mode q
            sols = solve_family(cfg, ExplicitWeights({} if q is None else {q: ModalWeight(q, 1.0, 0.0, 1.0)}), N)
        inv_sq = 1.0 / np.arange(1, len(sols) + 1) ** 2
        st = ModalState(boundary, tuple(sols.n.tolist()), np.stack([inv_sq, -0.5 * inv_sq], axis=1))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert sim.coupled_modes(sols, st.a) is None
            res = simulate_coupled_modal(sols, st, 0.5, 0.002, stride=3)
        with dense_coupled():
            ref = simulate_coupled_modal(sols, st, 0.5, 0.002, stride=3)
        for got, want in ((res.states, ref.states), (res.u_record, ref.u_record), (res.cost, ref.cost)):
            np.testing.assert_array_equal(bits(got), bits(want))
        if (beta, q) == (2.0, 10.0):
            np.testing.assert_allclose(coupled_spectrum(sols)[1], 0.0089, atol=5e-5)

    def test_workload_configs_take_the_eigenbasis(self):
        """The simulate configs of the benchmark workloads and the example
        config verify their eigenstructure; their states stay within 1e-11
        of the dense path's, relative to the largest state, and their cost
        within 1e-12 (measured worst cases 4.9e-12 and 1.2e-13, fine-grid)."""
        spec = importlib.util.spec_from_file_location("workloads", ROOT / "perfbench" / "workloads.py")
        workloads = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(workloads)
        docs = [workloads.command_config(w, "simulate", seed=0) for w in workloads.WORKLOADS.values()]
        docs.append(json.loads((ROOT / "demos" / "config_example.json").read_text()))
        for doc in docs:
            rc = parse_config(doc)
            sols = solve_family(rc.wave, rc.family, rc.N)
            st = cli._initial_state(rc, sols)
            assert sim.coupled_modes(sols, st.a) is not None, doc["N"]
            res = simulate_coupled_modal(sols, st, rc.sim.T, rc.sim.dt, stride=rc.sim.csv_stride)
            with dense_coupled():
                ref = simulate_coupled_modal(sols, st, rc.sim.T, rc.sim.dt, stride=rc.sim.csv_stride)
            assert np.abs(res.states - ref.states).max() <= 1e-11 * np.abs(ref.states).max()
            assert abs(res.total_cost - ref.total_cost) <= 1e-12 * ref.total_cost

    def test_mode_mismatch_rejected(self, dirichlet_cfg):
        st = ModalState(Boundary.DIRICHLET, (1, 2), np.zeros((2, 2)))
        with pytest.raises(ValueError, match="modes"):
            simulate_coupled_modal(no_gains(dirichlet_cfg, 4), st, 1.0, 0.01)


class TestModalStride:
    """simulate_decoupled and simulate_coupled_modal step in blocks and keep
    every stride-th row, as simulate_fd does."""

    DT = 0.002

    @staticmethod
    def table(boundary, alpha, modes=24):
        """(cfg, sols, state0) of the runs: the initial data hold a -0.0
        pair and a 0.0 pair."""
        cfg = WaveConfig(boundary, alpha=alpha, beta=1.0, R=0.8)
        sols = solve_family(cfg, PowerLawWeights(1.0, 5.0), modes)
        inv_sq = 1.0 / np.arange(1, len(sols) + 1) ** 2
        a = np.stack([inv_sq, -0.5 * inv_sq], axis=1)
        a[3] = -0.0
        a[5] = 0.0
        return cfg, sols, ModalState(boundary, tuple(sols.n.tolist()), a)

    @staticmethod
    @lru_cache(maxsize=None)
    def stepped(simulator, boundary, alpha, nsteps, stride, modes=24):
        """A run of exactly nsteps steps (an even count) on the table of the
        given mode count, with the given stride, or (states, u_record, cost)
        of its reference loop for stride 0.  simulator "coupled" is
        simulate_coupled_modal as it runs, which steps these tables in the
        eigenbasis of the closed loop; "dense" is simulate_coupled_modal on
        its dense fallback, the path that reference_coupled mirrors."""
        cfg, sols, st = TestModalStride.table(boundary, alpha, modes)
        T = (nsteps - 0.5) * TestModalStride.DT
        if stride == 0:
            ref = reference_decoupled if simulator == "decoupled" else reference_coupled
            return ref(cfg, sols, st, T, TestModalStride.DT)
        if simulator == "dense":
            with dense_coupled():
                return simulate_coupled_modal(sols, st, T, TestModalStride.DT, stride=stride)
        run = simulate_decoupled if simulator == "decoupled" else simulate_coupled_modal
        return run(sols, st, T, TestModalStride.DT, stride=stride)

    @staticmethod
    def kept_steps(nsteps, stride):
        kept = list(range(0, nsteps + 1, stride))
        return kept if kept[-1] == nsteps else kept + [nsteps]

    #: the largest deviation from the reference loop allowed, over the largest
    #: magnitude of the reference array; measured worst cases over these
    #: parameters: coupled u_record 2.5e-13, states 1.4e-13, cost 6.2e-14;
    #: decoupled 2.3e-14, 2.0e-14 and 1.7e-14
    TOL = 1e-12

    @pytest.mark.parametrize("simulator", ["decoupled", "dense"])
    @pytest.mark.parametrize("boundary", [Boundary.DIRICHLET, Boundary.NEUMANN])
    @pytest.mark.parametrize("alpha", [0.0, 0.3])
    # rows = nsteps + 1, every one stepped in slabs of B = MAX_SLAB rows:
    # B - 1 rows (no slab), B + 1 rows (one slab of one row) and 2 B + 1
    # rows (one slab and one row) on 6 modes; rows = B cannot occur, as the
    # step count is even.  On 24 modes: one short block, the largest single
    # block (2 FD_BLOCK - 1 rows), the first two-block trajectory and four
    # blocks.
    @pytest.mark.parametrize("modes, nsteps", [
        (6, MAX_SLAB - 2), (6, MAX_SLAB), (6, 2 * MAX_SLAB),
        (24, 100), (24, 2 * FD_BLOCK - 2), (24, 2 * FD_BLOCK), (24, 4 * FD_BLOCK + 60),
    ])
    @pytest.mark.parametrize("stride", [1, 2, 7, 10, 10**6])
    def test_streamed_run_matches_whole_trajectory_loop(self, simulator, boundary, alpha,
                                                        modes, nsteps, stride):
        """The kept rows are steps 0, stride, 2 stride, ... and the last step.
        They, u_record and cost equal the stride-1 run's to the bit, and the
        whole-trajectory loop's within TOL: the slabs step rows from rows B
        steps back through the B-th power of the propagator, which rounds
        otherwise than B one-row steps.  Where the loop holds a zero, the
        run holds the same zero, sign included.  times equals the loop's to
        the bit."""
        d = 2 if simulator == "decoupled" else 2 * modes
        assert sim._slab_rows(d, nsteps + 1) == MAX_SLAB
        res = self.stepped(simulator, boundary, alpha, nsteps, stride, modes)
        one = self.stepped(simulator, boundary, alpha, nsteps, 1, modes)
        states, u_rec, cost = self.stepped(simulator, boundary, alpha, nsteps, 0, modes)
        kept = self.kept_steps(nsteps, stride)
        assert res.states.shape == (len(kept), *states.shape[1:])
        assert res.u_record.shape == u_rec.shape == (nsteps + 1,)
        assert np.any(np.signbit(res.states[0]) & (res.states[0] == 0.0))
        np.testing.assert_array_equal(bits(res.times), bits(self.DT * np.arange(nsteps + 1)))
        zero = states[kept] == 0.0
        np.testing.assert_array_equal(bits(res.states[zero]), bits(states[kept][zero]))
        for got, want, loop in ((res.states, one.states[kept], states[kept]),
                                (res.u_record, one.u_record, u_rec), (res.cost, one.cost, cost)):
            np.testing.assert_array_equal(bits(got), bits(want))
            assert np.abs(got - loop).max() <= self.TOL * np.abs(loop).max()

    @pytest.mark.parametrize("boundary", [Boundary.DIRICHLET, Boundary.NEUMANN])
    @pytest.mark.parametrize("alpha", [0.0, 0.3])
    @pytest.mark.parametrize("modes, nsteps", [
        (6, MAX_SLAB - 2), (6, MAX_SLAB), (6, 2 * MAX_SLAB),
        (24, 100), (24, 2 * FD_BLOCK - 2), (24, 2 * FD_BLOCK), (24, 4 * FD_BLOCK + 60),
    ])
    @pytest.mark.parametrize("stride", [1, 2, 7, 10, 10**6])
    def test_eigen_run_strided_rows_match_stride_one(self, boundary, alpha, modes, nsteps, stride):
        """The run in the closed loop's eigenbasis keeps steps 0, stride,
        2 stride, ... and the last step, each equal to the bit to that row
        of the stride-1 run, as are u_record, cost and times.  states[0] is
        state0.a to the bit, signed zeros included, and the last state
        equals scipy's expm(k dt A_cl) a0 within the bound of
        test_slab_rows_match_matrix_exponential."""
        _, sols, st = self.table(boundary, alpha, modes)
        assert sim.coupled_modes(sols, st.a) is not None
        res = self.stepped("coupled", boundary, alpha, nsteps, stride, modes)
        one = self.stepped("coupled", boundary, alpha, nsteps, 1, modes)
        kept = self.kept_steps(nsteps, stride)
        assert res.states.shape == (len(kept), *st.a.shape)
        np.testing.assert_array_equal(bits(res.states[0]), bits(st.a))
        assert np.any(np.signbit(res.states[0]) & (res.states[0] == 0.0))
        for got, want in ((res.states, one.states[kept]), (res.u_record, one.u_record),
                          (res.cost, one.cost), (res.times, one.times)):
            np.testing.assert_array_equal(bits(got), bits(want))
        A, B, Krow = coupled_loop_parts(sols)
        want = expm(nsteps * self.DT * (A + B @ Krow)) @ st.a.reshape(-1)
        assert np.abs(res.states[-1].reshape(-1) - want).max() <= 1e-14 * nsteps * np.abs(want).max()

    @pytest.mark.parametrize("simulator", ["decoupled", "dense", "coupled"])
    @pytest.mark.parametrize("boundary", [Boundary.DIRICHLET, Boundary.NEUMANN])
    @pytest.mark.parametrize("alpha", [0.0, 0.3])
    def test_slab_rows_match_matrix_exponential(self, simulator, boundary, alpha):
        """The states at steps 1, B - 1, B, B + 1, 2 B + 3 and the last one of a
        two-block run equal scipy's expm(k dt A_cl) a0, A_cl the closed loop
        of every mode (decoupled) or the coupled loop, within 1e-14 k of the
        largest state magnitude at step k: the propagators agree with
        scipy's to a few ulps, and that rounding accumulates over the k
        steps (measured worst case 1.6e-15 k).  The coupled run in the
        eigenbasis has no accumulation: c e^(mu t) is an exact exp at each
        block start, and its largest error is 5.6e-16 k, at k = 1."""
        nsteps = 2 * FD_BLOCK
        res = self.stepped(simulator, boundary, alpha, nsteps, 1)
        _, sols, st = self.table(boundary, alpha)
        if simulator == "coupled":
            assert sim.coupled_modes(sols, st.a) is not None
        if simulator == "decoupled":
            loops = closed_loop_matrices(sols)
        else:
            A, B, Krow = coupled_loop_parts(sols)
            loops = [A + B @ Krow]
        a0 = res.states[0].reshape(len(loops), -1)
        for k in (1, MAX_SLAB - 1, MAX_SLAB, MAX_SLAB + 1, 2 * MAX_SLAB + 3, nsteps):
            want = np.concatenate([expm(k * self.DT * L) @ a for L, a in zip(loops, a0)])
            got = res.states[k].reshape(-1)
            assert np.abs(got - want).max() <= 1e-14 * k * np.abs(want).max(), k

    def test_slab_rule(self):
        """B is a power of two in [1, MAX_SLAB] that does not grow with the
        propagator size d.  The fine-grid coupled loop (d = 416, 2501 rows)
        and every per-mode run (d = 2) take MAX_SLAB, the example config at
        N = 2048 (d = 4096) takes MAX_SLAB / 2, and a short run at N = 1024
        (d = 2048, 401 rows), where slabs were measured slower, steps one
        row at a time."""
        for nrows in (3, 15, 17, 401, 2501, 10001):
            slabs = [sim._slab_rows(d, nrows) for d in (2, 4, 48, 416, 1024, 2048, 4096, 10**6)]
            assert all(1 <= B <= MAX_SLAB and B & (B - 1) == 0 for B in slabs)
            assert slabs == sorted(slabs, reverse=True)
            assert slabs[0] == MAX_SLAB and slabs[-1] == 1
        assert sim._slab_rows(416, 2501) == MAX_SLAB
        assert sim._slab_rows(4096, 2501) == MAX_SLAB // 2
        assert sim._slab_rows(2048, 401) == 1
        assert 2 * MAX_SLAB <= FD_BLOCK

    @pytest.mark.parametrize("simulator", ["decoupled", "coupled"])
    def test_strided_traced_peak_is_kept_rows_and_one_block(self, dirichlet_cfg, simulator):
        """With stride 10, a modal run holds the kept rows, one block of at
        most 2 FD_BLOCK - 1 rows, its per-step records and its propagator."""
        sols = solve_family(dirichlet_cfg, PowerLawWeights(1.0, 5.0), 32)
        inv_sq = 1.0 / np.arange(1, 33) ** 2
        st = ModalState(Boundary.DIRICHLET, tuple(range(1, 33)), np.stack([inv_sq, 0.5 * inv_sq], 1))
        run = simulate_decoupled if simulator == "decoupled" else simulate_coupled_modal
        tracemalloc.start()
        try:
            res = run(sols, st, 20.0, 0.002, stride=10)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        rows = len(res.times)
        row_nbytes = res.states[0].nbytes
        # per step: u_record, and the cost integrand, times and cost
        per_step = res.u_record.nbytes + 3 * rows * 8
        d = 2 * len(sols)
        prop = (d * d if simulator == "coupled" else 4 * len(sols)) * 8
        assert res.states.shape[0] == rows // 10 + 1
        assert peak <= 1.1 * (res.states.nbytes + (2 * FD_BLOCK - 1) * row_nbytes + per_step) + prop
        assert peak <= 0.25 * rows * row_nbytes + res.u_record.nbytes


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

    def test_non_finite_last_control_aborts_neumann(self, neumann_cfg):
        """A Neumann control reaches z1 one step late, through the ghost point,
        so the last control is checked on its own: here it overflows at step
        2 of 2, while every z1 stays finite."""
        M = 64
        x = np.linspace(0.0, 1.0, M + 1)
        prof = GainProfile(x, np.stack([np.full(M + 1, 1e150), np.zeros(M + 1)], axis=1))
        with np.errstate(over="ignore"), pytest.raises(
            SimulationError, match=r"control became non-finite at step 2 \(t="
        ):
            simulate_fd(neumann_cfg, prof, lambda x: np.cos(np.pi * x), lambda x: 0.0 * x,
                        M, 2 * 0.9 / M)

    @staticmethod
    def signed_zero_run(boundary, alpha, feedback):
        """(cfg, profile, z1, z2, M, family keywords) of an M = 96 run whose
        initial data hold -0.0 entries and whose control changes sign."""
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
            prof = assemble_K(solve_family(cfg, PowerLawWeights(1.0, 5.0), N), x)
        kw = dict(family=fam, N=N) if feedback == "gain+family" else {}
        return cfg, prof, z1, z2, M, kw

    @pytest.mark.parametrize("boundary", [Boundary.DIRICHLET, Boundary.NEUMANN])
    @pytest.mark.parametrize("alpha", [0.0, 0.3])
    @pytest.mark.parametrize("feedback", ["open", "gain", "gain+family"])
    def test_bit_identical_to_reference_loop(self, boundary, alpha, feedback):
        """states, u_record and cost equal the plain array step loop to the
        bit, signed zeros included: the initial data hold -0.0 entries, and
        the control changes sign."""
        cfg, prof, z1, z2, M, kw = self.signed_zero_run(boundary, alpha, feedback)
        res = simulate_fd(cfg, prof, z1, z2, M, 1.0, cfl=0.9, **kw)
        states, u_rec, cost = reference_fd(cfg, prof, z1, z2, M, 1.0, cfl=0.9, **kw)
        assert np.any(np.signbit(states[0]) & (states[0] == 0.0))
        if prof is not None:
            assert u_rec.min() < 0.0 < u_rec.max()
        assert res.states.shape == states.shape
        for got, ref in ((res.states, states), (res.u_record, u_rec), (res.cost, cost)):
            np.testing.assert_array_equal(np.ascontiguousarray(got).view(np.int64),
                                          ref.view(np.int64))

    @pytest.mark.parametrize("boundary", [Boundary.DIRICHLET, Boundary.NEUMANN])
    @pytest.mark.parametrize("alpha", [0.0, 0.3])
    @pytest.mark.parametrize("feedback", ["open", "gain", "gain+family"])
    def test_matches_kick_drift_kick_loop(self, boundary, alpha, feedback):
        """The summed form is the same leapfrog as the kick-drift-kick loop
        it replaced, which carried the velocity: over 1068 steps (five
        blocks) the two agree to rounding, relative to the largest
        magnitude of each kick-drift-kick array.  Measured worst cases over
        these parameters: z1 2.8e-14, u 3.5e-15, cost 4.3e-15, z2 5.0e-14."""
        cfg, prof, z1, z2, M, kw = self.signed_zero_run(boundary, alpha, feedback)
        res = simulate_fd(cfg, prof, z1, z2, M, 10.0, cfl=0.9, **kw)
        states, u_rec, cost = reference_fd_kdk(cfg, prof, z1, z2, M, 10.0, cfl=0.9, **kw)
        assert res.states.shape == states.shape
        for got, ref, tol in ((res.states[..., 0], states[..., 0], 1e-12),
                              (res.u_record, u_rec, 1e-12), (res.cost, cost, 1e-12),
                              (res.states[..., 1], states[..., 1], 1e-11)):
            assert np.abs(got - ref).max() <= tol * np.abs(ref).max()

    @pytest.mark.parametrize("boundary, gains", [(Boundary.DIRICHLET, (0.0, 1.9)),
                                                 (Boundary.NEUMANN, (2e4, 0.0))])
    def test_mid_block_blow_up_stops_at_the_reference_step(self, boundary, gains):
        """Under a destabilizing gain z1 overflows in the middle of the
        second block.  The run stops at the step where the step-by-step
        check of the reference loop does, with the message it always gave,
        and the steps that ran on in that block raise no RuntimeWarning."""
        cfg = WaveConfig(boundary, alpha=0.3, beta=1.0, R=0.8)
        M, cfl = 64, 0.9
        x = np.linspace(0.0, 1.0, M + 1)
        prof = GainProfile(x, np.tile(gains, (M + 1, 1)))
        args = (cfg, prof, *band_limited(boundary), M, (1200 - 0.5) * cfl / M, cfl)
        with np.errstate(all="ignore"), pytest.raises(SimulationError) as ref:
            reference_fd(*args)
        step = int(re.search(r"at step (\d+) ", str(ref.value)).group(1))
        assert FD_BLOCK + 16 < step < 2 * FD_BLOCK - 16
        message = (f"finite-difference solution became non-finite at step {step} "
                   f"(t={step * (cfl * (1.0 / M)):.6g}); M={M}, cfl={cfl}")
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(SimulationError, match=f"^{re.escape(message)}$"):
                simulate_fd(*args)

    def test_traced_peak_is_the_trajectory(self, dirichlet_cfg):
        """At the reference sizes, simulate_fd allocates little beyond its
        trajectory: the cost projections read the states in place."""
        fam = PowerLawWeights(1.0, 5.0)
        N, M = 32, 400
        x = np.linspace(0.0, 1.0, M + 1)
        prof = assemble_K(solve_family(dirichlet_cfg, fam, N), x)
        z1, z2 = band_limited(Boundary.DIRICHLET)
        tracemalloc.start()
        try:
            res = simulate_fd(dirichlet_cfg, prof, z1, z2, M, 5.0, family=fam, N=N)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * res.states.nbytes

    @pytest.mark.parametrize("stride", [0, -3, 2.0, 2.5, True, "2", None])
    def test_stride_must_be_positive_integer(self, dirichlet_cfg, stride):
        """The three simulators share one stride check and raise the same error."""
        z1, z2 = band_limited(Boundary.DIRICHLET)
        sols = no_gains(dirichlet_cfg, 2)
        st = ModalState(Boundary.DIRICHLET, (1, 2), np.ones((2, 2)))
        runs = [
            lambda: simulate_fd(dirichlet_cfg, None, z1, z2, 64, 1.0, stride=stride),
            lambda: simulate_decoupled(sols, st, 1.0, 0.01, stride=stride),
            lambda: simulate_coupled_modal(sols, st, 1.0, 0.01, stride=stride),
        ]
        for run in runs:
            with pytest.raises(ValueError, match=f"stride must be an integer >= 1, got {stride!r}"):
                run()

    @staticmethod
    @lru_cache(maxsize=None)
    def stepped(boundary, nsteps, stride):
        """simulate_fd with gain and cost on M=40 for exactly nsteps steps (an
        even count), with the given stride, or by reference_fd for stride 0."""
        cfg = WaveConfig(boundary, alpha=0.3, beta=1.0, R=0.8)
        M, N, cfl = 40, 6, 0.9
        fam = PowerLawWeights(1.0, 3.0)
        x = np.linspace(0.0, 1.0, M + 1)
        prof = assemble_K(solve_family(cfg, fam, N), x)
        T = (nsteps - 0.5) * cfl / M
        args = (cfg, prof, *band_limited(boundary), M, T, cfl)
        if stride == 0:
            return reference_fd(*args, family=fam, N=N)
        return simulate_fd(*args, family=fam, N=N, stride=stride)

    @pytest.mark.parametrize("boundary", [Boundary.DIRICHLET, Boundary.NEUMANN])
    # rows = nsteps + 1 is odd, since the step count is even: one short
    # block, one block of FD_BLOCK + 45 rows, the largest single block
    # (2 FD_BLOCK - 1 rows), the first two-block trajectory (2 FD_BLOCK + 1)
    # and four blocks
    @pytest.mark.parametrize("nsteps", [100, FD_BLOCK + 44, 2 * FD_BLOCK - 2, 2 * FD_BLOCK,
                                        4 * FD_BLOCK + 60])
    @pytest.mark.parametrize("stride", [2, 5, 7, FD_BLOCK, 10**6])
    def test_strided_rows_match_stride_one(self, boundary, nsteps, stride):
        """With stride > 1 the kept rows are steps 0, stride, 2 stride, ...
        and the last step, each equal to the bit to that row of the stride-1
        run and of the plain array step loop; times, u_record and cost are
        those of the stride-1 run to the bit."""
        res = self.stepped(boundary, nsteps, stride)
        full = self.stepped(boundary, nsteps, 1)
        ref_states, ref_u, _ = self.stepped(boundary, nsteps, 0)
        assert len(full.times) == nsteps + 1
        kept = list(range(0, nsteps + 1, stride))
        if kept[-1] != nsteps:
            kept.append(nsteps)
        assert res.states.shape == (len(kept), 41, 2)
        for got, want in ((res.states, full.states[kept]), (res.states, ref_states[kept]),
                          (full.states, ref_states), (res.u_record, full.u_record),
                          (res.u_record, ref_u), (res.times, full.times),
                          (res.cost, full.cost)):
            np.testing.assert_array_equal(np.ascontiguousarray(got).view(np.int64),
                                          np.ascontiguousarray(want).view(np.int64))

    def test_strided_traced_peak_is_kept_rows_and_one_block(self, dirichlet_cfg):
        """With stride 10, simulate_fd holds the kept rows and the positions
        of one block, at most 2 FD_BLOCK + 1 rows of M + 1 values, far below
        the whole trajectory (measured: 0.99 of that sum)."""
        fam = PowerLawWeights(1.0, 5.0)
        N, M = 32, 400
        x = np.linspace(0.0, 1.0, M + 1)
        prof = assemble_K(solve_family(dirichlet_cfg, fam, N), x)
        z1, z2 = band_limited(Boundary.DIRICHLET)
        tracemalloc.start()
        try:
            res = simulate_fd(dirichlet_cfg, prof, z1, z2, M, 10.0, family=fam, N=N, stride=10)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        position_nbytes = (M + 1) * 8
        assert peak <= 1.1 * (res.states.nbytes + (2 * FD_BLOCK + 1) * position_nbytes)
        assert peak <= 0.2 * len(res.times) * 2 * position_nbytes

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
        prof = assemble_K(sols, x)
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
        prof = assemble_K(sols, x)
        rf = simulate_fd(cfg, prof, z1, z2, M, 5.0, cfl=0.9, family=fam, N=N)
        t_end = rf.times[-1]
        st0 = project_initial(z1, z2, N, boundary)
        rm = simulate_coupled_modal(sols, st0, t_end, t_end / 2500)

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
        prof = assemble_K(sols, x)
        rf = simulate_fd(dirichlet_cfg, prof, z1, z2, M, 5.0, cfl=0.9, family=fam, N=N)
        t_end = rf.times[-1]
        st0 = project_initial(z1, z2, N, Boundary.DIRICHLET)
        rm = simulate_coupled_modal(sols, st0, t_end, t_end / 2500)
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
        prof = assemble_K(sols, x)
        rf = simulate_fd(dirichlet_cfg, prof, z1, z2, M, 5.0, cfl=0.9, family=fam, N=N)
        st0 = project_initial(z1, z2, N, Boundary.DIRICHLET)
        rm = simulate_coupled_modal(sols, st0, rf.times[-1], rf.times[-1] / 2500)
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
        prof = assemble_K(solve_family(cfg, family, N), x)
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
        prof = assemble_K(sols, x)
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
        prof = assemble_K(sols, np.linspace(0, 1, 33))
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
        kf = assemble_P(sols, x)
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
        assert np.array_equal(assemble_K(sols, x).values, assemble_K(zeroed, x).values)
        with pytest.raises(ValueError, match="modes"):
            simulate_decoupled(sols, st, 0.5, 0.01)

    @pytest.mark.parametrize("modes", [(1, 2), (1, 2, 3, 4, 5), (2, 1, 3, 4)],
                             ids=["fewer", "more", "reordered"])
    def test_mode_mismatch_raises_everywhere(self, dirichlet_cfg, modes):
        sols = solve_family(dirichlet_cfg, PowerLawWeights(1.0, 5.0), 4)
        st = ModalState(Boundary.DIRICHLET, modes, np.ones((len(modes), 2)))
        with pytest.raises(ValueError, match="modes"):
            simulate_decoupled(sols, st, 0.5, 0.01)
        with pytest.raises(ValueError, match="modes"):
            simulate_coupled_modal(sols, st, 0.5, 0.01)
        with pytest.raises(ValueError, match="modes"):
            predicted_cost(st, sols)

    def test_boundary_mismatch_raises_everywhere(self, dirichlet_cfg):
        """A Neumann state with the modes (1, 2) of a Dirichlet table is
        refused, although its modes match."""
        sols = solve_family(dirichlet_cfg, PowerLawWeights(1.0, 5.0), 2)
        st = ModalState(Boundary.NEUMANN, (1, 2), np.ones((2, 2)))
        with pytest.raises(ValueError, match="boundary"):
            simulate_decoupled(sols, st, 0.5, 0.01)
        with pytest.raises(ValueError, match="boundary"):
            simulate_coupled_modal(sols, st, 0.5, 0.01)
        with pytest.raises(ValueError, match="boundary"):
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
            decay_horizon(sols)
