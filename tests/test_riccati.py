from dataclasses import fields

import numpy as np
import pytest
import scipy.linalg as scipy_linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import one_mode, sweep_configs
from wavelqr.model import (
    Boundary,
    ExplicitWeights,
    InvalidModeError,
    ModalWeight,
    PowerLawWeights,
    WaveConfig,
    frequency_sq,
    modal_matrices,
    mode_range,
    projection_weight,
    weight_arrays,
)
from wavelqr.riccati import (
    TOL_ORACLE,
    ModalTable,
    OracleError,
    _care_residual,
    are_oracle,
    coupled_truncated_are,
    gain_arrays,
    input_gain_sq,
    modal_table,
    negative_root_matrices,
    oracle_solve_modes,
    residual_arrays,
    solve_family,
)

# Reference solution for the undamped Dirichlet fundamental mode with unit
# weights (alpha=0, beta=R=1, Q=I), cross-validated against the Hamiltonian
# oracle to 6e-16 before freezing.
P11_REF = 3.4560611200644686
P12_REF = 0.04943850874757677
P22_REF = 0.33367577090638584


def row_scale(t: ModalTable) -> np.ndarray:
    """1 + |Q| + |P|^2 per row, the scale of the relative residual bounds."""
    qmax = np.abs(np.stack([t.q11, t.q12, t.q22])).max(axis=0)
    return 1.0 + qmax + np.abs(t.matrices).max(axis=(1, 2)) ** 2


def residuals(cfg, w: ModalWeight, P) -> tuple:
    """The four modal ARE components at a symmetric 2x2 P."""
    return residual_arrays(
        frequency_sq(w.n), input_gain_sq(cfg, w.n), cfg.alpha, w.q11, w.q22, w.q12,
        P[0, 0], P[0, 1], P[1, 1],
    )


class TestClosedForm:
    @pytest.mark.parametrize("boundary", [Boundary.DIRICHLET, Boundary.NEUMANN])
    @pytest.mark.parametrize("alpha", [0.0, 0.7])
    def test_zero_weight_gives_zero(self, boundary, alpha):
        cfg = WaveConfig(boundary, alpha=alpha, beta=1.3, R=0.7)
        t = one_mode(cfg, ModalWeight(2, 0.0, 0.0, 0.0))
        assert (t.p11[0], t.p12[0], t.p22[0]) == (0.0, 0.0, 0.0)
        assert t.residuals[0].tolist() == [0.0, 0.0, 0.0, 0.0]

    def test_dirichlet_p12_symbolic_form(self, dirichlet_cfg):
        # beta = R = 1, alpha = 0: P12 = -1 + sqrt(1 + Q11 / (n pi)^2)
        n = np.array([1, 3, 10])
        q11 = np.array([1.0, 0.25, 7.0])
        t = modal_table(dirichlet_cfg, n, q11, np.zeros(3), np.full(3, 0.5))
        expect = -1.0 + np.sqrt(1.0 + q11 / (n * np.pi) ** 2)
        np.testing.assert_allclose(t.p12, expect, rtol=1e-13)

    def test_dirichlet_fundamental_reference(self, dirichlet_cfg):
        t = one_mode(dirichlet_cfg, ModalWeight(1, 1.0, 0.0, 1.0))
        p = [t.p11[0], t.p12[0], t.p22[0]]
        np.testing.assert_allclose(p, [P11_REF, P12_REF, P22_REF], rtol=1e-12)
        # the rounded values the derivation arrives at
        np.testing.assert_allclose(
            [t.p12[0], t.p22[0], t.p11[0]], [0.049438, 0.333674, 3.4561], atol=5e-5
        )
        assert np.abs(t.residuals[0]).max() <= 1e-10 * row_scale(t)[0]

    def test_neumann_mean_mode_exact(self, neumann_cfg):
        t = one_mode(neumann_cfg, ModalWeight(0, 1.0, 0.0, 1.0))
        np.testing.assert_allclose(t.p12[0], 1.0, rtol=1e-15)
        np.testing.assert_allclose(t.p22[0], np.sqrt(3.0), rtol=1e-15)
        np.testing.assert_allclose(t.p11[0], np.sqrt(3.0), rtol=1e-15)
        assert np.abs(t.residuals[0]).max() <= 1e-15

    def test_dirichlet_rejects_mode_zero(self, dirichlet_cfg):
        with pytest.raises(InvalidModeError):
            one_mode(dirichlet_cfg, ModalWeight(0, 1.0, 0.0, 1.0))

    def test_solution_psd_and_residuals_over_sweep(self):
        for boundary in (Boundary.DIRICHLET, Boundary.NEUMANN):
            lo = 1 if boundary == Boundary.DIRICHLET else 0
            n = np.array([lo, 1, 7, 200])
            for alpha, beta, R, q, r in sweep_configs()[::11]:
                cfg = WaveConfig(boundary, alpha=alpha, beta=beta, R=R)
                amp = np.array([q if m == 0 else q / float(m) ** r for m in n])
                t = modal_table(cfg, n, amp, np.zeros(4), amp)
                scale = row_scale(t)
                assert np.all(np.abs(t.residuals).max(axis=1) <= 1e-10 * scale)
                assert np.all(t.min_eigenvalue >= -1e-12 * scale)

    def test_off_diagonal_weight(self, rng):
        # Q12 != 0 exercises the P11 shift; validated against both oracles,
        # which must also agree with each other: the sign iteration on the
        # Hamiltonian and the modal Kleinman iteration share no code
        for _ in range(25):
            n = int(rng.integers(1, 40))
            q11 = float(rng.uniform(0.01, 5.0))
            q22 = float(rng.uniform(0.01, 5.0))
            q12 = float(rng.uniform(-0.95, 0.95)) * np.sqrt(q11 * q22)
            cfg = WaveConfig(
                Boundary.DIRICHLET if n % 2 else Boundary.NEUMANN,
                alpha=float(rng.uniform(0.0, 1.5)),
                beta=float(rng.uniform(0.3, 2.0)),
                R=float(rng.uniform(0.3, 2.0)),
            )
            w = ModalWeight(n, q11, q12, q22)
            t = one_mode(cfg, w)
            F, G = modal_matrices(cfg, n)
            P = are_oracle(F, G, np.array([[q11, q12], [q12, q22]]), np.array([[cfg.R]]))
            scale = 1.0 + np.max(np.abs(P))
            np.testing.assert_allclose(t.matrices[0], P, atol=1e-8 * scale)
            o11, o12, o22 = oracle_solve_modes(cfg, [n], [q11], [q12], [q22])
            kleinman = np.array([[o11[0], o12[0]], [o12[0], o22[0]]])
            np.testing.assert_allclose(kleinman, P, atol=1e-8 * scale)

    def test_solve_family_modes(self, neumann_cfg):
        sols = solve_family(neumann_cfg, PowerLawWeights(1.0, 4.0), 5)
        assert sols.n.tolist() == [0, 1, 2, 3, 4, 5]


def _log_uniform(lo, hi):
    return st.floats(lo, hi).map(lambda e: 10.0**e)


@st.composite
def modal_problems(draw):
    """A configuration and 1-8 modes with PSD weights spanning 15 decades."""
    boundary = draw(st.sampled_from([Boundary.DIRICHLET, Boundary.NEUMANN]))
    cfg = WaveConfig(
        boundary,
        alpha=draw(st.just(0.0) | _log_uniform(-3, 1)),
        beta=draw(_log_uniform(-1, 1)),
        R=draw(_log_uniform(-1, 1)),
    )
    lo = 1 if boundary == Boundary.DIRICHLET else 0
    rows = draw(st.lists(
        st.tuples(st.integers(lo, 10**6), _log_uniform(-12, 3), _log_uniform(-12, 3),
                  st.floats(-0.9, 0.9)),
        min_size=1, max_size=8,
    ))
    n, q11, q22, rho = (np.array(v) for v in zip(*rows))
    return cfg, n, q11, rho * np.sqrt(q11 * q22), q22


class TestModalTable:
    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(modal_problems())
    def test_matches_oracle(self, problem):
        cfg, n, q11, q12, q22 = problem
        t = modal_table(cfg, n, q11, q12, q22)
        P = np.stack([t.p11, t.p12, t.p22])
        oracle = np.stack(oracle_solve_modes(cfg, n, q11, q12, q22))
        rel = np.abs(P - oracle).max(axis=0) / np.abs(P).max(axis=0)
        assert rel.max() <= 1e-8

    def test_views_and_slices(self, neumann_cfg):
        t = solve_family(neumann_cfg, PowerLawWeights(1.0, 4.0), 5)
        assert len(t) == 6 and len(t[:3]) == 3 and list(t[1:].n) == [1, 2, 3, 4, 5]
        assert list(t[t.n % 2 == 0].n) == [0, 2, 4]
        # a sub-table row holds what a one-row solve of the same weight gives
        row = t[2:3]
        one = modal_table(neumann_cfg, [2], row.q11, row.q12, row.q22)
        for f in fields(ModalTable):
            assert np.array_equal(getattr(row, f.name), getattr(one, f.name)), f.name
        np.testing.assert_array_equal(t.matrices[2], one.matrices[0])
        k1, k2 = gain_arrays(neumann_cfg, t.n, t.p12, t.p22)
        assert np.array_equal(t.k1, k1) and np.array_equal(t.k2, k2)
        # a single row is read from the columns, not indexed out as an object
        with pytest.raises(TypeError):
            t[2]


class TestResiduals:
    def test_solution_residuals_small(self, dirichlet_cfg):
        w = ModalWeight(3, 2.0, 0.3, 1.0)
        t = one_mode(dirichlet_cfg, w)
        r = residuals(dirichlet_cfg, w, t.matrices[0])
        assert max(abs(v) for v in r) <= 1e-10 * row_scale(t)[0]

    @pytest.mark.parametrize("boundary", [Boundary.DIRICHLET, Boundary.NEUMANN])
    def test_zero_matrix_unit_weight(self, boundary):
        cfg = WaveConfig(boundary, alpha=0.4)
        r = residuals(cfg, ModalWeight(1, 1.0, 0.0, 1.0), np.zeros((2, 2)))
        assert r == (1.0, 0.0, 0.0, 1.0)

    def test_p12_perturbation_changes_r11_quadratically(self, dirichlet_cfg):
        w = ModalWeight(2, 1.0, 0.0, 1.0)
        t = one_mode(dirichlet_cfg, w)
        n2pi2 = (2 * np.pi) ** 2
        g2 = dirichlet_cfg.gamma_sq
        for eps in (1e-3, -0.02, 0.5):
            P = t.matrices[0] + np.array([[0.0, eps], [eps, 0.0]])
            r = residuals(dirichlet_cfg, w, P)
            delta = r[0] - t.residuals[0, 0]
            expect = -2 * n2pi2 * eps - n2pi2 * g2 * (2 * t.p12[0] * eps + eps**2)
            np.testing.assert_allclose(delta, expect, rtol=1e-9, atol=1e-12)

    def test_components_match_matrix_residual(self):
        """The four components are the entries of F'P + PF - PGR^-1G'P + Q,
        formed here as matrix products, at a symmetric P that solves nothing."""
        w = ModalWeight(2, 1.0, 0.4, 0.5)
        P = np.array([[0.5, 0.2], [0.2, 0.3]])
        Q = np.array([[w.q11, w.q12], [w.q12, w.q22]])
        for boundary in (Boundary.DIRICHLET, Boundary.NEUMANN):
            cfg = WaveConfig(boundary, alpha=0.3, beta=1.3, R=0.7)
            F, G = modal_matrices(cfg, w.n)
            full = F.T @ P + P @ F - np.outer(P @ G, G @ P) / cfg.R + Q
            np.testing.assert_allclose(residuals(cfg, w, P), full.ravel(), rtol=1e-14, atol=1e-13)


class TestNegativeRoot:
    def test_negative_root_never_psd_on_grid(self, rng):
        for _ in range(60):
            boundary = Boundary.DIRICHLET if rng.random() < 0.5 else Boundary.NEUMANN
            n = int(rng.integers(1, 30))
            cfg = WaveConfig(
                boundary,
                alpha=float(rng.uniform(0.0, 2.0)),
                beta=float(rng.uniform(0.2, 2.0)),
                R=float(rng.uniform(0.2, 2.0)),
            )
            q11 = float(rng.uniform(0.01, 5.0))
            q22 = float(rng.uniform(0.01, 5.0))
            q12 = float(rng.uniform(-0.9, 0.9)) * np.sqrt(q11 * q22)
            P = negative_root_matrices(cfg, [n], [q11], [q12], [q22])[0]
            if np.all(np.isfinite(P)):
                assert np.linalg.eigvalsh(P).min() < 0
            # a complex P22 radicand also disproves nonnegative definiteness

    def test_negative_root_solves_first_equation(self, dirichlet_cfg):
        w = ModalWeight(1, 1.0, 0.0, 1.0)
        P = negative_root_matrices(dirichlet_cfg, [1], [1.0], [0.0], [1.0])[0]
        r = residuals(dirichlet_cfg, w, P)
        assert abs(r[0]) < 1e-12


class TestOracle:
    def test_scalar_integrator(self):
        P = are_oracle(np.array([[0.0]]), np.array([[1.0]]), np.array([[1.0]]), np.array([[1.0]]))
        np.testing.assert_allclose(P, [[1.0]], rtol=1e-12)

    def test_zero_weight_hurwitz(self):
        F = np.array([[0.0, 1.0], [-4.0, -1.0]])
        P = are_oracle(F, np.array([0.0, 1.0]), np.zeros((2, 2)), np.array([[1.0]]))
        np.testing.assert_allclose(P, np.zeros((2, 2)), atol=1e-14)

    def test_marginal_problem_raises(self, dirichlet_cfg):
        F, G = modal_matrices(dirichlet_cfg, 1)
        with pytest.raises(OracleError):
            are_oracle(F, G, np.zeros((2, 2)), np.array([[1.0]]))

    def test_matches_closed_form_dirichlet_fundamental(self, dirichlet_cfg):
        F, G = modal_matrices(dirichlet_cfg, 1)
        P = are_oracle(F, G, np.eye(2), np.array([[1.0]]))
        np.testing.assert_allclose(
            [P[0, 0], P[0, 1], P[1, 1]], [P11_REF, P12_REF, P22_REF], rtol=1e-8
        )

    @pytest.mark.parametrize("boundary", [Boundary.DIRICHLET, Boundary.NEUMANN])
    def test_batched_oracle_matches_closed_form(self, boundary):
        lo = 1 if boundary == Boundary.DIRICHLET else 0
        ns = np.arange(lo, 151)
        for alpha, beta, R, q, r in [(0.0, 1.0, 1.0, 1.0, 4.5), (0.5, 2.0, 0.5, 0.1, 2.5)]:
            cfg = WaveConfig(boundary, alpha=alpha, beta=beta, R=R)
            amp = np.where(ns == 0, q, q / np.maximum(ns, 1).astype(float) ** r)
            o11, o12, o22 = oracle_solve_modes(cfg, ns, amp, 0.0, amp)
            t = modal_table(cfg, ns, amp, np.zeros_like(amp), amp)
            scale = 1.0 + np.abs(t.matrices).max(axis=(1, 2))
            assert np.all(np.abs(t.p11 - o11) <= 1e-8 * scale)
            assert np.all(np.abs(t.p12 - o12) <= 1e-8 * scale)
            assert np.all(np.abs(t.p22 - o22) <= 1e-8 * scale)


    @pytest.mark.parametrize(
        "boundary, alpha, n, q",
        [
            (Boundary.DIRICHLET, 0.0, 2, (0.0, 0.0, 0.0)),  # +-i 2 pi unobserved
            (Boundary.NEUMANN, 0.0, 3, (0.0, 0.0, 0.0)),
            (Boundary.NEUMANN, 0.0, 0, (0.0, 0.0, 1.0)),  # eigenvalue 0 unobserved
            (Boundary.NEUMANN, 0.2, 0, (0.0, 0.0, 1.0)),
        ],
    )
    def test_batched_oracle_refuses_unobserved_imaginary_axis(self, boundary, alpha, n, q):
        """No stabilizing solution exists, and both oracles say so, naming the mode."""
        cfg = WaveConfig(boundary, alpha=alpha, beta=1.0, R=1.0)
        ns = np.array(sorted({n, 1, 4}))
        q11, q12, q22 = (np.where(ns == n, qi, 1.0 if i != 1 else 0.0) for i, qi in enumerate(q))
        with pytest.raises(OracleError, match=f"mode {n}\\b"):
            oracle_solve_modes(cfg, ns, q11, q12, q22)
        F, G = modal_matrices(cfg, n)
        with pytest.raises(OracleError):
            are_oracle(F, G, np.array([[q[0], q[1]], [q[1], q[2]]]), np.array([[cfg.R]]))

    @pytest.mark.parametrize("boundary,n", [(Boundary.DIRICHLET, 2), (Boundary.NEUMANN, 3)])
    def test_sign_iteration_stops_at_first_non_finite_iterate(self, boundary, n):
        # the iterates of an undamped mode with Q = 0 overflow after about 22
        # steps; the oracle stops there instead of running to the iteration limit
        F, G = modal_matrices(WaveConfig(boundary), n)
        with pytest.raises(OracleError, match="overflowed"):
            are_oracle(F, G, np.zeros((2, 2)), np.array([[1.0]]))

    @pytest.mark.parametrize("boundary", [Boundary.DIRICHLET, Boundary.NEUMANN])
    def test_batched_oracle_solves_observed_edge_cases(self, boundary):
        """Damped modes n >= 1 with zero weights have P = 0, and an undamped
        mean mode weighted through Q11 alone is observed."""
        cfg = WaveConfig(boundary, alpha=0.2, beta=1.0, R=1.0)
        ns = np.arange(1, 7)
        zero = np.zeros(len(ns))
        np.testing.assert_allclose(oracle_solve_modes(cfg, ns, zero, zero, zero), 0.0, atol=1e-14)
        if boundary == Boundary.NEUMANN:
            undamped = WaveConfig(boundary, alpha=0.0, beta=1.0, R=1.0)
            o = oracle_solve_modes(undamped, [0], [1.0], [0.0], [0.0])
            t = modal_table(undamped, [0], [1.0], [0.0], [0.0])
            np.testing.assert_allclose(np.ravel(o), [t.p11[0], t.p12[0], t.p22[0]], rtol=1e-10)

    @pytest.mark.parametrize("boundary", [Boundary.DIRICHLET, Boundary.NEUMANN])
    def test_batched_oracle_tiny_positive_weights(self, boundary):
        """q / n^r down to 1e-22 at n = 2048 is observed: the modes still solve."""
        cfg = WaveConfig(boundary, alpha=0.0, beta=1.0, R=1.0)
        ns = np.array(mode_range(boundary, 2048))
        amp = weight_arrays(PowerLawWeights(0.1, 6.5), ns)[0]
        o11, o12, o22 = oracle_solve_modes(cfg, ns, amp, 0.0, amp)
        t = modal_table(cfg, ns, amp, np.zeros_like(amp), amp)
        scale = 1.0 + np.abs(t.matrices).max(axis=(1, 2))
        for o, p in ((o11, t.p11), (o12, t.p12), (o22, t.p22)):
            assert np.all(np.abs(o - p) <= 1e-8 * scale)
        assert np.all(o12 > 0) and np.all(o22 > 0)


class TestModalGain:
    def test_zero_solution(self, dirichlet_cfg):
        t = one_mode(dirichlet_cfg, ModalWeight(4, 0.0, 0.0, 0.0))
        assert (t.k1[0], t.k2[0]) == (0.0, 0.0)

    def test_dirichlet_fundamental_reference(self, dirichlet_cfg):
        t = one_mode(dirichlet_cfg, ModalWeight(1, 1.0, 0.0, 1.0))
        k = [t.k1[0], t.k2[0]]
        np.testing.assert_allclose(k, [-np.pi * P12_REF, -np.pi * P22_REF], rtol=1e-12)
        np.testing.assert_allclose(k, [-0.15532, -1.04827], atol=5e-6)

    def test_neumann_mean_mode(self, neumann_cfg):
        t = one_mode(neumann_cfg, ModalWeight(0, 1.0, 0.0, 1.0))
        np.testing.assert_allclose([t.k1[0], t.k2[0]], [-1.0, -np.sqrt(3.0)], rtol=1e-14)

    @pytest.mark.parametrize("boundary", [Boundary.DIRICHLET, Boundary.NEUMANN])
    def test_equals_matrix_product(self, boundary):
        cfg = WaveConfig(boundary, alpha=0.2, beta=1.4, R=0.6)
        n = np.array(mode_range(boundary, 20))
        t = modal_table(cfg, n, 1.0 / (n + 1.0), np.zeros(len(n)), 2.0 / (n + 1.0))
        _, G = modal_matrices(cfg, n)
        for i in range(len(n)):
            k_ref = -(G[i] / cfg.R) @ t.matrices[i]
            np.testing.assert_allclose([t.k1[i], t.k2[i]], k_ref, rtol=0, atol=0)


class TestCoupledTruncatedAre:
    def test_all_zero_weights_damped(self):
        cfg = WaveConfig(Boundary.DIRICHLET, alpha=1.0)
        ca = coupled_truncated_are(cfg, solve_family(cfg, ExplicitWeights({}), 3))
        np.testing.assert_allclose(ca.P_big, 0.0, atol=1e-12)
        assert ca.dev_P_fro <= 1e-12

    def test_all_zero_weights_undamped_raises(self, dirichlet_cfg):
        with pytest.raises(OracleError):
            coupled_truncated_are(dirichlet_cfg, solve_family(dirichlet_cfg, ExplicitWeights({}), 3))

    @pytest.mark.parametrize(
        "boundary,k",
        [(Boundary.DIRICHLET, 2), (Boundary.NEUMANN, 0)],
    )
    def test_single_active_mode_is_exact_block(self, boundary, k):
        # damping keeps the zero-weight modes strictly stable, so the
        # coupled problem has a stabilizing solution: the embedded block.
        # Under Neumann actuation the mean mode must be the active one: its
        # rigid displacement never decays on its own.
        cfg = WaveConfig(boundary, alpha=0.3, beta=1.0, R=1.0)
        fam = ExplicitWeights({k: ModalWeight(k, 1.0, 0.0, 1.0)})
        ca = coupled_truncated_are(cfg, solve_family(cfg, fam, 4))
        sol = one_mode(cfg, ModalWeight(k, 1.0, 0.0, 1.0))
        i = ca.modes.index(k)
        block = ca.P_big[2 * i : 2 * i + 2, 2 * i : 2 * i + 2]
        np.testing.assert_allclose(block, sol.matrices[0], atol=1e-9)
        off = ca.P_big.copy()
        off[2 * i : 2 * i + 2, 2 * i : 2 * i + 2] = 0.0
        assert np.max(np.abs(off)) <= 1e-9

    def test_neumann_unweighted_mean_mode_not_stabilizable(self):
        # the mean mode carries an integrator; leaving it unweighted makes
        # the coupled optimal loop only marginally stable
        cfg = WaveConfig(Boundary.NEUMANN, alpha=0.3, beta=1.0, R=1.0)
        fam = ExplicitWeights({2: ModalWeight(2, 1.0, 0.0, 1.0)})
        with pytest.raises(OracleError):
            coupled_truncated_are(cfg, solve_family(cfg, fam, 4))

    def test_deviation_regression_dirichlet(self, dirichlet_cfg):
        ca = coupled_truncated_are(dirichlet_cfg, solve_family(dirichlet_cfg, PowerLawWeights(1.0, 5.0), 4))
        np.testing.assert_allclose(ca.dev_P_fro, 0.6337634296056578, rtol=1e-6)
        np.testing.assert_allclose(ca.dev_P_max, 0.37439606705414996, rtol=1e-6)
        np.testing.assert_allclose(ca.dev_K_fro, 0.7486282861520073, rtol=1e-6)

    def test_big_solution_is_exact_are_solution(self, dirichlet_cfg):
        fam = PowerLawWeights(1.0, 5.0)
        ca = coupled_truncated_are(dirichlet_cfg, solve_family(dirichlet_cfg, fam, 4))
        A, B, Qb = _coupled_plant(dirichlet_cfg, fam, 4)
        res = A.T @ ca.P_big + ca.P_big @ A - ca.P_big @ B @ B.T @ ca.P_big + Qb
        assert np.max(np.abs(res)) < 1e-9

    @pytest.mark.parametrize("boundary,alpha,N", [
        (Boundary.DIRICHLET, 0.0, 24),
        (Boundary.NEUMANN, 0.0, 10),
        (Boundary.DIRICHLET, 0.5, 64),
    ], ids=["dirichlet-undamped-24", "neumann-undamped-10", "dirichlet-damped-64"])
    def test_weakly_damped_plants_match_scipy(self, boundary, alpha, N):
        # weakly damped high modes put Hamiltonian eigenvalues close to the
        # imaginary axis, where eigenvector-based ARE solvers lose accuracy
        P, A, B, Qb, R = _solved_weakly_damped_plant(boundary, alpha, N)
        P_ref = scipy_linalg.solve_continuous_are(A, B, Qb, R)
        assert np.abs(P - P_ref).max() <= 1e-8 * np.abs(P_ref).max()

    def test_ill_conditioned_neumann_plant_solves(self):
        # the coupled closed loop has abscissa -1.5e-5 here: the problem is
        # ill conditioned, and the solution differs from scipy's Schur-method
        # one by about 1e-6 relative, so only residual and stability are checked
        _solved_weakly_damped_plant(Boundary.NEUMANN, 0.0, 64)


def _solved_weakly_damped_plant(boundary, alpha, N):
    """coupled_truncated_are at q=1, r=5, beta=R=1, checked for residual and stability."""
    cfg = WaveConfig(boundary, alpha=alpha, beta=1.0, R=1.0)
    fam = PowerLawWeights(1.0, 5.0)
    ca = coupled_truncated_are(cfg, solve_family(cfg, fam, N))
    A, B, Qb = _coupled_plant(cfg, fam, N)
    R = np.array([[cfg.R]])
    assert _care_residual(A, B, Qb, R, ca.P_big) <= TOL_ORACLE
    assert np.linalg.eigvals(A + B @ ca.K_big).real.max() < 0
    return ca.P_big, A, B, Qb, R


def _coupled_plant(cfg, fam, N):
    """(A, B, Q) of the truncated coupled plant in pairing-weighted coordinates."""
    from wavelqr.spectrum import coupled_loop_parts

    modes, A, B, _ = coupled_loop_parts(cfg, solve_family(cfg, fam, N))
    B = B * np.repeat(projection_weight(cfg.boundary, modes), 2)[:, None]
    q11, q12, q22 = weight_arrays(fam, modes)
    Qb = np.zeros_like(A)
    for i in range(len(modes)):
        Qb[2 * i : 2 * i + 2, 2 * i : 2 * i + 2] = [[q11[i], q12[i]], [q12[i], q22[i]]]
    return A, B, Qb


class TestGainInputScale:
    def test_input_gain_sq_dirichlet_grows(self, dirichlet_cfg):
        c = input_gain_sq(dirichlet_cfg, np.array([1, 2, 3]))
        np.testing.assert_allclose(c, (np.arange(1, 4) * np.pi) ** 2)

    def test_input_gain_sq_neumann_flat(self, neumann_cfg):
        c = input_gain_sq(neumann_cfg, np.array([0, 1, 5]))
        np.testing.assert_allclose(c, np.ones(3))
