import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import sweep_configs
from wavelqr.model import (
    Boundary,
    ExplicitWeights,
    InvalidModeError,
    ModalWeight,
    PowerLawWeights,
    WaveConfig,
    modal_matrices,
    mode_range,
    projection_weight,
    weight_of,
)
from wavelqr.riccati import (
    OracleError,
    _newton_kleinman,
    are_oracle,
    coupled_truncated_are,
    input_gain_sq,
    modal_gain,
    modal_table,
    negative_root_solution,
    oracle_solve_modes,
    residual_scale,
    residuals,
    solve_closed_form,
    solve_family,
)

# Reference solution for the undamped Dirichlet fundamental mode with unit
# weights (alpha=0, beta=R=1, Q=I), cross-validated against the Hamiltonian
# oracle to 6e-16 before freezing.
P11_REF = 3.4560611200644686
P12_REF = 0.04943850874757677
P22_REF = 0.33367577090638584


class TestClosedForm:
    @pytest.mark.parametrize("boundary", [Boundary.DIRICHLET, Boundary.NEUMANN])
    @pytest.mark.parametrize("alpha", [0.0, 0.7])
    def test_zero_weight_gives_zero(self, boundary, alpha):
        cfg = WaveConfig(boundary, alpha=alpha, beta=1.3, R=0.7)
        sol = solve_closed_form(cfg, ModalWeight(2, 0.0, 0.0, 0.0))
        assert (sol.p11, sol.p12, sol.p22) == (0.0, 0.0, 0.0)
        assert sol.residuals == (0.0, 0.0, 0.0, 0.0)

    def test_dirichlet_p12_symbolic_form(self, dirichlet_cfg):
        # beta = R = 1, alpha = 0: P12 = -1 + sqrt(1 + Q11 / (n pi)^2)
        for n, q11 in [(1, 1.0), (3, 0.25), (10, 7.0)]:
            sol = solve_closed_form(dirichlet_cfg, ModalWeight(n, q11, 0.0, 0.5))
            expect = -1.0 + np.sqrt(1.0 + q11 / (n * np.pi) ** 2)
            np.testing.assert_allclose(sol.p12, expect, rtol=1e-13)

    def test_dirichlet_fundamental_reference(self, dirichlet_cfg):
        sol = solve_closed_form(dirichlet_cfg, ModalWeight(1, 1.0, 0.0, 1.0))
        np.testing.assert_allclose(
            [sol.p11, sol.p12, sol.p22], [P11_REF, P12_REF, P22_REF], rtol=1e-12
        )
        # the rounded values the derivation arrives at
        np.testing.assert_allclose(
            [sol.p12, sol.p22, sol.p11], [0.049438, 0.333674, 3.4561], atol=5e-5
        )
        assert sol.max_residual <= 1e-10 * residual_scale(
            ModalWeight(1, 1.0, 0.0, 1.0), sol.matrix
        )

    def test_neumann_mean_mode_exact(self, neumann_cfg):
        sol = solve_closed_form(neumann_cfg, ModalWeight(0, 1.0, 0.0, 1.0))
        np.testing.assert_allclose(sol.p12, 1.0, rtol=1e-15)
        np.testing.assert_allclose(sol.p22, np.sqrt(3.0), rtol=1e-15)
        np.testing.assert_allclose(sol.p11, np.sqrt(3.0), rtol=1e-15)
        assert sol.max_residual <= 1e-15

    def test_dirichlet_rejects_mode_zero(self, dirichlet_cfg):
        with pytest.raises(InvalidModeError):
            solve_closed_form(dirichlet_cfg, ModalWeight(0, 1.0, 0.0, 1.0))

    def test_solution_psd_and_residuals_over_sweep(self):
        for boundary in (Boundary.DIRICHLET, Boundary.NEUMANN):
            lo = 1 if boundary == Boundary.DIRICHLET else 0
            for alpha, beta, R, q, r in sweep_configs()[::11]:
                cfg = WaveConfig(boundary, alpha=alpha, beta=beta, R=R)
                for n in (lo, 1, 7, 200):
                    amp = q if n == 0 else q / float(n) ** r
                    w = ModalWeight(n, amp, 0.0, amp)
                    sol = solve_closed_form(cfg, w)
                    scale = residual_scale(w, sol.matrix)
                    assert sol.max_residual <= 1e-10 * scale
                    assert sol.min_eigenvalue >= -1e-12 * scale

    def test_off_diagonal_weight(self, rng):
        # Q12 != 0 exercises the P11 shift; validated against the oracle
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
            sol = solve_closed_form(cfg, w)
            F, G = modal_matrices(cfg, n)
            P = are_oracle(F, G, w.matrix, np.array([[cfg.R]]))
            scale = 1.0 + np.max(np.abs(P))
            np.testing.assert_allclose(sol.matrix, P, atol=1e-8 * scale)

    def test_solve_family_modes(self, neumann_cfg):
        sols = solve_family(neumann_cfg, PowerLawWeights(1.0, 4.0, cutoff=5), 5)
        assert [s.n for s in sols] == [0, 1, 2, 3, 4, 5]


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
        t = solve_family(neumann_cfg, PowerLawWeights(1.0, 4.0, cutoff=5), 5)
        assert len(t) == 6 and len(t[:3]) == 3 and list(t[1:].n) == [1, 2, 3, 4, 5]
        assert t[-1] == list(t)[-1]
        sol = solve_closed_form(neumann_cfg, ModalWeight(2, t.q11[2], t.q12[2], t.q22[2]))
        assert t[2] == sol
        np.testing.assert_array_equal(t.matrices[2], sol.matrix)
        assert t.k1[2] == modal_gain(neumann_cfg, sol).k1


class TestResiduals:
    def test_solution_residuals_small(self, dirichlet_cfg):
        w = ModalWeight(3, 2.0, 0.3, 1.0)
        sol = solve_closed_form(dirichlet_cfg, w)
        r = residuals(dirichlet_cfg, w, sol.matrix)
        assert max(abs(v) for v in r) <= 1e-10 * residual_scale(w, sol.matrix)

    @pytest.mark.parametrize("boundary", [Boundary.DIRICHLET, Boundary.NEUMANN])
    def test_zero_matrix_unit_weight(self, boundary):
        cfg = WaveConfig(boundary, alpha=0.4)
        r = residuals(cfg, ModalWeight(1, 1.0, 0.0, 1.0), np.zeros((2, 2)))
        assert r == (1.0, 0.0, 0.0, 1.0)

    def test_p12_perturbation_changes_r11_quadratically(self, dirichlet_cfg):
        w = ModalWeight(2, 1.0, 0.0, 1.0)
        sol = solve_closed_form(dirichlet_cfg, w)
        n2pi2 = (2 * np.pi) ** 2
        g2 = dirichlet_cfg.gamma_sq
        for eps in (1e-3, -0.02, 0.5):
            P = sol.matrix + np.array([[0.0, eps], [eps, 0.0]])
            r = residuals(dirichlet_cfg, w, P)
            delta = r[0] - sol.residuals[0]
            expect = -2 * n2pi2 * eps - n2pi2 * g2 * (2 * sol.p12 * eps + eps**2)
            np.testing.assert_allclose(delta, expect, rtol=1e-9, atol=1e-12)

    def test_asymmetric_input_splits_r12_r21(self, neumann_cfg):
        w = ModalWeight(1, 1.0, 0.0, 1.0)
        P = np.array([[0.5, 0.2], [0.1, 0.3]])
        r = residuals(neumann_cfg, w, P)
        assert r[1] != r[2]
        Psym = np.array([[0.5, 0.2], [0.2, 0.3]])
        rs = residuals(neumann_cfg, w, Psym)
        assert rs[1] == rs[2]


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
            P = negative_root_solution(cfg, ModalWeight(n, q11, q12, q22))
            if np.all(np.isfinite(P)):
                assert np.linalg.eigvalsh(P).min() < 0
            # a complex P22 radicand also disproves nonnegative definiteness

    def test_negative_root_solves_first_equation(self, dirichlet_cfg):
        w = ModalWeight(1, 1.0, 0.0, 1.0)
        P = negative_root_solution(dirichlet_cfg, w)
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

    def test_newton_kleinman_agrees_with_subspace(self, dirichlet_cfg):
        F, G = modal_matrices(dirichlet_cfg, 2)
        Q = np.array([[2.0, 0.1], [0.1, 1.0]])
        R = np.array([[0.8]])
        P1 = are_oracle(F, G, Q, R)
        P2 = _newton_kleinman(F, G.reshape(2, 1), Q, R)
        np.testing.assert_allclose(P1, P2, rtol=1e-10, atol=1e-12)

    @pytest.mark.parametrize("boundary", [Boundary.DIRICHLET, Boundary.NEUMANN])
    def test_batched_oracle_matches_closed_form(self, boundary):
        lo = 1 if boundary == Boundary.DIRICHLET else 0
        ns = np.arange(lo, 151)
        for alpha, beta, R, q, r in [(0.0, 1.0, 1.0, 1.0, 4.5), (0.5, 2.0, 0.5, 0.1, 2.5)]:
            cfg = WaveConfig(boundary, alpha=alpha, beta=beta, R=R)
            amp = np.where(ns == 0, q, q / np.maximum(ns, 1).astype(float) ** r)
            o11, o12, o22 = oracle_solve_modes(cfg, ns, amp, 0.0, amp)
            for i, n in enumerate(ns):
                sol = solve_closed_form(cfg, ModalWeight(int(n), amp[i], 0.0, amp[i]))
                scale = 1.0 + max(abs(sol.p11), abs(sol.p12), abs(sol.p22))
                assert abs(sol.p11 - o11[i]) <= 1e-8 * scale
                assert abs(sol.p12 - o12[i]) <= 1e-8 * scale
                assert abs(sol.p22 - o22[i]) <= 1e-8 * scale


class TestModalGain:
    def test_zero_solution(self, dirichlet_cfg):
        sol = solve_closed_form(dirichlet_cfg, ModalWeight(4, 0.0, 0.0, 0.0))
        g = modal_gain(dirichlet_cfg, sol)
        assert (g.k1, g.k2) == (0.0, 0.0)

    def test_dirichlet_fundamental_reference(self, dirichlet_cfg):
        sol = solve_closed_form(dirichlet_cfg, ModalWeight(1, 1.0, 0.0, 1.0))
        g = modal_gain(dirichlet_cfg, sol)
        np.testing.assert_allclose(
            [g.k1, g.k2], [-np.pi * P12_REF, -np.pi * P22_REF], rtol=1e-12
        )
        np.testing.assert_allclose([g.k1, g.k2], [-0.15532, -1.04827], atol=5e-6)

    def test_neumann_mean_mode(self, neumann_cfg):
        sol = solve_closed_form(neumann_cfg, ModalWeight(0, 1.0, 0.0, 1.0))
        g = modal_gain(neumann_cfg, sol)
        np.testing.assert_allclose([g.k1, g.k2], [-1.0, -np.sqrt(3.0)], rtol=1e-14)

    @pytest.mark.parametrize("boundary", [Boundary.DIRICHLET, Boundary.NEUMANN])
    def test_equals_matrix_product(self, boundary):
        cfg = WaveConfig(boundary, alpha=0.2, beta=1.4, R=0.6)
        for n in mode_range(boundary, 20):
            w = ModalWeight(n, 1.0 / (n + 1.0), 0.0, 2.0 / (n + 1.0))
            sol = solve_closed_form(cfg, w)
            _, G = modal_matrices(cfg, n)
            k_ref = -(G / cfg.R) @ sol.matrix
            np.testing.assert_allclose(modal_gain(cfg, sol).row, k_ref, rtol=0, atol=0)


class TestCoupledTruncatedAre:
    def test_all_zero_weights_damped(self):
        cfg = WaveConfig(Boundary.DIRICHLET, alpha=1.0)
        ca = coupled_truncated_are(cfg, ExplicitWeights({}, cutoff=3), 3)
        np.testing.assert_allclose(ca.P_big, 0.0, atol=1e-12)
        assert ca.dev_P_fro <= 1e-12

    def test_all_zero_weights_undamped_raises(self, dirichlet_cfg):
        with pytest.raises(OracleError):
            coupled_truncated_are(dirichlet_cfg, ExplicitWeights({}, cutoff=3), 3)

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
        fam = ExplicitWeights({k: ModalWeight(k, 1.0, 0.0, 1.0)}, cutoff=4)
        ca = coupled_truncated_are(cfg, fam, 4)
        sol = solve_closed_form(cfg, ModalWeight(k, 1.0, 0.0, 1.0))
        i = ca.modes.index(k)
        block = ca.P_big[2 * i : 2 * i + 2, 2 * i : 2 * i + 2]
        np.testing.assert_allclose(block, sol.matrix, atol=1e-9)
        off = ca.P_big.copy()
        off[2 * i : 2 * i + 2, 2 * i : 2 * i + 2] = 0.0
        assert np.max(np.abs(off)) <= 1e-9

    def test_neumann_unweighted_mean_mode_not_stabilizable(self):
        # the mean mode carries an integrator; leaving it unweighted makes
        # the coupled optimal loop only marginally stable
        cfg = WaveConfig(Boundary.NEUMANN, alpha=0.3, beta=1.0, R=1.0)
        fam = ExplicitWeights({2: ModalWeight(2, 1.0, 0.0, 1.0)}, cutoff=4)
        with pytest.raises(OracleError):
            coupled_truncated_are(cfg, fam, 4)

    def test_deviation_regression_dirichlet(self, dirichlet_cfg):
        ca = coupled_truncated_are(dirichlet_cfg, PowerLawWeights(1.0, 5.0, cutoff=4), 4)
        np.testing.assert_allclose(ca.dev_P_fro, 0.6337634296056578, rtol=1e-6)
        np.testing.assert_allclose(ca.dev_P_max, 0.37439606705414996, rtol=1e-6)
        np.testing.assert_allclose(ca.dev_K_fro, 0.7486282861520073, rtol=1e-6)

    def test_big_solution_is_exact_are_solution(self, dirichlet_cfg):
        from wavelqr.spectrum import coupled_loop_parts

        fam = PowerLawWeights(1.0, 5.0, cutoff=4)
        ca = coupled_truncated_are(dirichlet_cfg, fam, 4)
        _, A, B, _ = coupled_loop_parts(dirichlet_cfg, [], 4)
        # pairing-weighted coordinates
        B = B * np.repeat([projection_weight(dirichlet_cfg.boundary, n) for n in ca.modes], 2)[:, None]
        Qb = np.zeros_like(ca.P_big)
        for i, n in enumerate(ca.modes):
            Qb[2 * i : 2 * i + 2, 2 * i : 2 * i + 2] = weight_of(
                fam, n, dirichlet_cfg.boundary
            ).matrix
        res = A.T @ ca.P_big + ca.P_big @ A - ca.P_big @ B @ B.T @ ca.P_big + Qb
        assert np.max(np.abs(res)) < 1e-9


class TestGainInputScale:
    def test_input_gain_sq_dirichlet_grows(self, dirichlet_cfg):
        c = input_gain_sq(dirichlet_cfg, np.array([1, 2, 3]))
        np.testing.assert_allclose(c, (np.arange(1, 4) * np.pi) ** 2)

    def test_input_gain_sq_neumann_flat(self, neumann_cfg):
        c = input_gain_sq(neumann_cfg, np.array([0, 1, 5]))
        np.testing.assert_allclose(c, np.ones(3))
