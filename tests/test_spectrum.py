import numpy as np
import pytest

from conftest import one_mode, sweep_configs
from wavelqr.model import (
    Boundary,
    ExplicitWeights,
    ModalWeight,
    PowerLawWeights,
    WaveConfig,
    modal_matrices,
    mode_range,
)
from wavelqr import spectrum
from wavelqr.riccati import input_gain_sq, modal_table, solve_family
from wavelqr.spectrum import (
    Stability,
    UnverifiedModes,
    classify,
    closed_loop_spectrum,
    closed_loop_trace_det,
    coupled_loop_parts,
    coupled_modes,
    coupled_spectrum,
    open_loop_spectrum,
)


def power_table(cfg, n, q, r):
    """Closed-form table of the modes n under Q11 = Q22 = q / n^r, Q12 = 0."""
    n = np.asarray(n)
    amp = np.array([q / float(m) ** r for m in n])
    return modal_table(cfg, n, amp, np.zeros(len(n)), amp)


class TestOpenLoop:
    def test_undamped_fundamental_is_imaginary(self, dirichlet_cfg):
        lam_p, lam_m = open_loop_spectrum(dirichlet_cfg, [1])[0]
        np.testing.assert_allclose([lam_p, lam_m], [1j * np.pi, -1j * np.pi], atol=1e-15)

    def test_neumann_mean_mode_damped(self):
        cfg = WaveConfig(Boundary.NEUMANN, alpha=0.8)
        lam_p, lam_m = open_loop_spectrum(cfg, [0])[0].tolist()
        assert {lam_p, lam_m} == {0.0, -0.8}

    def test_overdamped_fundamental(self):
        cfg = WaveConfig(Boundary.DIRICHLET, alpha=7.0)
        lam_p, lam_m = open_loop_spectrum(cfg, [1])[0]
        F, _ = modal_matrices(cfg, 1)
        expect = sorted(np.linalg.eigvals(F).real)
        np.testing.assert_allclose(sorted([lam_p.real, lam_m.real]), expect, rtol=1e-12)
        assert lam_p.imag == lam_m.imag == 0.0
        np.testing.assert_allclose([lam_p.real, lam_m.real], [-1.957, -5.043], atol=1e-3)

    @pytest.mark.parametrize("alpha", [0.0, 0.5, 3.0])
    def test_matches_matrix_eigenvalues(self, alpha):
        cfg = WaveConfig(Boundary.DIRICHLET, alpha=alpha)
        ns = [1, 2, 5, 17, 100, 1000]
        lams = open_loop_spectrum(cfg, ns)
        F, _ = modal_matrices(cfg, ns)
        for n, lam, ref in zip(ns, lams, np.linalg.eigvals(F)):
            lam = lam[np.lexsort((lam.imag, lam.real))]
            ref = ref[np.lexsort((ref.imag, ref.real))]
            np.testing.assert_allclose(lam, ref, rtol=0, atol=1e-12 * (1 + n * np.pi))

    def test_vieta_invariants(self):
        cfg = WaveConfig(Boundary.NEUMANN, alpha=1.3)
        n = np.array(mode_range(cfg.boundary, 50))
        lam = open_loop_spectrum(cfg, n)
        np.testing.assert_allclose(lam[:, 0] + lam[:, 1], -cfg.alpha, atol=1e-12)
        np.testing.assert_allclose(lam[:, 0] * lam[:, 1], (n * np.pi) ** 2, rtol=1e-12, atol=1e-12)


class TestClosedLoop:
    def test_zero_weight_recovers_open_loop(self):
        cfg = WaveConfig(Boundary.DIRICHLET, alpha=0.6)
        t = one_mode(cfg, ModalWeight(3, 0.0, 0.0, 0.0))
        mu = closed_loop_spectrum(t)
        mus = sorted(mu[0].tolist(), key=lambda z: (z.real, z.imag))
        lams = sorted(open_loop_spectrum(cfg, t.n)[0].tolist(), key=lambda z: (z.real, z.imag))
        np.testing.assert_allclose(mus, lams, atol=1e-12)

    def test_dirichlet_fundamental_stable(self, dirichlet_cfg):
        t = one_mode(dirichlet_cfg, ModalWeight(1, 1.0, 0.0, 1.0))
        mu_plus, mu_minus = closed_loop_spectrum(t)[0]
        A = np.array([[0.0, 1.0],
                      [-np.pi**2 * (1.0 + t.p12[0]), -np.pi**2 * t.p22[0]]])
        ref = np.linalg.eigvals(A)
        assert mu_plus.real < 0 and mu_minus.real < 0
        np.testing.assert_allclose(
            sorted([mu_plus.imag, mu_minus.imag]), sorted(ref.imag), rtol=1e-12
        )
        assert classify(max(mu_plus.real, mu_minus.real)) is Stability.STABLE

    def test_conjugate_pair(self, neumann_cfg):
        t = one_mode(neumann_cfg, ModalWeight(4, 0.1, 0.0, 0.1))
        mu_plus, mu_minus = closed_loop_spectrum(t)[0]
        assert mu_minus == mu_plus.conjugate()
        assert mu_plus.imag > 0

    def test_marginal_classification(self, dirichlet_cfg):
        t = one_mode(dirichlet_cfg, ModalWeight(2, 0.0, 0.0, 0.0))
        mu = closed_loop_spectrum(t)
        assert classify(mu[0].real.max()) is Stability.MARGINAL

    def test_formula_cross_check_over_sweep(self):
        worst = 0.0
        n = np.array([1, 2, 13, 200])
        for boundary in (Boundary.DIRICHLET, Boundary.NEUMANN):
            for alpha, beta, R, q, r in sweep_configs()[::13]:
                cfg = WaveConfig(boundary, alpha=alpha, beta=beta, R=R)
                t = power_table(cfg, n, q, r)
                mu = closed_loop_spectrum(t)
                # analytic roots from the trace and determinant of F + G K
                tr, det = closed_loop_trace_det(t)
                root = np.sqrt((tr * tr - 4.0 * det).astype(complex))
                mu_f = np.stack([(tr + root) / 2.0, (tr - root) / 2.0], axis=1)
                for got, ref in zip(mu.tolist(), mu_f.tolist()):
                    got = sorted(got, key=lambda z: (z.real, z.imag))
                    ref = sorted(ref, key=lambda z: (z.real, z.imag))
                    scale = 1.0 + max(abs(z) for z in ref)
                    worst = max(worst, max(abs(g - e) for g, e in zip(got, ref)) / scale)
        assert worst < 1e-9

    def test_trace_det_identities(self):
        n = np.array([1, 3, 50, 200])
        for boundary in (Boundary.DIRICHLET, Boundary.NEUMANN):
            for alpha, beta, R, q, r in sweep_configs()[::7]:
                cfg = WaveConfig(boundary, alpha=alpha, beta=beta, R=R)
                t = power_table(cfg, n, q, r)
                mu = closed_loop_spectrum(t)
                c = input_gain_sq(cfg, n)
                tr = -(cfg.alpha + c * t.p22)
                det = (n * np.pi) ** 2 + c * t.p12
                s = mu[:, 0] + mu[:, 1]
                p = mu[:, 0] * mu[:, 1]
                assert np.all(np.abs(s.real - tr) <= 1e-10 * np.maximum(1.0, np.abs(tr)))
                assert np.all(np.abs(s.imag) <= 1e-10 * np.maximum(1.0, np.abs(tr)))
                assert np.all(np.abs(p.real - det) <= 1e-10 * np.maximum(1.0, np.abs(det)))

    def test_zero_eigenvalue_is_marginal(self):
        # Neumann mean mode with no displacement weight: the optimal loop
        # leaves the rigid-displacement integrator untouched, so mu_plus = 0
        cfg = WaveConfig(Boundary.NEUMANN, alpha=0.5)
        t = one_mode(cfg, ModalWeight(0, 0.0, 0.0, 1.0))
        mu = closed_loop_spectrum(t)
        assert mu[0, 0] == 0.0
        assert classify(mu[0].real.max()) is Stability.MARGINAL

    def test_damping_eventually_decreases_in_n(self):
        # feedback threshold for the gain series is r > 2; just above it the
        # per-mode damping decays with the mode number
        cfg = WaveConfig(Boundary.DIRICHLET, alpha=0.0, beta=1.0, R=1.0)
        fam = PowerLawWeights(q=1.0, r=2.5)
        mu = closed_loop_spectrum(solve_family(cfg, fam, 200))
        damp = np.abs(mu.real.max(axis=1)).tolist()
        peak = int(np.argmax(damp))
        tail = damp[peak:]
        assert all(b < a for a, b in zip(tail, tail[1:]))


def assert_spectra_match(got, expect, tol):
    """Multiset comparison of eigenvalue lists by optimal pairing."""
    from scipy.optimize import linear_sum_assignment

    got = np.asarray(got, dtype=complex)
    expect = np.asarray(expect, dtype=complex)
    assert len(got) == len(expect)
    cost = np.abs(got[:, None] - expect[None, :])
    rows, cols = linear_sum_assignment(cost)
    assert cost[rows, cols].max() <= tol


class TestCoupledSpectrum:
    def test_zero_gains_give_open_loop(self):
        cfg = WaveConfig(Boundary.DIRICHLET, alpha=0.4)
        no_gains = solve_family(cfg, ExplicitWeights({}), 5)
        ev, absc = coupled_spectrum(no_gains)
        expect = open_loop_spectrum(cfg, mode_range(cfg.boundary, 5)).ravel()
        assert_spectra_match(ev, expect, 1e-10)
        np.testing.assert_allclose(absc, expect.real.max(), atol=1e-12)

    @pytest.mark.parametrize("boundary", [Boundary.DIRICHLET, Boundary.NEUMANN])
    def test_single_active_gain_block_triangular(self, boundary):
        cfg = WaveConfig(boundary, alpha=0.0, beta=1.0, R=1.0)
        N, k = 6, 3
        t = solve_family(cfg, ExplicitWeights({k: ModalWeight(k, 1.0, 0.0, 1.0)}), N)
        ev, _ = coupled_spectrum(t)
        others = [n for n in mode_range(cfg.boundary, N) if n != k]
        expect = np.concatenate([closed_loop_spectrum(t[t.n == k])[0],
                                 open_loop_spectrum(cfg, others).ravel()])
        assert_spectra_match(ev, expect, 1e-8)

    def test_diagonal_blocks_exact(self):
        for boundary in (Boundary.DIRICHLET, Boundary.NEUMANN):
            cfg = WaveConfig(boundary, alpha=0.1, beta=1.5, R=0.5)
            fam = PowerLawWeights(q=1.0, r=3.0)
            sols = solve_family(cfg, fam, 6)
            modes = sols.n
            A, B, Krow = coupled_loop_parts(sols)
            A = A + B @ Krow
            F, G = modal_matrices(cfg, modes)
            for i in range(len(modes)):
                expect = F[i] + np.outer(G[i], [sols.k1[i], sols.k2[i]])
                block = A[2 * i : 2 * i + 2, 2 * i : 2 * i + 2]
                assert np.array_equal(block, expect)

    def test_coupling_blocks_follow_true_inputs(self, dirichlet_cfg):
        from wavelqr.model import true_modal_input

        fam = PowerLawWeights(q=1.0, r=5.0)
        sols = solve_family(dirichlet_cfg, fam, 3)
        modes = sols.n
        A, B, Krow = coupled_loop_parts(sols)
        g_true, _ = true_modal_input(dirichlet_cfg, modes)
        for i in range(len(modes)):
            np.testing.assert_allclose(B[2 * i : 2 * i + 2, 0], g_true[i])

    def test_abscissa_regression_dirichlet_r5(self, dirichlet_cfg):
        fam = PowerLawWeights(q=1.0, r=5.0)
        sols = solve_family(dirichlet_cfg, fam, 8)
        _, absc = coupled_spectrum(sols)
        np.testing.assert_allclose(absc, -0.06391980679316855, rtol=1e-6)
        permode = closed_loop_spectrum(sols).real.max()
        np.testing.assert_allclose(permode, -0.06947497512348247, rtol=1e-6)
        assert absc < 0


def dense_closed_loop(sols):
    A, B, Krow = coupled_loop_parts(sols)
    return A + B @ Krow


class TestCoupledModes:
    """The secular-equation eigenstructure of the coupled loop against dense
    eigvals, the test reference up to N=512."""

    @pytest.mark.parametrize("boundary, alpha", [(Boundary.DIRICHLET, 0.0), (Boundary.NEUMANN, 0.2)])
    @pytest.mark.parametrize("N", [8, 64, 256, 512])
    def test_spectrum_matches_dense_eigvals(self, boundary, alpha, N):
        """The example family's roots verify, and every eigenvalue and the
        abscissa match dense eigvals within 1e-12 of the largest magnitude
        (measured worst case 3.8e-14, at N=512)."""
        cfg = WaveConfig(boundary, alpha=alpha, beta=1.0, R=1.0)
        sols = solve_family(cfg, PowerLawWeights(1.0, 5.0), N)
        assert coupled_modes(sols, np.ones((len(sols), 2))) is not None
        ev, absc = coupled_spectrum(sols)
        ref = np.linalg.eigvals(dense_closed_loop(sols))
        tol = 1e-12 * np.abs(ref).max()
        assert_spectra_match(ev, ref, tol)
        assert abs(absc - ref.real.max()) <= tol
        assert np.all(np.diff(ev.real) >= 0)

    @staticmethod
    def assert_eigenstructure(sols, modes, a0):
        """modes matches dense eigvals, its vectors are eigenvectors, the
        frozen poles' directions are what Krow cannot see, and the
        expansion with the open-loop remainder gives back a0."""
        A, B, Krow = coupled_loop_parts(sols)
        A_cl = A + B @ Krow
        ref = np.linalg.eigvals(A_cl)
        assert_spectra_match(modes.spectrum, ref, 1e-12 * np.abs(ref).max())
        V = modes.vectors[0::2] - 1j * modes.vectors[1::2]
        scale = np.abs(V).max(axis=1, keepdims=True) * np.abs(ref).max()
        assert np.all(np.abs(V @ A_cl.T - modes.roots[:, None] * V) <= 1e-13 * scale)
        full = (modes.coef.view(float) @ modes.vectors).reshape(-1, 2)
        full[modes.open_modes] += modes.rest
        assert np.abs(full - a0).max() <= 1e-12 * np.abs(a0).max()
        rest = np.zeros_like(a0)
        rest[modes.open_modes] = modes.rest
        seen = Krow @ np.stack([rest.reshape(-1), A @ rest.reshape(-1)], axis=1)
        assert np.abs(seen).max() <= 1e-12 * np.abs(Krow).max() * np.abs(A).max() * np.abs(a0).max()

    @pytest.mark.parametrize("boundary", [Boundary.DIRICHLET, Boundary.NEUMANN])
    def test_sweep_roots_all_verify(self, boundary):
        """Every set of the acceptance sweep verifies at N=8, Newton's or
        the Aberth retry's roots, without a floating-point warning
        (pyproject turns them into errors); the Neumann mean mode freezes
        its pole -alpha on the sets with alpha = 1."""
        for alpha, beta, R, q, r in sweep_configs():
            cfg = WaveConfig(boundary, alpha=alpha, beta=beta, R=R)
            sols = solve_family(cfg, PowerLawWeights(q, r), 8)
            a0 = np.linspace(1.0, -0.5, 2 * len(sols)).reshape(-1, 2)
            modes = coupled_modes(sols, a0)
            self.assert_eigenstructure(sols, modes, a0)
            mean_frozen = boundary == Boundary.NEUMANN and alpha == 1.0
            assert modes.frozen.tolist() == ([-1.0] if mean_frozen else [])
            assert modes.open_modes.tolist() == ([0] if mean_frozen else [])

    def test_gainless_poles_come_back_frozen(self):
        """A mode without gain puts both its open-loop poles in the
        spectrum, which the secular equation cannot see: they come back
        frozen, the remainder on that mode is a0's part along them, and
        the spectrum matches eigvals."""
        cfg = WaveConfig(Boundary.DIRICHLET, alpha=0.0, beta=1.0, R=1.0)
        sols = solve_family(cfg, ExplicitWeights({n: ModalWeight(n, 1.0, 0.0, 1.0) for n in (1, 2, 4)}), 4)
        a0 = np.ones((4, 2))
        modes = coupled_modes(sols, a0)
        np.testing.assert_array_equal(modes.frozen, open_loop_spectrum(cfg, [3])[0])
        assert modes.open_modes.tolist() == [2]
        self.assert_eigenstructure(sols, modes, a0)
        ev, absc = coupled_spectrum(sols)
        ref = np.linalg.eigvals(dense_closed_loop(sols))
        assert_spectra_match(ev, ref, 1e-12 * np.abs(ref).max())
        assert abs(absc - ref.real.max()) <= 1e-12 * np.abs(ref).max()

    @pytest.mark.parametrize("N", [8, 64])
    @pytest.mark.parametrize("alpha", [1.0, 1.0 - 1e-12, 1.0 + 1e-12, 1.0 - 1e-9, 1.0 + 1e-9])
    def test_neumann_mean_mode_near_alpha_one(self, alpha, N):
        """At alpha = 1 with Q11 = Q22 the mean mode's k1 = alpha k2 hides
        its pole -alpha from Krow: the pole comes back frozen.  Near it the
        pole is a root again, within rounding of the cancelled one."""
        cfg = WaveConfig(Boundary.NEUMANN, alpha=alpha, beta=1.0, R=1.0)
        sols = solve_family(cfg, PowerLawWeights(1.0, 4.5), N)
        a0 = np.linspace(1.0, -0.5, 2 * len(sols)).reshape(-1, 2)
        modes = coupled_modes(sols, a0)
        self.assert_eigenstructure(sols, modes, a0)
        assert len(modes.frozen) == (alpha == 1.0)

    def test_unverified_roots_raise(self, monkeypatch):
        """Where the roots cannot be verified, coupled_modes and
        coupled_spectrum raise UnverifiedModes naming the failed check, and
        no floating-point warning escapes."""
        monkeypatch.setattr(spectrum, "_NEWTON_CAP", 0)
        cfg = WaveConfig(Boundary.DIRICHLET, alpha=0.1, beta=1.0, R=1.0)
        sols = solve_family(cfg, PowerLawWeights(1.0, 5.0), 8)
        with pytest.raises(UnverifiedModes, match="did not converge within 0 steps"):
            coupled_modes(sols, np.ones((8, 2)))
        with pytest.raises(UnverifiedModes, match="did not converge"):
            coupled_spectrum(sols)
