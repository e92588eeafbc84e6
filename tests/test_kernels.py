import tracemalloc

import numpy as np
import pytest

from conftest import one_mode
from wavelqr import kernels
from wavelqr.kernels import (
    QUAD_WARNING,
    assemble_K,
    assemble_P,
    assemble_Q,
    basis_matrix,
    convergence_report,
    decay_fit,
    pde_residual,
    pde_residual_diagonal,
    residual_coefficient_matrices,
    series_thresholds,
    summability_warnings,
)
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
from wavelqr.quad import simpson_weights
from wavelqr.riccati import modal_table, solve_family


def zero_table(cfg, n):
    """The solutions of zero weights at the modes n: P and K all zero."""
    k = len(n)
    return modal_table(cfg, n, np.zeros(k), np.zeros(k), np.zeros(k))


def family_table(cfg, family, n):
    """Closed-form table of the modes n under a weight family."""
    return modal_table(cfg, n, *weight_arrays(family, n))


class TestAssembleP:
    def test_single_mode_midpoint_identity(self, dirichlet_cfg):
        ones = np.ones(1)
        unit = zero_table(dirichlet_cfg, [1])._replace(p11=ones, p12=ones, p22=ones)
        kf = assemble_P(unit, np.array([0.5]))
        np.testing.assert_allclose(kf.values[0, 0], np.ones((2, 2)), rtol=1e-15)

    def test_symmetry_at_random_pairs(self, rng, dirichlet_cfg):
        sols = solve_family(dirichlet_cfg, PowerLawWeights(1.0, 5.0), 16)
        a = rng.random(100)
        b = rng.random(100)
        kab = assemble_P(sols, a, grid_x2=b)
        kba = assemble_P(sols, b, grid_x2=a)
        for i in range(100):
            np.testing.assert_allclose(
                kab.values[i, i], kba.values[i, i].T, rtol=0, atol=1e-14
            )

    def test_dirichlet_boundary_rows_vanish(self, dirichlet_cfg):
        sols = solve_family(dirichlet_cfg, PowerLawWeights(1.0, 5.0), 32)
        grid = np.linspace(0.0, 1.0, 101)
        kf = assemble_P(sols, grid)
        assert np.abs(kf.values[0]).max() < 1e-12
        assert np.abs(kf.values[-1]).max() < 1e-12
        assert np.abs(kf.values[:, 0]).max() < 1e-12
        assert np.abs(kf.values[:, -1]).max() < 1e-12

    def test_neumann_edge_slope_second_order(self, neumann_cfg):
        sols = solve_family(neumann_cfg, PowerLawWeights(1.0, 7.0), 16)
        h = 1e-3
        grid = np.array([0.0, h, 2 * h, 1.0 - 2 * h, 1.0 - h, 1.0])
        kf = assemble_P(sols, grid)
        # curvature bound of the truncated series scales the O(h^2) slope
        curv = np.sum(np.abs(sols.matrices).max(axis=(1, 2)) * (sols.n * np.pi) ** 2)
        left = np.abs(kf.values[1] - kf.values[0]).max() / h
        right = np.abs(kf.values[-1] - kf.values[-2]).max() / h
        assert left <= 0.6 * curv * h
        assert right <= 0.6 * curv * h

    def test_empty_solutions(self, dirichlet_cfg):
        kf = assemble_P(zero_table(dirichlet_cfg, []), np.linspace(0, 1, 5))
        assert kf.values.shape == (5, 5, 2, 2) and np.all(kf.values == 0.0)

    def test_cauchy_tail_regression_p11(self, dirichlet_cfg):
        """Partial-sum sup differences shrink slowly for r = 5 but do shrink.

        Frozen from a direct evaluation: the 128 -> 256 difference is about
        0.0994, two orders above naive expectations because the P11
        coefficients decay only like n^(-1.5).
        """
        grid = np.linspace(0.0, 1.0, 201)

        def tail_sup(n1, n2):
            fam = PowerLawWeights(1.0, 5.0)
            sols = family_table(dirichlet_cfg, fam, np.arange(n1 + 1, n2 + 1))
            kf = assemble_P(sols, grid)
            return float(np.abs(kf.values[:, :, 0, 0]).max())

        d1 = tail_sup(128, 256)
        d2 = tail_sup(256, 512)
        np.testing.assert_allclose(d1, 0.09943576477914128, rtol=1e-6)
        np.testing.assert_allclose(d2, 0.07041133199459508, rtol=1e-6)
        assert d2 < d1


def einsum_series(coeff, phi1, phi2):
    """The assembly the matrix products replace: one einsum over (k, 2, 2) coefficients."""
    return np.einsum("kab,ki,kj->ijab", coeff, phi1, phi2, optimize=True)


def assert_matches_reference(values, reference):
    assert values.shape == reference.shape
    scale = np.abs(reference).max()
    assert np.abs(values - reference).max() <= 1e-13 * scale
    # the (2, 1) entry is a copy of the (1, 2) entry, not a separate product
    assert np.array_equal(values[..., 1, 0], values[..., 0, 1])


class TestSeriesAssemblyAgainstEinsum:
    @pytest.mark.parametrize("boundary", [Boundary.DIRICHLET, Boundary.NEUMANN])
    @pytest.mark.parametrize("N,points", [(8, 21), (40, 21)], ids=["N<G", "N>G"])
    def test_assemble_P(self, boundary, N, points):
        cfg = WaveConfig(boundary, alpha=0.2, beta=1.5, R=0.7)
        sols = solve_family(cfg, PowerLawWeights(2.0, 3.5), N)
        grid = np.linspace(0.0, 1.0, points)
        kf = assemble_P(sols, grid)
        phi = basis_matrix(boundary, sols.n, grid)
        assert_matches_reference(kf.values, einsum_series(sols.matrices, phi, phi))

    @pytest.mark.parametrize("boundary", [Boundary.DIRICHLET, Boundary.NEUMANN])
    def test_assemble_P_rectangular(self, rng, boundary):
        cfg = WaveConfig(boundary, alpha=0.0, beta=1.0, R=1.0)
        sols = solve_family(cfg, PowerLawWeights(1.0, 5.0), 40)
        x1 = rng.random(17)
        x2 = rng.random(9)
        kf = assemble_P(sols, x1, grid_x2=x2)
        ref = einsum_series(sols.matrices, basis_matrix(boundary, sols.n, x1),
                            basis_matrix(boundary, sols.n, x2))
        assert_matches_reference(kf.values, ref)

    @pytest.mark.parametrize("boundary", [Boundary.DIRICHLET, Boundary.NEUMANN])
    @pytest.mark.parametrize("family", [
        PowerLawWeights(1.0, 2.5),
        ExplicitWeights({1: ModalWeight(1, 2.0, 0.5, 1.0), 3: ModalWeight(3, 1.0, -0.8, 1.0),
                         30: ModalWeight(30, 0.3, 0.1, 0.2)}),
    ], ids=["power", "explicit-Q12"])
    @pytest.mark.parametrize("N,points", [(8, 21), (40, 21)], ids=["N<G", "N>G"])
    def test_assemble_Q(self, boundary, family, N, points):
        grid = np.linspace(0.0, 1.0, points)
        kq = assemble_Q(family, grid, boundary, N)
        modes = list(mode_range(boundary, N))
        q11, q12, q22 = weight_arrays(family, modes)
        coeff = np.stack([[q11, q12], [q12, q22]]).transpose(2, 0, 1)
        phi = basis_matrix(boundary, modes, grid)
        assert_matches_reference(kq.values, einsum_series(coeff, phi, phi))


class TestAssembleK:
    def test_zero_solutions_zero_profile(self, dirichlet_cfg):
        sols = zero_table(dirichlet_cfg, range(1, 5))
        prof = assemble_K(sols, np.linspace(0, 1, 11))
        assert np.all(prof.values == 0.0)

    def test_single_dirichlet_mode_shape(self, dirichlet_cfg):
        n = 3
        sol = one_mode(dirichlet_cfg, ModalWeight(n, 1.0, 0.0, 1.0))
        grid = np.linspace(0.0, 1.0, 41)
        prof = assemble_K(sol, grid)
        scale = -(dirichlet_cfg.beta / dirichlet_cfg.R) * n * np.pi
        coef = scale * np.array([sol.p12[0], sol.p22[0]])
        expect = np.outer(np.sin(n * np.pi * grid), coef)
        np.testing.assert_allclose(prof.values, expect, atol=1e-14)

    def test_dirichlet_profile_vanishes_at_ends(self, dirichlet_cfg):
        sols = solve_family(dirichlet_cfg, PowerLawWeights(1.0, 3.0), 24)
        prof = assemble_K(sols, np.linspace(0, 1, 21))
        assert np.abs(prof.values[0]).max() < 1e-12
        assert np.abs(prof.values[-1]).max() < 1e-12

    def test_dirichlet_matches_kernel_derivative_trace(self, dirichlet_cfg):
        # K(x2) = -R^-1 beta dP/dx1 at x1 = 0, rows (2,1) and (2,2); checked
        # by finite differences of the assembled kernel
        sols = solve_family(dirichlet_cfg, PowerLawWeights(1.0, 5.0), 8)
        grid = np.linspace(0.0, 1.0, 21)
        h = 1e-6
        k_near = assemble_P(sols, np.array([0.0, h, 2 * h]), grid_x2=grid)
        dP21 = (-3 * k_near.values[0, :, 1, 0] + 4 * k_near.values[1, :, 1, 0]
                - k_near.values[2, :, 1, 0]) / (2 * h)
        dP22 = (-3 * k_near.values[0, :, 1, 1] + 4 * k_near.values[1, :, 1, 1]
                - k_near.values[2, :, 1, 1]) / (2 * h)
        expect = -(dirichlet_cfg.beta / dirichlet_cfg.R) * np.stack([dP21, dP22], axis=1)
        prof = assemble_K(sols, grid)
        np.testing.assert_allclose(prof.values, expect, rtol=1e-6, atol=1e-8)

    def test_neumann_matches_kernel_value_trace(self, neumann_cfg):
        # K(x2) = -R^-1 beta P(1, x2), rows (2,1) and (2,2)
        sols = solve_family(neumann_cfg, PowerLawWeights(1.0, 7.0), 8)
        grid = np.linspace(0.0, 1.0, 21)
        edge = assemble_P(sols, np.array([1.0]), grid_x2=grid)
        expect = -(neumann_cfg.beta / neumann_cfg.R) * np.stack(
            [edge.values[0, :, 1, 0], edge.values[0, :, 1, 1]], axis=1
        )
        prof = assemble_K(sols, grid)
        np.testing.assert_allclose(prof.values, expect, rtol=0, atol=1e-13)

    def test_neumann_single_mode_sign_flip_at_origin(self, neumann_cfg):
        sol = one_mode(neumann_cfg, ModalWeight(1, 1.0, 0.0, 1.0))
        prof = assemble_K(sol, np.array([0.0]))
        expect = +(neumann_cfg.beta / neumann_cfg.R) * np.array([sol.p12[0], sol.p22[0]])
        np.testing.assert_allclose(prof.values[0], expect, rtol=1e-14)


class TestAssembleQ:
    def test_non_summable_warning(self, dirichlet_cfg):
        assert summability_warnings(PowerLawWeights(1.0, 1.0)) == (QUAD_WARNING,)
        assert summability_warnings(PowerLawWeights(1.0, 1.5)) == ()
        assert summability_warnings(ExplicitWeights({})) == ()

    def test_zero_family_zero_field(self):
        kf = assemble_Q(ExplicitWeights({}), np.linspace(0, 1, 11),
                        Boundary.NEUMANN, 8)
        assert np.all(kf.values == 0.0)

    def test_single_mode_product_structure(self):
        fam = ExplicitWeights({1: ModalWeight(1, 1.0, 0.0, 1.0)})
        grid = np.linspace(0.0, 1.0, 31)
        kf = assemble_Q(fam, grid, Boundary.DIRICHLET, 1)
        s = np.sin(np.pi * grid)
        np.testing.assert_allclose(kf.values[:, :, 0, 0], np.outer(s, s), atol=1e-15)
        np.testing.assert_allclose(kf.values[:, :, 0, 1], 0.0, atol=1e-15)


class TestPdeResidual:
    @pytest.mark.parametrize("boundary,k", [(Boundary.DIRICHLET, 2), (Boundary.NEUMANN, 1)])
    def test_single_active_mode_residual_vanishes(self, boundary, k):
        cfg = WaveConfig(boundary, alpha=0.3, beta=1.2, R=0.8)
        fam = ExplicitWeights({k: ModalWeight(k, 1.0, 0.2, 2.0)})
        sols = solve_family(cfg, fam, 6)
        grid = np.linspace(0.0, 1.0, 201)
        fields = pde_residual(sols, grid)
        assert np.abs(fields.values).max() <= 1e-10

    def test_zero_weights_zero_residual(self, dirichlet_cfg):
        fam = ExplicitWeights({})
        sols = solve_family(dirichlet_cfg, fam, 4)
        fields = pde_residual(sols, np.linspace(0, 1, 51))
        assert fields.values.shape == (51, 51, 2, 2)
        assert np.abs(fields.values).max() == 0.0

    def test_two_mode_cross_term_formula(self, dirichlet_cfg):
        """The surviving first-equation residual is exactly
        -gamma^2 sum_{m != n} m n pi^2 P12^m P21^n sin(m pi x1) sin(n pi x2)."""
        fam = ExplicitWeights(
            {1: ModalWeight(1, 1.0, 0.0, 1.0), 3: ModalWeight(3, 0.5, 0.0, 0.5)},
        )
        sols = solve_family(dirichlet_cfg, fam, 3)
        p12 = dict(zip(sols.n.tolist(), sols.p12))
        grid = np.linspace(0.0, 1.0, 201)
        fields = pde_residual(sols, grid)
        g2 = dirichlet_cfg.gamma_sq
        expect = np.zeros((201, 201))
        for m in (1, 3):
            for n in (1, 3):
                if m == n:
                    continue
                expect -= (
                    g2 * m * n * np.pi**2 * p12[m] * p12[n]
                    * np.outer(np.sin(m * np.pi * grid), np.sin(n * np.pi * grid))
                )
        np.testing.assert_allclose(fields.values[..., 0, 0], expect, atol=1e-10)

    def test_diagonal_coefficients_match_modal_residuals(self, neumann_cfg):
        fam = PowerLawWeights(1.0, 4.0)
        sols = solve_family(neumann_cfg, fam, 6)
        modes, mats = residual_coefficient_matrices(sols)
        for m, key in zip(mats, range(4)):
            np.testing.assert_allclose(
                np.diag(m), sols.residuals[:, key], atol=1e-14
            )

    def test_diagonal_extraction_by_quadrature(self, dirichlet_cfg):
        fam = PowerLawWeights(1.0, 5.0)
        sols = solve_family(dirichlet_cfg, fam, 12)
        npts = 1001
        grid = np.linspace(0.0, 1.0, npts)
        fields = pde_residual(sols, grid)
        wq = simpson_weights(npts, grid[1] - grid[0])
        phi = basis_matrix(Boundary.DIRICHLET, sols.n, grid)
        pw = projection_weight(Boundary.DIRICHLET, sols.n)
        proj = (phi * wq) / pw[:, None]
        for f in fields.values.transpose(2, 3, 0, 1).reshape(4, npts, npts):
            coeffs = proj @ f @ proj.T
            assert np.abs(np.diag(coeffs)).max() <= 1e-8

    @pytest.mark.parametrize("block", [None, 7])
    @pytest.mark.parametrize("alpha", [0.0, 0.2])
    @pytest.mark.parametrize("boundary", [Boundary.DIRICHLET, Boundary.NEUMANN])
    @pytest.mark.parametrize("N", [1, 8, 64])
    def test_gram_diagonal_matches_field_projection(self, monkeypatch, N, boundary, alpha, block):
        """diag(Gamma M Gamma') equals diag(proj f proj') of the assembled fields."""
        if block is not None:  # several row blocks, the last one partial
            monkeypatch.setattr(kernels, "GRAM_ROWS", block)
        cfg = WaveConfig(boundary, alpha=alpha, beta=1.0, R=1.0)
        fam = PowerLawWeights(1.0, 5.0)
        sols = solve_family(cfg, fam, N)
        npts = max(401, 20 * N + 1)
        grid = np.linspace(0.0, 1.0, npts)
        wq = simpson_weights(npts, grid[1] - grid[0])
        fields = pde_residual(sols, grid)
        proj = basis_matrix(boundary, sols.n, grid) * wq / projection_weight(boundary, sols.n)[:, None]
        ref = np.stack([np.diag(proj @ f @ proj.T)
                        for f in fields.values.transpose(2, 3, 0, 1).reshape(4, npts, npts)])
        got = pde_residual_diagonal(sols, npts)
        assert got.shape == (4, len(sols))
        np.testing.assert_allclose(got, ref, rtol=0, atol=1e-14)

    @staticmethod
    def sampled_gram_diagonal(sols, npts):
        """The Gram matrix of the sampled basis, accumulated over blocks of
        2048 grid points, and diag(Gamma M Gamma') of the dense
        coefficient matrices."""
        modes, mats = residual_coefficient_matrices(sols)
        grid = np.linspace(0.0, 1.0, npts)
        wq = simpson_weights(npts, grid[1] - grid[0])
        gram = np.zeros((len(modes), len(modes)))
        for lo in range(0, npts, 2048):
            phi = basis_matrix(sols.cfg.boundary, modes, grid[lo:lo + 2048])
            gram += (phi * wq[lo:lo + 2048]) @ phi.T
        gram /= projection_weight(sols.cfg.boundary, modes)[:, None]
        return np.stack([np.einsum("ij,ij->i", gram @ m, gram) for m in mats])

    @pytest.mark.parametrize("alpha", [0.0, 0.2])
    @pytest.mark.parametrize("boundary", [Boundary.DIRICHLET, Boundary.NEUMANN])
    @pytest.mark.parametrize("N", [0, 1, 32, 128, 512])
    def test_fft_gram_matches_sampled_gram(self, N, boundary, alpha):
        """The Toeplitz-Hankel Gram matrix gives the sampled one's diagonal.

        N = 0 under Neumann is the mean mode alone.  The largest deviation
        measured over these cases is 1.9e-15 (N = 128, Neumann, alpha = 0),
        against values of at most 1.7e-15 and the check's tolerance of 1e-8.
        """
        cfg = WaveConfig(boundary, alpha=alpha, beta=1.0, R=1.0)
        sols = solve_family(cfg, PowerLawWeights(1.0, 5.0), N)
        npts = max(401, 20 * N + 1)
        got = pde_residual_diagonal(sols, npts)
        assert got.shape == (4, len(sols))
        np.testing.assert_allclose(got, self.sampled_gram_diagonal(sols, npts), rtol=0, atol=5e-15)

    @pytest.mark.parametrize("npts", [41, 13])
    @pytest.mark.parametrize("boundary", [Boundary.DIRICHLET, Boundary.NEUMANN])
    def test_fft_gram_off_identity(self, boundary, npts):
        """Modes out of order and a grid too coarse for them: Gamma is far
        from the identity, and the diagonal still follows the sampled Gram
        matrix.  S(j) is periodic in j with period 2 (npts - 1); on 13
        points some |m - n| and m + n pass that period, where S wraps
        around."""
        cfg = WaveConfig(boundary, alpha=0.2, beta=1.0, R=1.0)
        fam = PowerLawWeights(1.0, 2.0)
        modes = [17, 3, 23, 29, 11, 37, 13] + ([0] if boundary == Boundary.NEUMANN else [])
        sols = family_table(cfg, fam, modes)
        got = pde_residual_diagonal(sols, npts)
        ref = self.sampled_gram_diagonal(sols, npts)
        assert np.abs(ref).max() > 1e-5
        np.testing.assert_allclose(got, ref, rtol=1e-12, atol=1e-15)

    def test_fft_gram_memory_bound(self, neumann_cfg):
        """At N = 512 the peak is a few row blocks of Gamma plus O(npts) for
        the FFT, 4.7 MB at most: no k x npts sample of the basis (42 MB
        here) and not the four dense k x k coefficient matrices (8.4 MB)."""
        sols = solve_family(neumann_cfg, PowerLawWeights(1.0, 5.0), 512)
        npts = 20 * 512 + 1
        pde_residual_diagonal(sols, npts)
        tracemalloc.start()
        try:
            pde_residual_diagonal(sols, npts)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        k = len(sols)
        assert peak <= 4 * kernels.GRAM_ROWS * k * 8 + 48 * npts

    def test_even_point_count_refused(self, dirichlet_cfg):
        sols = solve_family(dirichlet_cfg, PowerLawWeights(1.0, 5.0), 4)
        with pytest.raises(ValueError, match="odd number of points"):
            pde_residual_diagonal(sols, 400)

    def test_duplicate_modes_rejected(self, dirichlet_cfg):
        fam = PowerLawWeights(1.0, 5.0)
        sol = family_table(dirichlet_cfg, fam, [1])
        with pytest.raises(ValueError, match="more than once"):
            pde_residual(sol[[0, 0]], np.linspace(0, 1, 11))


class TestDecayFit:
    def test_exact_power_sequence(self):
        ns = np.arange(10, 200)
        np.testing.assert_allclose(decay_fit(ns, ns.astype(float) ** -2), -2.0, atol=1e-12)

    def test_synthetic_exponent_recovery(self, rng):
        ns = np.arange(5, 500)
        for p in (-0.5, -3.7, -9.0):
            vals = 2.3 * ns.astype(float) ** p
            np.testing.assert_allclose(decay_fit(ns, vals), p, atol=1e-6)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            decay_fit([1, 2, 3], [1.0, -1.0, 0.5])

    def test_dirichlet_r5_component_exponents(self, dirichlet_cfg):
        r = 5
        ns = np.arange(50, 501)
        t = family_table(dirichlet_cfg, PowerLawWeights(1.0, r), ns)
        p12, p22, p11 = t.p12, t.p22, t.p11
        # P12 ~ q / (2 pi^2 n^(r+2)): derivation in test_criterion_4 (test_acceptance.py)
        assert abs(decay_fit(ns, p12) - (-(r + 2))) < 0.1
        assert abs(decay_fit(ns, p22) - (-3.5)) < 0.1
        assert abs(decay_fit(ns, p11) - (-1.5)) < 0.1

    def test_neumann_r7_component_exponents(self, neumann_cfg):
        # P22 and P11 follow the -r/2 and 2-r/2 rates
        r = 7
        ns = np.arange(50, 501)
        t = family_table(neumann_cfg, PowerLawWeights(1.0, r), ns)
        p12, p22, p11 = t.p12, t.p22, t.p11
        assert abs(decay_fit(ns, p22) - (-3.5)) < 0.1
        assert abs(decay_fit(ns, p11) - (-1.5)) < 0.1
        # P12 ~ q / (2 pi^2 n^(r+2)): derivation in test_criterion_4 (test_acceptance.py)
        assert abs(decay_fit(ns, p12) - (-(r + 2))) < 0.1


class TestConvergenceReport:
    def test_thresholds(self):
        assert series_thresholds(Boundary.DIRICHLET) == {"Q": 1.0, "K": 2.0, "P11": 4.0}
        assert series_thresholds(Boundary.NEUMANN) == {"Q": 1.0, "K": 2.0, "P11": 6.0}

    @pytest.mark.parametrize("r,expect", [
        (1.5, {"Q": "convergent", "K": "divergent", "P11": "divergent"}),
        (2.5, {"Q": "convergent", "K": "convergent", "P11": "divergent"}),
        (4.5, {"Q": "convergent", "K": "convergent", "P11": "convergent"}),
        (6.5, {"Q": "convergent", "K": "convergent", "P11": "convergent"}),
    ])
    def test_dirichlet_verdicts(self, dirichlet_cfg, r, expect):
        rep = convergence_report(
            dirichlet_cfg, PowerLawWeights(1.0, r), [16, 32, 64],
            fit_window=(50, 150),
        )
        for name, verdict in expect.items():
            assert rep[name].verdict == verdict

    @pytest.mark.parametrize("r,p11", [
        (4.5, "divergent"), (5.0, "divergent"), (6.5, "convergent"),
    ])
    def test_neumann_p11_threshold(self, neumann_cfg, r, p11):
        rep = convergence_report(
            neumann_cfg, PowerLawWeights(1.0, r), [16, 32, 64],
            fit_window=(50, 150),
        )
        assert rep["P11"].verdict == p11

    def test_dirichlet_r3_k_convergent(self, dirichlet_cfg):
        rep = convergence_report(
            dirichlet_cfg, PowerLawWeights(1.0, 3.0), [16, 32, 64],
            fit_window=(50, 150),
        )
        assert rep["K"].verdict == "convergent"
        assert rep["P11"].verdict == "divergent"

    def test_convergent_series_cauchy_decreasing(self, dirichlet_cfg):
        rep = convergence_report(
            dirichlet_cfg, PowerLawWeights(1.0, 5.0), [16, 32, 64, 128],
            fit_window=(50, 150),
        )
        for name in ("Q", "K", "P11"):
            assert rep[name].cauchy_decreasing

    def test_requires_power_law(self, dirichlet_cfg):
        with pytest.raises(TypeError):
            convergence_report(dirichlet_cfg, ExplicitWeights({}), [8, 16])
