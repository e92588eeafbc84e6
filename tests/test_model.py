import numpy as np
import pytest

from wavelqr.model import (
    Boundary,
    ExplicitWeights,
    InvalidModeError,
    ModalWeight,
    PowerLawWeights,
    WaveConfig,
    gain_expansion_sign,
    modal_matrices,
    mode_range,
    projection_weight,
    true_modal_input,
    validate_mode,
    wave_config_from_dict,
    weight_arrays,
    weight_family_from_dict,
)
from wavelqr.riccati import solve_family


class TestWaveConfig:
    def test_gamma_sq_is_exact(self):
        cfg = WaveConfig(Boundary.DIRICHLET, alpha=0.3, beta=2.0, R=0.5)
        assert cfg.gamma_sq == 2.0**2 / 0.5

    def test_rejects_zero_beta(self):
        with pytest.raises(ValueError, match="beta"):
            WaveConfig(Boundary.DIRICHLET, beta=0.0)

    def test_rejects_nonpositive_R(self):
        with pytest.raises(ValueError, match="R"):
            WaveConfig(Boundary.NEUMANN, R=0.0)

    def test_rejects_negative_alpha(self):
        with pytest.raises(ValueError, match="alpha"):
            WaveConfig(Boundary.NEUMANN, alpha=-0.1)

    def test_boundary_coerced_from_string(self):
        cfg = WaveConfig("neumann")
        assert cfg.boundary is Boundary.NEUMANN


class TestModeValidation:
    def test_dirichlet_rejects_zero(self):
        with pytest.raises(InvalidModeError):
            validate_mode(Boundary.DIRICHLET, 0)

    @pytest.mark.parametrize("boundary", [Boundary.DIRICHLET, Boundary.NEUMANN])
    def test_negative_rejected(self, boundary):
        with pytest.raises(InvalidModeError):
            validate_mode(boundary, -1)

    def test_neumann_accepts_zero(self):
        assert validate_mode(Boundary.NEUMANN, 0) == 0

    @pytest.mark.parametrize("boundary,bad", [
        (Boundary.DIRICHLET, [3, 0, 5]), (Boundary.NEUMANN, [0, 2, -1]),
    ])
    def test_arrays_checked_whole(self, boundary, bad):
        np.testing.assert_array_equal(validate_mode(boundary, [1, 2, 7]), [1, 2, 7])
        with pytest.raises(InvalidModeError):
            validate_mode(boundary, bad)
        with pytest.raises(InvalidModeError):
            projection_weight(boundary, bad)
        with pytest.raises(InvalidModeError):
            gain_expansion_sign(boundary, bad)
        with pytest.raises(InvalidModeError):
            modal_matrices(WaveConfig(boundary), bad)
        with pytest.raises(InvalidModeError):
            true_modal_input(WaveConfig(boundary), bad)

    def test_mode_ranges(self):
        assert list(mode_range(Boundary.DIRICHLET, 3)) == [1, 2, 3]
        assert list(mode_range(Boundary.NEUMANN, 3)) == [0, 1, 2, 3]
        assert list(mode_range(Boundary.DIRICHLET, 0)) == []


class TestModalMatrices:
    def test_dirichlet_n1_undamped(self, dirichlet_cfg):
        F, G = modal_matrices(dirichlet_cfg, 1)
        np.testing.assert_allclose(F, [[0.0, 1.0], [-np.pi**2, 0.0]])
        np.testing.assert_allclose(G, [0.0, np.pi])

    def test_neumann_n0_damped(self):
        cfg = WaveConfig(Boundary.NEUMANN, alpha=0.5, beta=2.0)
        F, G = modal_matrices(cfg, 0)
        np.testing.assert_allclose(F, [[0.0, 1.0], [0.0, -0.5]])
        np.testing.assert_allclose(G, [0.0, 2.0])

    def test_dirichlet_n3_damped(self):
        cfg = WaveConfig(Boundary.DIRICHLET, alpha=1.0, beta=1.0)
        F, G = modal_matrices(cfg, 3)
        np.testing.assert_allclose(F, [[0.0, 1.0], [-9.0 * np.pi**2, -1.0]])
        np.testing.assert_allclose(G, [0.0, 3.0 * np.pi])

    def test_invalid_mode_raises(self, dirichlet_cfg):
        with pytest.raises(InvalidModeError):
            modal_matrices(dirichlet_cfg, 0)

    def test_deterministic(self, dirichlet_cfg):
        F1, G1 = modal_matrices(dirichlet_cfg, 7)
        F2, G2 = modal_matrices(dirichlet_cfg, 7)
        assert np.array_equal(F1, F2) and np.array_equal(G1, G2)

    @pytest.mark.parametrize("boundary", [Boundary.DIRICHLET, Boundary.NEUMANN])
    def test_stacked_equals_one_mode_at_a_time(self, boundary):
        cfg = WaveConfig(boundary, alpha=0.3, beta=1.7)
        n = np.array(mode_range(boundary, 9))
        F, G = modal_matrices(cfg, n)
        assert F.shape == (len(n), 2, 2) and G.shape == (len(n), 2)
        for i, m in enumerate(n):
            Fm, Gm = modal_matrices(cfg, m)
            assert np.array_equal(F[i], Fm) and np.array_equal(G[i], Gm)


class TestWeights:
    def test_psd_enforced(self):
        with pytest.raises(ValueError, match="semidefinite"):
            ModalWeight(1, 1.0, 2.0, 1.0)
        with pytest.raises(ValueError, match="semidefinite"):
            ModalWeight(1, -1.0, 0.0, 1.0)

    def test_power_law_example_dirichlet(self):
        fam = PowerLawWeights(q=1.0, r=5.0)
        q11, q12, q22 = weight_arrays(fam, [2])
        assert q11[0] == q22[0] == 1.0 / 32.0 and q12[0] == 0.0

    def test_power_law_example_neumann_mean_mode(self):
        fam = PowerLawWeights(q=3.0, r=2.0)
        q11, _, q22 = weight_arrays(fam, [0])
        assert q11[0] == q22[0] == 3.0

    @pytest.mark.parametrize("boundary", [Boundary.DIRICHLET, Boundary.NEUMANN])
    def test_power_law_weighs_every_mode_up_to_N(self, boundary):
        # N is the only truncation: every mode of the table gets q / n^r,
        # modes above 64 included
        t = solve_family(WaveConfig(boundary), PowerLawWeights(1.0, 5.0), 128)
        expect = 1.0 / np.float_power(np.maximum(t.n, 1), 5.0)
        assert t.n.max() == 128
        assert np.array_equal(t.q11, expect) and np.array_equal(t.q22, expect)
        assert (t.p11 > 0).all() and (t.p22 > 0).all()

    def test_generated_weights_are_psd(self):
        fam = PowerLawWeights(q=2.5, r=3.0)
        q11, q12, q22 = weight_arrays(fam, mode_range(Boundary.NEUMANN, 100))
        assert np.all(q11 >= 0) and np.all(q22 >= 0) and np.all(q11 * q22 - q12**2 >= 0)

    @pytest.mark.parametrize("q,r", [(1.0, 5.0), (0.3, 2.5), (2.0, 6.5)])
    def test_weight_arrays_match_scalar_power_bitwise(self, q, r):
        # the scalar form is Python's float **, which calls libm pow;
        # np.power rounds differently in a few percent of these modes
        ns = np.arange(0, 10**5 + 1)
        q11, q12, q22 = weight_arrays(PowerLawWeights(q=q, r=r), ns)
        expect = np.array([q] + [q / float(n) ** r for n in range(1, 10**5 + 1)])
        assert np.array_equal(q11, expect) and np.array_equal(q22, expect)
        assert not q12.any()

    def test_weight_arrays_explicit_and_cutoff(self):
        # absent modes weigh nothing; the mode count N of solve_family is the
        # only cutoff, so an entry above N has no row
        fam = ExplicitWeights({1: ModalWeight(1, 1.0, 0.5, 2.0), 5: ModalWeight(5, 3.0, 0.0, 1.0)})
        q11, q12, q22 = weight_arrays(fam, [0, 1, 2, 5])
        np.testing.assert_array_equal(np.stack([q11, q12, q22]), [[0, 1, 0, 3], [0, 0.5, 0, 0], [0, 2, 0, 1]])
        t = solve_family(WaveConfig(Boundary.DIRICHLET), fam, 4)
        assert t.n.tolist() == [1, 2, 3, 4]
        np.testing.assert_array_equal(t.q11, [1, 0, 0, 0])

    def test_explicit_entries_keyed_consistently(self):
        with pytest.raises(ValueError, match="carries mode index"):
            ExplicitWeights({2: ModalWeight(1, 1.0, 0.0, 1.0)})

    def test_power_law_requires_positive_q(self):
        with pytest.raises(ValueError, match="positive"):
            PowerLawWeights(q=0.0, r=2.0)


def second_derivative_projection(z1, d2z1, n, boundary, npts=8193):
    """Quadrature oracle: coefficient extraction of z1'' against the basis.

    Returns the n-th coefficient of z1'' in the 2*integral convention
    (plain integral for the Neumann mean mode), with the stiffness part
    -n^2 pi^2 a_n removed so that only the boundary forcing term remains.
    """
    x = np.linspace(0.0, 1.0, npts)
    h = x[1] - x[0]
    w = np.ones(npts)
    w[1:-1:2], w[2:-1:2] = 4.0, 2.0
    w *= h / 3.0
    phi = np.sin(n * np.pi * x) if boundary == Boundary.DIRICHLET else np.cos(n * np.pi * x)
    pw = 1.0 if (boundary == Boundary.NEUMANN and n == 0) else 0.5
    proj_d2 = float(w @ (d2z1(x) * phi)) / pw
    a_n = float(w @ (z1(x) * phi)) / pw
    return proj_d2 + (n * np.pi) ** 2 * a_n


class TestTrueModalInput:
    def test_dirichlet_forcing_coefficient(self):
        cfg = WaveConfig(Boundary.DIRICHLET, beta=1.0)
        u = 0.7
        # smooth test function with z1(0) = beta u, z1(1) = 0
        z1 = lambda x: cfg.beta * u * (1.0 - x) + np.sin(2.0 * np.pi * x)
        d2z1 = lambda x: -((2.0 * np.pi) ** 2) * np.sin(2.0 * np.pi * x)

        g_true, pw = true_modal_input(cfg, 2)
        np.testing.assert_allclose(g_true, [0.0, 4.0 * np.pi])
        assert pw == 0.5
        measured = second_derivative_projection(z1, d2z1, 2, Boundary.DIRICHLET)
        np.testing.assert_allclose(measured, g_true[1] * u, rtol=1e-9)

    def test_neumann_forcing_coefficient(self):
        cfg = WaveConfig(Boundary.NEUMANN, beta=1.0)
        u = 0.7
        # smooth test function with z1'(0) = 0, z1'(1) = beta u
        z1 = lambda x: cfg.beta * u * x**2 / 2.0 + np.cos(np.pi * x)
        d2z1 = lambda x: cfg.beta * u - np.pi**2 * np.cos(np.pi * x)

        g_true, pw = true_modal_input(cfg, 1)
        np.testing.assert_allclose(g_true, [0.0, -2.0])
        assert pw == 0.5
        measured = second_derivative_projection(z1, d2z1, 1, Boundary.NEUMANN)
        np.testing.assert_allclose(measured, g_true[1] * u, rtol=1e-9)

    def test_neumann_mean_mode(self):
        cfg = WaveConfig(Boundary.NEUMANN, beta=1.0)
        g_true, pw = true_modal_input(cfg, 0)
        np.testing.assert_allclose(g_true, [0.0, 1.0])
        assert pw == 1.0
        # integral of z1'' is exactly the slope difference beta*u
        u = 0.7
        z1 = lambda x: cfg.beta * u * x**2 / 2.0 + np.cos(np.pi * x)
        d2z1 = lambda x: cfg.beta * u - np.pi**2 * np.cos(np.pi * x)
        measured = second_derivative_projection(z1, d2z1, 0, Boundary.NEUMANN)
        np.testing.assert_allclose(measured, u, rtol=1e-9)

    @pytest.mark.parametrize("boundary", [Boundary.DIRICHLET, Boundary.NEUMANN])
    def test_expansion_factors_cancel_exactly(self, boundary):
        """proj_weight * sign * G_true recovers the modal G bit for bit."""
        cfg = WaveConfig(boundary, alpha=0.2, beta=1.7, R=0.9)
        ns = list(mode_range(boundary, 100)) + [511, 4096, 9999, 10000]
        for n in ns:
            g_true, pw = true_modal_input(cfg, n)
            _, G = modal_matrices(cfg, n)
            sign = gain_expansion_sign(boundary, n)
            assert pw * sign * g_true[1] == G[1]

    def test_projection_weights(self):
        assert projection_weight(Boundary.DIRICHLET, 3) == 0.5
        assert projection_weight(Boundary.NEUMANN, 3) == 0.5
        assert projection_weight(Boundary.NEUMANN, 0) == 1.0

    def test_gain_expansion_signs(self):
        assert gain_expansion_sign(Boundary.DIRICHLET, 5) == 1.0
        assert gain_expansion_sign(Boundary.NEUMANN, 0) == 1.0
        assert gain_expansion_sign(Boundary.NEUMANN, 1) == -1.0
        assert gain_expansion_sign(Boundary.NEUMANN, 2) == 1.0


class TestConfigParsing:
    def test_wave_config_from_dict(self):
        cfg = wave_config_from_dict(
            {"boundary": "neumann", "alpha": 0.5, "beta": 2.0, "R": 4.0}
        )
        assert cfg.boundary is Boundary.NEUMANN and cfg.gamma_sq == 1.0

    def test_bad_boundary(self):
        with pytest.raises(ValueError):
            wave_config_from_dict({"boundary": "robin"})

    def test_power_family_from_dict(self):
        fam = weight_family_from_dict(
            {"type": "power", "q": 2.0, "r": 3.0}, boundary=Boundary.DIRICHLET
        )
        assert fam == PowerLawWeights(q=2.0, r=3.0)

    def test_list_family_from_dict(self):
        fam = weight_family_from_dict(
            {"type": "list", "entries": [{"n": 1, "Q11": 1.0, "Q22": 2.0}]},
            boundary=Boundary.DIRICHLET,
        )
        q11, q12, q22 = weight_arrays(fam, [1])
        assert (q11[0], q12[0], q22[0]) == (1.0, 0.0, 2.0)

    def test_unknown_family_type(self):
        with pytest.raises(ValueError, match="power"):
            weight_family_from_dict({"type": "diag"}, boundary=Boundary.NEUMANN)
