import numpy as np
import pytest

from wavelqr.quad import running_quadrature, simpson_weights, trapezoid_weights


def simpson_integrate(values, h, axis=-1):
    """Composite Simpson integral of sampled values along one axis, by simpson_weights."""
    return np.tensordot(values, simpson_weights(values.shape[axis], h), axes=([axis], [0]))


class TestSimpson:
    def test_exact_on_cubics(self):
        x = np.linspace(0.0, 1.0, 21)
        w = simpson_weights(21, x[1] - x[0])
        vals = 4.0 * x**3 - 3.0 * x**2 + x - 2.0
        np.testing.assert_allclose(w @ vals, 1.0 - 1.0 + 0.5 - 2.0, rtol=1e-14)

    def test_weights_sum_to_interval(self):
        w = simpson_weights(101, 0.01)
        np.testing.assert_allclose(w.sum(), 1.0, rtol=1e-14)

    def test_even_count_rejected(self):
        with pytest.raises(ValueError):
            simpson_weights(10, 0.1)

    def test_integrate_along_axis(self):
        x = np.linspace(0.0, 1.0, 41)
        vals = np.stack([x**2, np.sin(np.pi * x)])
        got = simpson_integrate(vals, x[1] - x[0], axis=1)
        np.testing.assert_allclose(got, [1.0 / 3.0, 2.0 / np.pi], rtol=1e-6)

    def test_integrate_convergence_order(self):
        # halving h shrinks the sine error by about 2^4
        errs = []
        for npts in (41, 81):
            x = np.linspace(0.0, 1.0, npts)
            e = simpson_integrate(np.sin(np.pi * x), x[1] - x[0]) - 2.0 / np.pi
            errs.append(abs(e))
        assert 12.0 < errs[0] / errs[1] < 20.0


class TestTrapezoid:
    def test_matches_numpy(self):
        x = np.linspace(0.0, 1.0, 37)
        vals = np.cos(3.0 * x)
        w = trapezoid_weights(37, x[1] - x[0])
        np.testing.assert_allclose(w @ vals, np.trapezoid(vals, x), rtol=1e-14)


class TestRunningQuadrature:
    def test_matches_simpson_at_even_prefixes(self):
        x = np.linspace(0.0, 2.0, 51)
        h = x[1] - x[0]
        vals = np.exp(-x) * (2.0 + np.sin(4.0 * x))
        run = running_quadrature(vals, h)
        for k in range(2, 51, 2):
            expect = simpson_weights(k + 1, h) @ vals[: k + 1]
            np.testing.assert_allclose(run[k], expect, rtol=1e-13)

    def test_signed_integrand_unclamped(self):
        x = np.linspace(0.0, 2.0, 41)
        h = x[1] - x[0]
        vals = np.sin(3.0 * x)
        run = running_quadrature(vals, h)
        expect = simpson_weights(41, h) @ vals
        np.testing.assert_allclose(run[-1], expect, rtol=1e-13)

    def test_monotone_for_nonnegative_integrand(self, rng):
        # rough nonnegative samples provoke parabola dips; accumulation
        # must stay monotone regardless
        vals = rng.random(301)
        run = running_quadrature(vals, 0.01)
        assert np.all(np.diff(run) >= 0.0)

    def test_even_sample_count_trapezoid_tail(self):
        vals = np.ones(10)
        run = running_quadrature(vals, 0.1)
        np.testing.assert_allclose(run[-1], 0.9, rtol=1e-14)

    def test_starts_at_zero(self):
        run = running_quadrature(np.ones(11), 0.1)
        assert run[0] == 0.0
        np.testing.assert_allclose(run[-1], 1.0, rtol=1e-14)
