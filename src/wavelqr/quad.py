"""Composite quadrature weights on uniform grids."""

import numpy as np


def simpson_weights(npts: int, h: float) -> np.ndarray:
    """Composite Simpson weights for npts equispaced samples (npts odd, >= 3)."""
    if npts < 3 or npts % 2 == 0:
        raise ValueError("composite Simpson needs an odd number of points >= 3")
    w = np.ones(npts)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return w * (h / 3.0)


def trapezoid_weights(npts: int, h: float) -> np.ndarray:
    if npts < 2:
        raise ValueError("trapezoid rule needs at least 2 points")
    w = np.full(npts, h)
    w[0] = w[-1] = 0.5 * h
    return w


def running_quadrature(values: np.ndarray, h: float) -> np.ndarray:
    """Cumulative integral of a sampled function of time.

    Integrates the piecewise parabola of composite Simpson, split per
    interval: the two halves of the pair [x0, x2] contribute
    (h/12)(5 f0 + 8 f1 - f2) and (h/12)(-f0 + 8 f1 + 5 f2), which sum to the
    Simpson pair.  Even-index prefixes therefore equal composite Simpson.
    For nonnegative samples an increment can only go negative where the
    interpolating parabola dips below zero; those artifacts are clamped so
    nonnegative integrands accumulate monotonically.  A trailing unpaired
    interval falls back to one trapezoid panel.
    """
    values = np.asarray(values, dtype=float)
    npts = len(values)
    out = np.zeros(npts)
    if npts == 1:
        return out
    inc = np.empty(npts - 1)
    f0, f1, f2 = values[0:-2:2], values[1:-1:2], values[2::2]
    n_pair_halves = 2 * len(f0)
    inc[0:n_pair_halves:2] = (h / 12.0) * (5.0 * f0 + 8.0 * f1 - f2)
    inc[1:n_pair_halves:2] = (h / 12.0) * (-f0 + 8.0 * f1 + 5.0 * f2)
    if n_pair_halves < npts - 1:
        inc[-1] = 0.5 * h * (values[-2] + values[-1])
    if np.all(values >= 0.0):
        np.maximum(inc, 0.0, out=inc)
    out[1:] = np.cumsum(inc)
    return out
