"""Open- and closed-loop eigenstructure, per mode and for the coupled truncation."""

from enum import Enum

import numpy as np

from .model import (
    WaveConfig,
    frequency_sq,
    gain_expansion_sign,
    modal_matrices,
    mode_range,
    true_modal_input,
)
from .riccati import ModalTable, _block_diag, input_gain_sq


class Stability(str, Enum):
    STABLE = "stable"
    MARGINAL = "marginal"
    UNSTABLE = "unstable"


#: |max Re| at or below this is classified marginal
STABILITY_TOL = 1e-12


def classify(max_real: float) -> Stability:
    if abs(max_real) <= STABILITY_TOL:
        return Stability.MARGINAL
    return Stability.STABLE if max_real < 0 else Stability.UNSTABLE


def open_loop_spectrum(cfg: WaveConfig, n) -> np.ndarray:
    """Roots (lambda_plus, lambda_minus) of lambda^2 + alpha lambda + n^2 pi^2 = 0, as (k, 2).

    Conjugate pairs once 4 n^2 pi^2 exceeds alpha^2; {0, -alpha} for the
    Neumann mean mode.
    """
    root = np.sqrt((cfg.alpha**2 - 4.0 * frequency_sq(n)).astype(complex))
    return np.stack([(-cfg.alpha + root) / 2.0, (-cfg.alpha - root) / 2.0], axis=-1)


def closed_loop_matrices(cfg: WaveConfig, n, k1, k2) -> np.ndarray:
    """F + G K of the modes n under the gains (K1, K2), stacked (k, 2, 2)."""
    A, G = modal_matrices(cfg, n)
    A[..., 1, :] += G[..., 1:] * np.stack([k1, k2], axis=-1)
    return A


def closed_loop_spectrum(cfg: WaveConfig, n, k1, k2) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (k, 2) and eigenvectors (k, 2, 2) of every F + G K, one stacked eig.

    Each mode's pair is ordered (+imag first) when either eigenvalue is
    complex and by descending real part otherwise, so column 0 is mu_plus.
    """
    ev, V = np.linalg.eig(closed_loop_matrices(cfg, n, k1, k2))
    key = np.where((ev.imag != 0).any(axis=1, keepdims=True), ev.imag, ev.real)
    swap = (key[:, 1] > key[:, 0]).astype(int)
    order = np.stack([swap, 1 - swap], axis=1)
    return np.take_along_axis(ev, order, axis=1), np.take_along_axis(V, order[:, None, :], axis=2)


def closed_loop_trace_det(cfg: WaveConfig, n, p12, p22) -> tuple[np.ndarray, np.ndarray]:
    """Trace -(alpha + c P22) and determinant n^2 pi^2 + c P21 of F + G K, vectorized."""
    c = input_gain_sq(cfg, n)
    return -(cfg.alpha + c * p22), frequency_sq(n) + c * p12


def coupled_loop_parts(cfg: WaveConfig, sols: ModalTable, N: int):
    """(modes, A, B, Krow) of the coupled truncation under the shared control.

    A = blockdiag(F_n) and B stacks the true modal input vectors; the row
    Krow holds each modal gain scaled by its pairing weight and
    gain-expansion sign, which is exactly the quadrature of the gain kernel
    against the basis.  Modes missing from sols contribute zero feedback.
    """
    modes = np.array(mode_range(cfg.boundary, N), dtype=int)
    F, _ = modal_matrices(cfg, modes)
    g_true, w = true_modal_input(cfg, modes)
    rows = sols[np.isin(sols.n, modes)]
    gains = np.zeros((len(modes), 2))
    gains[np.searchsorted(modes, rows.n)] = np.stack([rows.k1, rows.k2], axis=1)
    Krow = ((w * gain_expansion_sign(cfg.boundary, modes))[:, None] * gains).reshape(1, -1)
    return modes, _block_diag(F), g_true.reshape(-1, 1), Krow


def coupled_spectrum(cfg: WaveConfig, sols: ModalTable, N: int):
    """Spectrum of the coupled closed loop and its spectral abscissa.

    The control u = integral K(x) z(x) dx reduces to the pairing-weighted,
    expansion-signed sum of the modal gains; each mode is forced through its
    true input vector, so the diagonal blocks collapse to F_n + G_n K_n.
    """
    _, A, B, Krow = coupled_loop_parts(cfg, sols, N)
    ev = np.linalg.eigvals(A + B @ Krow)
    ev = ev[np.lexsort((ev.imag, ev.real))]
    return ev, float(ev.real.max())
