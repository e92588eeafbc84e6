"""Open- and closed-loop eigenstructure, per mode and for the coupled
truncation, and the exact ARE of that truncation."""

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .model import (
    WaveConfig,
    frequency_sq,
    gain_expansion_sign,
    modal_matrices,
    projection_weight,
    true_modal_input,
)
from .riccati import ModalTable, are_oracle, input_gain_sq, symmetric_blocks


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


def closed_loop_matrices(sols: ModalTable) -> np.ndarray:
    """F + G K of the table's modes under their gains (K1, K2), stacked (k, 2, 2)."""
    A, G = modal_matrices(sols.cfg, sols.n)
    A[..., 1, :] += G[..., 1:] * np.stack([sols.k1, sols.k2], axis=-1)
    return A


def closed_loop_spectrum(sols: ModalTable) -> np.ndarray:
    """Eigenvalues (k, 2) of every F + G K of the table, one stacked eigvals.

    Each mode's pair is ordered (+imag first) when either eigenvalue is
    complex and by descending real part otherwise, so column 0 is mu_plus.
    """
    ev = np.linalg.eigvals(closed_loop_matrices(sols))
    key = np.where((ev.imag != 0).any(axis=1, keepdims=True), ev.imag, ev.real)
    swap = (key[:, 1] > key[:, 0]).astype(int)
    order = np.stack([swap, 1 - swap], axis=1)
    return np.take_along_axis(ev, order, axis=1)


def closed_loop_trace_det(sols: ModalTable) -> tuple[np.ndarray, np.ndarray]:
    """Trace -(alpha + c P22) and determinant n^2 pi^2 + c P21 of every F + G K of the table."""
    c = input_gain_sq(sols.cfg, sols.n)
    return -(sols.cfg.alpha + c * sols.p22), frequency_sq(sols.n) + c * sols.p12


def coupled_loop_parts(sols: ModalTable):
    """(A, B, Krow) of the coupled truncation to the modes of sols.

    A = blockdiag(F_n) and B stacks the true modal input vectors; the row
    Krow holds each modal gain scaled by its pairing weight and
    gain-expansion sign, which is exactly the quadrature of the gain kernel
    against the basis.  A zero-weight row has zero gain, so its mode is
    coupled in open loop.
    """
    cfg, modes = sols.cfg, sols.n
    F, _ = modal_matrices(cfg, modes)
    g_true, w = true_modal_input(cfg, modes)
    gains = np.stack([sols.k1, sols.k2], axis=1)
    Krow = ((w * gain_expansion_sign(cfg.boundary, modes))[:, None] * gains).reshape(1, -1)
    return _block_diag(F), g_true.reshape(-1, 1), Krow


def _block_diag(blocks: np.ndarray) -> np.ndarray:
    """Block-diagonal matrix of a (k, 2, 2) stack."""
    k = len(blocks)
    out = np.zeros((k, 2, k, 2))
    out[np.arange(k), :, np.arange(k), :] = blocks
    return out.reshape(2 * k, 2 * k)


def coupled_spectrum(sols: ModalTable):
    """Spectrum of the coupled closed loop and its spectral abscissa.

    The control u = integral K(x) z(x) dx reduces to the pairing-weighted,
    expansion-signed sum of the modal gains; each mode is forced through its
    true input vector, so the diagonal blocks collapse to F_n + G_n K_n.
    """
    A, B, Krow = coupled_loop_parts(sols)
    ev = np.linalg.eigvals(A + B @ Krow)
    ev = ev[np.lexsort((ev.imag, ev.real))]
    return ev, float(ev.real.max())


@dataclass(frozen=True)
class CoupledAre:
    """Exact ARE of the truncated coupled plant vs. the per-mode solution.

    State coordinates are the pairing-weighted modal coefficients, so the
    cost is blockdiag of the modal weights and the per-mode candidate is
    blockdiag of the modal Riccati matrices.
    """

    modes: tuple[int, ...]
    P_big: np.ndarray
    K_big: np.ndarray
    dev_P_fro: float
    dev_P_max: float
    dev_K_fro: float


def coupled_truncated_are(t: ModalTable) -> CoupledAre:
    """Solve the ARE of the plant truncated to the modes of t and measure the gap.

    The per-mode construction solves each 2x2 block independently; the
    shared scalar control couples the blocks through B, so the coupled ARE
    solution is generally not block diagonal.  Deviations quantify what the
    decoupling ansatz omits.
    """
    A, B, _ = coupled_loop_parts(t)
    # pairing-weighted coordinates: B stacks proj_weight_n * G_true_n, which
    # equals the modal G up to the gain-expansion sign
    B = B * np.repeat(projection_weight(t.cfg.boundary, t.n), 2)[:, None]
    Qb = _block_diag(symmetric_blocks(t.q11, t.q12, t.q22))
    P_diag = _block_diag(t.matrices)
    sign = gain_expansion_sign(t.cfg.boundary, t.n)
    K_diag = np.stack([sign * t.k1, sign * t.k2], axis=1).reshape(1, -1)

    P_big = are_oracle(A, B, Qb, np.array([[t.cfg.R]]))
    K_big = -(B.T @ P_big) / t.cfg.R
    dev_P = P_big - P_diag
    return CoupledAre(
        modes=tuple(t.n.tolist()),
        P_big=P_big,
        K_big=K_big,
        dev_P_fro=float(np.linalg.norm(dev_P)),
        dev_P_max=float(np.max(np.abs(dev_P))),
        dev_K_fro=float(np.linalg.norm(K_big - K_diag)),
    )
