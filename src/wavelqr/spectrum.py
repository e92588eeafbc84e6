"""Open- and closed-loop eigenstructure, per mode and for the coupled truncation."""

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .model import (
    WaveConfig,
    frequency_sq,
    gain_expansion_sign,
    input_gain,
    modal_matrices,
    mode_range,
    true_modal_input,
    validate_mode,
)
from .riccati import ModalGain, ModalRiccati, input_gain_sq, modal_gain


class Stability(str, Enum):
    STABLE = "stable"
    MARGINAL = "marginal"
    UNSTABLE = "unstable"


#: |max Re| at or below this is classified marginal
STABILITY_TOL = 1e-12


@dataclass(frozen=True)
class ModePair:
    """Open- and closed-loop eigenpair of one spatial mode."""

    n: int
    lambda_plus: complex
    lambda_minus: complex
    mu_plus: complex
    mu_minus: complex
    stability: Stability
    eigvec_plus: np.ndarray
    eigvec_minus: np.ndarray

    @property
    def abscissa(self) -> float:
        return max(self.mu_plus.real, self.mu_minus.real)


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


def open_loop_eigs(cfg: WaveConfig, n: int) -> tuple[complex, complex]:
    """open_loop_spectrum of one mode."""
    return tuple(complex(lam) for lam in open_loop_spectrum(cfg, [validate_mode(cfg.boundary, n)])[0])


def closed_loop_matrices(cfg: WaveConfig, n, k1, k2) -> np.ndarray:
    """F + G K of the modes n under the gains (K1, K2), stacked (k, 2, 2)."""
    g = input_gain(cfg, n)
    A = np.zeros((len(g), 2, 2))
    A[:, 0, 1] = 1.0
    A[:, 1, 0] = -frequency_sq(n) + g * k1
    A[:, 1, 1] = -cfg.alpha + g * k2
    return A


def closed_loop_matrix(cfg: WaveConfig, sol: ModalRiccati) -> np.ndarray:
    """F + G K for one mode; the source of truth for closed-loop eigenvalues."""
    g = modal_gain(cfg, sol)
    return closed_loop_matrices(cfg, [sol.n], [g.k1], [g.k2])[0]


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


def closed_loop_formula(cfg: WaveConfig, sol: ModalRiccati) -> tuple[complex, complex]:
    """Analytic cross-check for the closed-loop eigenvalues.

    Uses the trace and determinant of F + G K from closed_loop_trace_det,
    with c = G[1]^2 / R; everything under the radical therefore carries
    the same c as the term outside it.
    """
    tr, det = (float(v[0]) for v in closed_loop_trace_det(cfg, [sol.n], sol.p12, sol.p22))
    root = np.sqrt(complex(tr * tr - 4.0 * det))
    return complex((tr + root) / 2.0), complex((tr - root) / 2.0)


def closed_loop_eigs(cfg: WaveConfig, sol: ModalRiccati) -> ModePair:
    """Eigenstructure of the assembled per-mode closed loop F + G K.

    Eigenvectors are reported in the [1/mu, 1] form whenever mu != 0;
    a zero eigenvalue falls back to the raw computed eigenvector.
    """
    lam_plus, lam_minus = open_loop_eigs(cfg, sol.n)
    g = modal_gain(cfg, sol)
    ev, V = (x[0] for x in closed_loop_spectrum(cfg, [sol.n], [g.k1], [g.k2]))
    vecs = [np.array([1.0 / mu, 1.0]) if mu != 0 else raw for mu, raw in zip(ev, V.T)]
    return ModePair(
        n=sol.n,
        lambda_plus=lam_plus,
        lambda_minus=lam_minus,
        mu_plus=complex(ev[0]),
        mu_minus=complex(ev[1]),
        stability=classify(float(ev.real.max())),
        eigvec_plus=vecs[0],
        eigvec_minus=vecs[1],
    )


def coupled_loop_parts(cfg: WaveConfig, gains: list[ModalGain], N: int):
    """(modes, A, B, Krow) of the coupled truncation under the shared control.

    A = blockdiag(F_n) and B stacks the true modal input vectors; the row
    Krow holds each modal gain scaled by its pairing weight and
    gain-expansion sign, which is exactly the quadrature of the gain kernel
    against the basis.  Modes missing from gains contribute zero feedback.
    """
    modes = list(mode_range(cfg.boundary, N))
    by_n = {g.n: g for g in gains}
    d = 2 * len(modes)
    A = np.zeros((d, d))
    B = np.zeros((d, 1))
    Krow = np.zeros((1, d))
    for i, n in enumerate(modes):
        F, _ = modal_matrices(cfg, n)
        A[2 * i : 2 * i + 2, 2 * i : 2 * i + 2] = F
        g_true, w = true_modal_input(cfg, n)
        B[2 * i : 2 * i + 2, 0] = g_true
        g = by_n.get(n)
        if g is not None:
            Krow[0, 2 * i : 2 * i + 2] = w * gain_expansion_sign(cfg.boundary, n) * g.row
    return modes, A, B, Krow


def coupled_closed_loop_matrix(cfg: WaveConfig, gains: list[ModalGain], N: int) -> np.ndarray:
    """Closed loop of the coupled truncation under the shared scalar control.

    The control u = integral K(x) z(x) dx reduces to the pairing-weighted,
    expansion-signed sum of the modal gains; each mode is forced through its
    true input vector.  Diagonal blocks collapse to F_n + G_n K_n exactly.
    """
    _, A, B, Krow = coupled_loop_parts(cfg, gains, N)
    return A + B @ Krow


def coupled_spectrum(cfg: WaveConfig, gains: list[ModalGain], N: int):
    """Spectrum of the coupled closed loop and its spectral abscissa."""
    A = coupled_closed_loop_matrix(cfg, gains, N)
    ev = np.linalg.eigvals(A)
    ev = ev[np.lexsort((ev.imag, ev.real))]
    return ev, float(ev.real.max())
