"""Open- and closed-loop eigenstructure, per mode and for the coupled truncation."""

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .model import (
    WaveConfig,
    gain_expansion_sign,
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


def open_loop_eigs(cfg: WaveConfig, n: int) -> tuple[complex, complex]:
    """Roots of lambda^2 + alpha lambda + n^2 pi^2 = 0.

    Conjugate pair once 4 n^2 pi^2 exceeds alpha^2; {0, -alpha} for the
    Neumann mean mode.
    """
    n = validate_mode(cfg.boundary, n)
    disc = complex(cfg.alpha**2 - 4.0 * (n * np.pi) ** 2)
    root = np.sqrt(disc)
    lam_plus = (-cfg.alpha + root) / 2.0
    lam_minus = (-cfg.alpha - root) / 2.0
    return complex(lam_plus), complex(lam_minus)


def closed_loop_matrix(cfg: WaveConfig, sol: ModalRiccati) -> np.ndarray:
    """F + G K for one mode; the source of truth for closed-loop eigenvalues."""
    F, G = modal_matrices(cfg, sol.n)
    K = modal_gain(cfg, sol).row
    return F + np.outer(G, K)


def closed_loop_formula(cfg: WaveConfig, sol: ModalRiccati) -> tuple[complex, complex]:
    """Analytic cross-check for the closed-loop eigenvalues.

    Uses the trace -(alpha + c P22) and determinant n^2 pi^2 + c P21 of
    F + G K, with c = G[1]^2 / R; everything under the radical therefore
    carries the same c as the term outside it.
    """
    c = float(input_gain_sq(cfg, sol.n))
    tr = -(cfg.alpha + c * sol.p22)
    det = (sol.n * np.pi) ** 2 + c * sol.p12
    disc = complex(tr * tr - 4.0 * det)
    root = np.sqrt(disc)
    return complex((tr + root) / 2.0), complex((tr - root) / 2.0)


def closed_loop_eigs(cfg: WaveConfig, sol: ModalRiccati) -> ModePair:
    """Eigenstructure of the assembled per-mode closed loop F + G K.

    Eigenvectors are reported in the [1/mu, 1] form whenever mu != 0;
    a zero eigenvalue falls back to the raw computed eigenvector.
    """
    lam_plus, lam_minus = open_loop_eigs(cfg, sol.n)
    A = closed_loop_matrix(cfg, sol)
    ev, V = np.linalg.eig(A)
    # order as (+imag first) for conjugate pairs, descending real otherwise
    if abs(ev[0].imag) > 0 or abs(ev[1].imag) > 0:
        order = np.argsort(-ev.imag)
    else:
        order = np.argsort(-ev.real)
    ev = ev[order]
    V = V[:, order]
    vecs = []
    for mu, raw in zip(ev, V.T):
        if mu != 0:
            vecs.append(np.array([1.0 / mu, 1.0]))
        else:
            vecs.append(raw)
    return ModePair(
        n=sol.n,
        lambda_plus=complex(lam_plus),
        lambda_minus=complex(lam_minus),
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
