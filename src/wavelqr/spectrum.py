"""Open- and closed-loop eigenstructure, per mode and for the coupled
truncation, and the exact ARE of that truncation."""

from collections import namedtuple
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
    F, _ = modal_matrices(sols.cfg, sols.n)
    g_true, _ = true_modal_input(sols.cfg, sols.n)
    return _block_diag(F), g_true.reshape(-1, 1), coupled_gains(sols).reshape(1, -1)


def coupled_gains(sols: ModalTable) -> np.ndarray:
    """Krow of coupled_loop_parts as a (2k,) vector, (k1_n, k2_n) per mode."""
    cfg, modes = sols.cfg, sols.n
    gains = np.stack([sols.k1, sols.k2], axis=1)
    return ((projection_weight(cfg.boundary, modes) * gain_expansion_sign(cfg.boundary, modes))[:, None]
            * gains).reshape(-1)


def _block_diag(blocks: np.ndarray) -> np.ndarray:
    """Block-diagonal matrix of a (k, 2, 2) stack."""
    k = len(blocks)
    out = np.zeros((k, 2, k, 2))
    out[np.arange(k), :, np.arange(k), :] = blocks
    return out.reshape(2 * k, 2 * k)


#: roots that the secular iteration and the eigenvector build take at once,
#: so that their work arrays hold (_ROOT_CHUNK, k) entries
_ROOT_CHUNK = 256

#: Newton steps allowed; the roots of the acceptance sweep converge in at
#: most 36
_NEWTON_CAP = 50

#: a root has converged once its Newton step is at most this fraction of
#: its distance from the start
_NEWTON_TOL = 2.0**-44

#: the root sums must match the traces of A_cl and A_cl^2 to this fraction
#: of sum |mu| and sum |mu|^2; verified roots of the acceptance sweep match
#: to 5e-16, unverified ones miss by 2e-7 or more
_TRACE_TOL = 1e-13

#: after refinement, a0 - Re(V c) must be at most this fraction of max |a0|
_RESIDUAL_TOL = 1e-12

#: refinement steps of the expansion coefficients
_REFINE_STEPS = 2


class CoupledModes(namedtuple("CoupledModes", ["roots", "pairs", "vectors", "coef"])):
    """Eigenstructure of the coupled closed loop A_cl = A + B Krow, and the
    expansion of one state a0 in it.

    roots holds first one root of each conjugate pair, the one with
    positive imaginary part, then every real root.  Row 2j of vectors is
    Re v_j and row 2j + 1 is -Im v_j, v_j the right eigenvector of roots[j]
    in the coordinates of A_cl, so that for complex E of shape (rows, r)
    Re(E V) is E.view(float) @ vectors.  coef holds the expansion, with
    a factor 2 on the pairs for their conjugates: a0 = Re(coef V), and the
    state at time t is Re((coef e^(roots t)) V).  roots and coef are
    (r,) complex, vectors (2r, 2k) real, and pairs counts the leading
    roots that stand for a conjugate pair.
    """

    __slots__ = ()

    @property
    def spectrum(self) -> np.ndarray:
        """All 2k eigenvalues, the conjugates of the pairs included."""
        return np.concatenate([self.roots, self.roots[:self.pairs].conj()])


def _secular_sums(mu, own, alpha, w2, gk):
    """(inv, S, S') for a chunk of roots mu, each of its own mode.

    inv[j, m] = 1 / d_m(mu_j), d_m(mu) = mu^2 + alpha mu + n_m^2 pi^2, with
    0 at the own mode; S_j sums the other modes' terms
    g_m (k1_m + k2_m mu) / d_m of the secular function
    f = 1 - sum_m g_m (k1_m + k2_m mu) / d_m, and S'_j their derivatives
    in mu.  gk holds the columns g k1 and g k2, so that both sums are
    matrix products with inv and inv^2.
    """
    inv = 1.0 / (w2 + (mu * (mu + alpha))[:, None])
    inv[np.arange(len(mu)), own] = 0.0
    x = inv @ gk
    y = (inv * inv) @ gk
    return inv, x[:, 0] + mu * x[:, 1], x[:, 1] - (2.0 * mu + alpha) * (y[:, 0] + mu * y[:, 1])


def _secular_newton(start, gap, own, alpha, w2, gk):
    """delta = mu - start of each root by Newton on d_n f, or None when some
    root does not converge within _NEWTON_CAP steps; the converged roots
    leave the iteration, the others are stepped _ROOT_CHUNK at a time.

    With q = delta (delta + gap), d_n f = q (1 - S) - p_n S, p_n the own
    mode's g (k1 + k2 mu) (see coupled_modes and _secular_sums).
    """
    gk1, gk2 = gk.T
    delta = np.zeros_like(start)
    active = np.arange(len(start))
    for _ in range(_NEWTON_CAP):
        going = []
        for lo in range(0, len(active), _ROOT_CHUNK):
            j = active[lo:lo + _ROOT_CHUNK]
            d, on, gp = delta[j], own[j], gap[j]
            m = start[j] + d
            _, S, Sp = _secular_sums(m, on, alpha, w2, gk)
            pn = gk1[on] + gk2[on] * m
            q = d * (d + gp)
            step = (q * (1.0 - S) - pn * S) / (
                (2.0 * d + gp) * (1.0 - S) - q * Sp - gk2[on] * S - pn * Sp)
            delta[j] = d = d - step
            going.append(j[~(np.abs(step) <= _NEWTON_TOL * np.abs(d))])
        active = np.concatenate(going)
        if not len(active):
            return delta
    return None


def coupled_modes(sols: ModalTable, a0) -> CoupledModes | None:
    """Eigenstructure of the coupled closed loop from its secular equation,
    in O(k^2), and the expansion of the state a0 (k, 2) in it; None when
    it cannot be verified.

    A_cl = blockdiag(F_n) + B Krow has rank-one coupling, so by the matrix
    determinant lemma its eigenvalues are the roots of
    f(mu) = 1 - sum_n g_n (k1_n + k2_n mu) / d_n(mu), with b_n = [0, g_n]
    the true input and (k1_n, k2_n) the Krow block (Golub, SIAM Rev. 15,
    1973; Bunch, Nielsen & Sorensen, Numer. Math. 31, 1978).  Newton runs
    on d_n f, from each mode's closed-loop eigenvalues mu_s (one of a
    complex pair, both of a real pair), which are the roots of
    d_n - g_n (k1_n + k2_n mu) = (mu - mu_s)(mu - mu_o).  It carries
    delta = mu - mu_s, so that d_n(mu) = g_n (k1_n + k2_n mu)
    + delta (delta + mu_s - mu_o) is formed without cancellation where a
    weak gain leaves the root within rounding of an open-loop pole.

    The right vectors v_j = (mu_j - A)^-1 B and the left ones
    Krow (mu_j - A)^-1 are scaled by d_n(mu_j) of the own mode, so that
    the coefficients c_j = Krow (mu_j - A)^-1 a0 / f'(mu_j) stay finite as
    a gain vanishes; _REFINE_STEPS steps of the same projection on the
    residual a0 - Re(V c) follow.  The roots are accepted when every mode
    has a gain, the Newton iterates are finite and converge within
    _NEWTON_CAP steps, sum mu and sum mu^2 match tr(A_cl) and tr(A_cl^2)
    (formed in O(k) from the blocks) to _TRACE_TOL, and the refined
    residual is at most _RESIDUAL_TOL of max |a0|.  Where the coupling
    carries a root far from its mode's own closed loop, Newton may find
    another root twice, and these checks reject the result.
    """
    alpha, w2 = sols.cfg.alpha, frequency_sq(sols.n)
    g = true_modal_input(sols.cfg, sols.n)[0][:, 1]
    k1, k2 = coupled_gains(sols).reshape(-1, 2).T
    gk = np.stack([g * k1, g * k2], axis=1)
    gk1, gk2 = gk.T
    if not np.all((gk1 != 0) | (gk2 != 0)):
        return None
    terms = (alpha, w2, gk)
    a0 = np.asarray(a0, dtype=float).reshape(-1)
    mu = closed_loop_spectrum(sols)
    paired = np.flatnonzero(mu[:, 0].imag > 0)
    real = np.flatnonzero(mu[:, 0].imag <= 0)
    own = np.concatenate([paired, real, real])
    start = np.concatenate([mu[paired, 0], mu[real, 0], mu[real, 1]])
    gap = start - np.concatenate([mu[paired, 1], mu[real, 1], mu[real, 0]])
    weight = np.where(np.arange(len(own)) < len(paired), 2.0, 1.0)

    with np.errstate(all="ignore"):  # non-finite iterates fail the checks below
        delta = _secular_newton(start, gap, own, *terms)
        if delta is None:
            return None
        roots = start + delta
        if not (np.all(np.isfinite(roots)) and np.all(roots[:len(paired)].imag > 0)):
            return None
        trace = np.sum(gk2) - alpha * len(sols)
        trace_sq = (np.sum(alpha**2 - 2.0 * w2) + 2.0 * np.sum(gk1 - alpha * gk2)
                    + np.sum(gk2) ** 2)
        if (abs(np.sum(weight * roots.real) - trace) > _TRACE_TOL * np.sum(weight * np.abs(roots))
                or abs(np.sum(weight * (roots**2).real) - trace_sq)
                > _TRACE_TOL * np.sum(weight * np.abs(roots) ** 2)):
            return None

        # the vectors scaled by D_j = d_n(mu_j) of the own mode: with
        # s[j, m] = D_j / d_m(mu_j), 1 at the own mode, v_j = g s_j [1, mu_j]
        # (g s_j for every mode), and D_j^2 f'(mu_j) stays finite as D_j
        # vanishes with a gain
        k = len(sols)
        vectors = np.empty((2 * len(roots), 2 * k))
        fp = np.empty_like(roots)
        for lo in range(0, len(roots), _ROOT_CHUNK):
            sl = slice(lo, lo + _ROOT_CHUNK)
            m, on, d = roots[sl], own[sl], delta[sl]
            s, _, Sp = _secular_sums(m, on, *terms)
            pn = gk1[on] + gk2[on] * m
            D = pn + d * (d + gap[sl])
            s *= D[:, None]
            s[np.arange(len(m)), on] = 1.0
            fp[sl] = pn * (2.0 * m + alpha) - gk2[on] * D - D * D * Sp
            v = np.empty((len(m), k, 2), dtype=complex)
            v[..., 0] = g * s
            v[..., 1] = v[..., 0] * m[:, None]
            rows = vectors[2 * lo:2 * lo + 2 * len(m)]
            rows[0::2] = v.real.reshape(len(m), -1)
            rows[1::2] = -v.imag.reshape(len(m), -1)

        def project(x, coef):
            """coef + weight D Krow (mu - A)^-1 x / (D^2 f'(mu)): the
            left vector D_j Krow (mu_j - A)^-1 x is
            mu_j s_j (k1 x1 + k2 x2) + s_j ((alpha k1 - k2 n^2 pi^2) x1 + k1 x2),
            and the products of s with vectors are read off the columns
            g s of vectors, one real matrix product."""
            x1, x2 = x.reshape(-1, 2).T
            y = np.zeros((2 * k, 2))
            y[0::2, 0] = (k1 * x1 + k2 * x2) / g
            y[0::2, 1] = ((alpha * k1 - k2 * w2) * x1 + k1 * x2) / g
            z = vectors @ y
            lin, const = (z[0::2] - 1j * z[1::2]).T
            return coef + weight * (roots * lin + const) / fp

        coef = project(a0, np.zeros_like(roots))
        for _ in range(_REFINE_STEPS):
            coef = project(a0 - coef.view(float) @ vectors, coef)
        residual = np.abs(a0 - coef.view(float) @ vectors).max()
    if not residual <= _RESIDUAL_TOL * np.abs(a0).max():
        return None
    return CoupledModes(roots, len(paired), vectors, coef)


def coupled_spectrum(sols: ModalTable):
    """Spectrum of the coupled closed loop and its spectral abscissa.

    The control u = integral K(x) z(x) dx reduces to the pairing-weighted,
    expansion-signed sum of the modal gains; each mode is forced through its
    true input vector, so the diagonal blocks collapse to F_n + G_n K_n.

    The eigenvalues are the roots of coupled_modes, verified on the unit
    state (every coefficient 1), in O(k^2); where they cannot be verified,
    dense eigvals of the (2k, 2k) closed loop.
    """
    modes = coupled_modes(sols, np.ones((len(sols), 2)))
    if modes is not None:
        ev = modes.spectrum
    else:
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
