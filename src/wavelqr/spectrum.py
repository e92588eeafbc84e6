"""Open- and closed-loop eigenstructure, per mode and for the coupled
truncation, and the exact ARE of that truncation."""

from collections import namedtuple
from enum import Enum
from typing import NamedTuple

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

#: iteration steps allowed; the roots of the acceptance sweep converge in
#: at most 36 Newton steps
_NEWTON_CAP = 50

#: a root has converged once its step is at most this fraction of its
#: distance from the start
_NEWTON_TOL = 2.0**-44

#: the root sums must match the traces of A_cl and A_cl^2 to this fraction
#: of sum |mu| and sum |mu|^2; verified roots of the acceptance sweep match
#: to 5e-16, Newton roots that found a root twice miss by 2e-7 or more
_TRACE_TOL = 1e-13

#: after refinement, a0 - Re(V c) must be at most this fraction of max |a0|
#: on the modes without a frozen pole
_RESIDUAL_TOL = 1e-12

#: refinement steps of the expansion coefficients, and the most steps
#: taken while the residual exceeds _REFINED_TOL of max |a0|: a root
#: within rounding of a cancelled pole slows the refinement to a factor
#: of about 1e-4 a step
_REFINE_STEPS = 2
_REFINE_CAP = 4
_REFINED_TOL = 1e-14

#: an open-loop pole p of mode n is frozen when |k1_n + k2_n p| is at most
#: this fraction of |k1_n| + |k2_n| |p|; a root is made real when |Im mu|
#: is at most this fraction of |mu|
_FROZEN_TOL = 1e-13

#: the Aberth retry offsets start j by _ABERTH_OFFSET e^(2 pi i 0.618 j),
#: and takes a root as converged also once its step is at most _ROUNDING
#: of |mu|: in a cluster of roots and poles, d_n f is only known to the
#: rounding of mu
_ABERTH_OFFSET = 1e-3
_ROUNDING = 2.0**-52


class UnverifiedModes(ArithmeticError):
    """coupled_modes could not verify the eigenstructure; the message names
    the check that failed."""


class CoupledModes(namedtuple("CoupledModes",
                              ["roots", "pairs", "vectors", "coef", "frozen", "open_modes", "rest"])):
    """Eigenstructure of the coupled closed loop A_cl = A + B Krow, and the
    expansion of one state a0 in it.

    roots holds first one root of each conjugate pair, the one with
    positive imaginary part, then every real root.  Row 2j of vectors is
    Re v_j and row 2j + 1 is -Im v_j, v_j the right eigenvector of roots[j]
    in the coordinates of A_cl, so that for complex E of shape (rows, r)
    Re(E V) is E.view(float) @ vectors.  coef holds the expansion, with
    a factor 2 on the pairs for their conjugates.  roots and coef are
    (r,) complex, vectors (2r, 2k) real, and pairs counts the leading
    roots that stand for a conjugate pair.

    frozen holds the open-loop poles that Krow cannot see (see
    coupled_modes), eigenvalues of A_cl that have no root here.
    open_modes indexes the modes of those poles, and rest (len(open_modes),
    2) holds the part of a0 along their directions: a0 = Re(coef V) plus
    rest on those modes, and the state at time t is Re((coef e^(roots t)) V)
    plus e^(F_n t) rest_n on mode open_modes[n].
    """

    __slots__ = ()

    @property
    def spectrum(self) -> np.ndarray:
        """All 2k eigenvalues, the conjugates of the pairs and the frozen
        poles included."""
        return np.concatenate([self.roots, self.roots[:self.pairs].conj(), self.frozen])


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


def _secular_iteration(start, gap, own, alpha, w2, gk, frozen=None):
    """delta = mu - start of each root by Newton on d_n f, or None when some
    root does not converge within _NEWTON_CAP steps; the converged roots
    leave the iteration, the others are stepped _ROOT_CHUNK at a time.

    With q = delta (delta + gap), d_n f = q (1 - S) - p_n S, p_n the own
    mode's g (k1 + k2 mu) (see coupled_modes and _secular_sums).  Given
    the frozen poles, the iteration is Aberth's on the characteristic
    polynomial f prod_m d_m, whose zeros are the roots and the frozen
    poles: delta starts at the offsets _ABERTH_OFFSET e^(2 pi i 0.618 j),
    and 1 / step = (d_n f)' / (d_n f) + sum_(m != n) d_m' / d_m
    - sum_i 1 / (mu_j - mu_i), the last sum over the other roots, as they
    stood at the start of the sweep, and the frozen poles.
    """
    gk1, gk2 = gk.T
    delta = np.zeros_like(start)
    if frozen is not None:
        delta = _ABERTH_OFFSET * np.exp(2j * np.pi * 0.618 * np.arange(len(start)))
    active = np.arange(len(start))
    for _ in range(_NEWTON_CAP):
        if not len(active):
            return delta
        if frozen is not None:
            others = np.concatenate([start + delta, frozen])
        going = []
        for lo in range(0, len(active), _ROOT_CHUNK):
            j = active[lo:lo + _ROOT_CHUNK]
            d, on, gp = delta[j], own[j], gap[j]
            m = start[j] + d
            inv, S, Sp = _secular_sums(m, on, alpha, w2, gk)
            pn = gk1[on] + gk2[on] * m
            q = d * (d + gp)
            value = q * (1.0 - S) - pn * S
            slope = (2.0 * d + gp) * (1.0 - S) - q * Sp - gk2[on] * S - pn * Sp
            if frozen is not None:
                near = 1.0 / (m[:, None] - others)
                near[np.arange(len(j)), j] = 0.0
                slope -= value * (near.sum(axis=1) - (2.0 * m + alpha) * inv.sum(axis=1))
            step = value / slope
            delta[j] = d = d - step
            done = np.abs(step) <= _NEWTON_TOL * np.abs(d)
            if frozen is not None:
                done |= np.abs(step) <= _ROUNDING * np.abs(start[j] + d)
            going.append(j[~done])
        active = np.concatenate(going)
    return delta if not len(active) else None


def coupled_modes(sols: ModalTable, a0) -> CoupledModes:
    """Eigenstructure of the coupled closed loop from its secular equation,
    in O(k^2), and the expansion of the state a0 (k, 2) in it; raises
    UnverifiedModes, naming the check, when it cannot be verified.

    A_cl = blockdiag(F_n) + B Krow has rank-one coupling, so by the matrix
    determinant lemma its eigenvalues are the roots of
    f(mu) = 1 - sum_n g_n (k1_n + k2_n mu) / d_n(mu), with b_n = [0, g_n]
    the true input and (k1_n, k2_n) the Krow block (Golub, SIAM Rev. 15,
    1973; Bunch, Nielsen & Sorensen, Numer. Math. 31, 1978), and the
    open-loop poles p (roots of d_n) with k1_n + k2_n p = 0 to
    _FROZEN_TOL: Krow cannot see their direction (1, p) on mode n.  These
    are both poles of a mode without gain, and -alpha of the Neumann mean
    mode at alpha = 1 with Q11 = Q22 (k1 = alpha k2).  They are frozen,
    eigenvalues as they stand, with k1_n = -k2_n p made exact.

    Newton runs on d_n f from each mode's closed-loop eigenvalues mu_s
    (one of a complex pair, both of a real pair) but the frozen poles;
    these are the roots of d_n - g_n (k1_n + k2_n mu) =
    (mu - mu_s)(mu - mu_o).  It carries delta = mu - mu_s, so that
    d_n = g_n (k1_n + k2_n mu) + delta (delta + mu_s - mu_o) does not
    cancel where a weak gain leaves the root within rounding of an
    open-loop pole.  Where the coupling carries a root far from its own
    mode's loop, Newton may find another root twice; when its roots fail
    the checks, the Aberth-Ehrlich iteration (Aberth, Math. Comp. 27, 1973;
    Bini & Robol, J. Comput. Appl. Math. 272, 2014) runs from every
    closed-loop eigenvalue but the frozen poles, offset so that a pair can
    split into two real roots (see _secular_iteration).  Roots with
    |Im mu| <= _FROZEN_TOL |mu| are made real, and one root of each pair
    is kept.

    The right vectors v_j = (mu_j - A)^-1 B and the left ones
    Krow (mu_j - A)^-1 are scaled by d_n(mu_j) of the own mode, so that
    the coefficients c_j = Krow (mu_j - A)^-1 a0 / f'(mu_j) stay finite as
    a gain vanishes.  _REFINE_STEPS steps of the same projection on the
    residual r = a0 - Re(V c) follow (see _REFINED_TOL).  The left vectors
    vanish on the frozen directions, so r keeps a0's part along them.
    Accepted are iterates that converge within _NEWTON_CAP steps to
    finite roots that, with the frozen poles, match tr(A_cl) and
    tr(A_cl^2) (formed in O(k) from the blocks) to _TRACE_TOL; and an r
    of at most _RESIDUAL_TOL of max |a0| on the modes without a frozen
    pole, where on the modes with one Krow_n r_n and Krow_n F_n r_n vanish
    to that tolerance, so that the control never sees r.
    """
    alpha, w2 = sols.cfg.alpha, frequency_sq(sols.n)
    g = true_modal_input(sols.cfg, sols.n)[0][:, 1]
    krow = coupled_gains(sols).reshape(-1, 2)
    k1, k2 = krow.T.copy()
    a0 = np.asarray(a0, dtype=float).reshape(-1)

    # the frozen poles and the closed-loop eigenvalues they stand for; a
    # mode with one frozen pole p has the loop (mu - p)(mu + alpha - g k2 + p)
    poles = open_loop_spectrum(sols.cfg, sols.n)
    blind = (np.abs(k1[:, None] + k2[:, None] * poles)
             <= _FROZEN_TOL * (np.abs(k1)[:, None] + np.abs(k2)[:, None] * np.abs(poles)))
    frozen = poles[blind]
    mu = closed_loop_spectrum(sols)
    held = blind.copy()
    one = np.flatnonzero(blind.sum(axis=1) == 1)
    p = poles[one][blind[one]].real
    k1[one] = -k2[one] * p
    mu[one] = np.stack([g[one] * k2[one] - alpha - p, p], axis=1)
    held[one] = (False, True)
    gk = np.stack([g * k1, g * k2], axis=1)
    gk1, gk2 = gk.T
    terms = (alpha, w2, gk)

    trace = np.sum(gk2) - alpha * len(sols)
    trace_sq = (np.sum(alpha**2 - 2.0 * w2) + 2.0 * np.sum(gk1 - alpha * gk2)
                + np.sum(gk2) ** 2)

    def failed(roots, pairs):
        """The check that roots (pairs of them for a conjugate pair) fail, or None."""
        if roots is None:
            return f"the secular roots did not converge within {_NEWTON_CAP} steps"
        if not (np.all(np.isfinite(roots)) and np.all(roots[:pairs].imag > 0)):
            return "the secular roots are not finite"
        weight = np.where(np.arange(len(roots)) < pairs, 2.0, 1.0)
        if (abs(np.sum(weight * roots.real) + np.sum(frozen.real) - trace)
                > _TRACE_TOL * (np.sum(weight * np.abs(roots)) + np.sum(np.abs(frozen)))
                or abs(np.sum(weight * (roots**2).real) + np.sum((frozen**2).real) - trace_sq)
                > _TRACE_TOL * (np.sum(weight * np.abs(roots) ** 2) + np.sum(np.abs(frozen) ** 2))):
            return "the secular roots miss the traces of the closed loop"
        return None

    paired = np.flatnonzero((mu[:, 0].imag > 0) & ~held[:, 0])
    first, second = (np.flatnonzero((mu[:, 0].imag <= 0) & ~h) for h in held.T)
    own = np.concatenate([paired, first, second])
    start = np.concatenate([mu[paired, 0], mu[first, 0], mu[second, 1]])
    gap = start - np.concatenate([mu[paired, 1], mu[first, 1], mu[second, 0]])
    pairs = len(paired)

    with np.errstate(all="ignore"):  # non-finite iterates fail the checks
        delta = _secular_iteration(start, gap, own, *terms)
        roots = None if delta is None else start + delta
        if failed(roots, pairs):
            n, col = np.nonzero(~held)
            own, start = n, mu[n, col]
            gap = start - mu[n, 1 - col]
            delta = _secular_iteration(start, gap, own, *terms, frozen)
            roots = None
            if delta is not None:
                roots = start + delta
                real = np.abs(roots.imag) <= _FROZEN_TOL * np.abs(roots)
                upper = np.flatnonzero(~real & (roots.imag > 0))
                if 2 * len(upper) + np.count_nonzero(real) != len(roots):
                    raise UnverifiedModes("the secular roots are not conjugate pairs")
                keep = np.concatenate([upper, np.flatnonzero(real)])
                pairs, own, start, gap = len(upper), own[keep], start[keep], gap[keep]
                roots = np.where(real, roots.real, roots)[keep]
                delta = roots - start
            check = failed(roots, pairs)
            if check:
                raise UnverifiedModes(check)
        weight = np.where(np.arange(len(roots)) < pairs, 2.0, 1.0)

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

        # the residual r on the modes without a frozen pole, and what Krow
        # sees of r and of F r on the modes with one, against the larger
        # of a0 and r there
        opened = blind.any(axis=1)
        c1, c2 = krow.T  # Krow as given, which the control applies
        seen_scale = (np.abs(c1) + np.abs(c2)) * np.stack([np.ones(k), 1.0 + alpha + w2])

        def residual_failed(r, tol):
            """The residual check that r fails at tolerance tol, or None."""
            r1, r2 = r.T
            seen = np.abs([c1 * r1 + c2 * r2, c1 * r2 - c2 * (w2 * r1 + alpha * r2)])
            if not np.abs(r[~opened]).max(initial=0.0) <= tol * np.abs(a0).max():
                return "the expansion misses the state"
            if not np.all(seen[:, opened] <= tol * max(np.abs(a0).max(), np.abs(r).max())
                          * seen_scale[:, opened]):
                return "the control sees the open-loop remainder"
            return None

        coef = project(a0, np.zeros_like(roots))
        for step in range(_REFINE_CAP + 1):
            r = (a0 - coef.view(float) @ vectors).reshape(k, 2)
            if step == _REFINE_CAP or (step >= _REFINE_STEPS and not residual_failed(r, _REFINED_TOL)):
                break
            coef = project(r, coef)
        check = residual_failed(r, _RESIDUAL_TOL)
    if check:
        raise UnverifiedModes(check)
    open_modes = np.flatnonzero(opened)
    return CoupledModes(roots, pairs, vectors, coef, frozen, open_modes, r[open_modes])


def coupled_spectrum(sols: ModalTable):
    """Spectrum of the coupled closed loop and its spectral abscissa.

    The control u = integral K(x) z(x) dx reduces to the pairing-weighted,
    expansion-signed sum of the modal gains; each mode is forced through its
    true input vector, so the diagonal blocks collapse to F_n + G_n K_n.

    The eigenvalues are the roots of coupled_modes, verified on the unit
    state (every coefficient 1), and its frozen poles, in O(k^2); where
    they cannot be verified, coupled_modes raises UnverifiedModes.
    """
    ev = coupled_modes(sols, np.ones((len(sols), 2))).spectrum
    ev = ev[np.lexsort((ev.imag, ev.real))]
    return ev, float(ev.real.max())


class CoupledAre(NamedTuple):
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
