"""Per-mode algebraic Riccati solutions, in closed form and by oracle.

Each spatial mode n reduces to a 2x2 LQR problem with matrices (F, G, Q, R)
from the model module.  Writing w2 = n^2 pi^2 and c = G[1]^2 / R (so
c = n^2 pi^2 gamma^2 under Dirichlet and c = gamma^2 under Neumann
actuation), the four components of the ARE

    F' P + P F - P G R^-1 G' P + Q = 0

read

    0 = -2 w2 P12 + Q11 - c P12^2
    0 = P11 - alpha P12 - w2 P22 + Q12 - c P12 P22        (and its transpose)
    0 = 2 P12 - 2 alpha P22 + Q22 - c P22^2

The stabilizing solution takes the positive root of each quadratic:

    P12 = (-w2 + sqrt(w2^2 + c Q11)) / c
    P22 = (-alpha + sqrt(alpha^2 + c (Q22 + 2 P12))) / c
    P11 = alpha P12 + (w2 + c P12) P22 - Q12

The implementation evaluates the algebraically identical conjugate forms
P12 = Q11 / (w2 + sqrt(w2^2 + c Q11)) and
P22 = (Q22 + 2 P12) / (alpha + sqrt(alpha^2 + c (Q22 + 2 P12))), which stay
accurate when the weights are many orders of magnitude below w2^2.

The independent oracle solves the same ARE from scratch via the stable
invariant subspace of the Hamiltonian matrix, falling back to a
Newton-Kleinman iteration started from a Bass stabilizing gain.
"""

from dataclasses import dataclass, fields

import numpy as np

from .model import (
    Boundary,
    ModalWeight,
    WaveConfig,
    WeightFamily,
    frequency_sq,
    gain_expansion_sign,
    input_gain,
    mode_range,
    projection_weight,
    validate_mode,
    weight_arrays,
)

#: relative residual bound the closed forms satisfy (scale 1 + |Q| + |P|^2)
TOL_RES = 1e-10
#: bound on how negative the smallest eigenvalue of a solution may be
TOL_PSD = 1e-12
#: relative ARE residual accepted from the oracle
TOL_ORACLE = 1e-8


class OracleError(RuntimeError):
    """The ARE oracle could not produce a stabilizing solution."""


def _min_eigenvalue(p11, p12, p22):
    """Smaller eigenvalue of [[P11, P12], [P12, P22]], vectorized."""
    rad = np.sqrt(0.25 * np.float_power(p11 - p22, 2) + np.float_power(p12, 2))
    return 0.5 * (p11 + p22) - rad


def _scale(qmax, pmax):
    """1 + |Q| + |P|^2, the scale of the relative residual bounds."""
    return 1.0 + qmax + np.float_power(pmax, 2)


@dataclass(frozen=True)
class ModalRiccati:
    """Stabilizing 2x2 Riccati solution for one mode, with ARE residuals."""

    n: int
    p11: float
    p12: float
    p22: float
    residuals: tuple[float, float, float, float]

    @property
    def matrix(self) -> np.ndarray:
        return np.array([[self.p11, self.p12], [self.p12, self.p22]])

    @property
    def min_eigenvalue(self) -> float:
        return float(_min_eigenvalue(self.p11, self.p12, self.p22))

    @property
    def max_residual(self) -> float:
        return max(abs(r) for r in self.residuals)


@dataclass(frozen=True)
class ModalGain:
    """Row feedback gain K = -R^-1 G' P for one mode."""

    n: int
    k1: float
    k2: float

    @property
    def row(self) -> np.ndarray:
        return np.array([self.k1, self.k2])


@dataclass(frozen=True, eq=False)
class ModalTable:
    """Closed-form solutions of many modes as columns; ``residuals`` is (k, 4).

    ``len``, integer indexing and so iteration yield ModalRiccati views, so
    a table stands wherever a sequence of solutions is expected; a slice or
    a mask selects a sub-table.
    """

    n: np.ndarray
    q11: np.ndarray
    q12: np.ndarray
    q22: np.ndarray
    p11: np.ndarray
    p12: np.ndarray
    p22: np.ndarray
    k1: np.ndarray
    k2: np.ndarray
    residuals: np.ndarray
    rel_residual: np.ndarray
    min_eigenvalue: np.ndarray

    def __len__(self) -> int:
        return len(self.n)

    def __getitem__(self, i):
        if isinstance(i, (int, np.integer)):
            return ModalRiccati(
                int(self.n[i]), float(self.p11[i]), float(self.p12[i]), float(self.p22[i]),
                tuple(float(r) for r in self.residuals[i]),
            )
        return ModalTable(*(getattr(self, f.name)[i] for f in fields(self)))

    @property
    def matrices(self) -> np.ndarray:
        """The Riccati matrices stacked as (k, 2, 2)."""
        return np.stack([[self.p11, self.p12], [self.p12, self.p22]]).transpose(2, 0, 1)


def input_gain_sq(cfg: WaveConfig, n) -> np.ndarray:
    """c = G[1]^2 / R, vectorized over the mode index."""
    n = np.asarray(n, dtype=float)
    if cfg.boundary == Boundary.DIRICHLET:
        return (n * np.pi) ** 2 * cfg.gamma_sq
    return np.full_like(n, cfg.gamma_sq)


def gain_arrays(cfg: WaveConfig, n, p12, p22) -> tuple[np.ndarray, np.ndarray]:
    """K = -R^-1 G' P, vectorized: -(G[1] / R) (P21, P22)."""
    coef = -(input_gain(cfg, n) / cfg.R)
    return coef * p12, coef * p22


def _closed_form_arrays(w2, c, alpha, q11, q22, q12):
    """Vectorized stabilizing solution; all arguments broadcast."""
    w2, c, q11, q22, q12 = np.broadcast_arrays(
        np.asarray(w2, dtype=float), c, q11, q22, q12
    )
    denom = w2 + np.sqrt(w2 * w2 + c * q11)
    p12 = np.divide(q11, denom, out=np.zeros_like(denom), where=q11 > 0)
    y = q22 + 2.0 * p12
    root = alpha + np.sqrt(alpha * alpha + c * y)
    p22 = np.divide(y, root, out=np.zeros_like(root), where=y > 0)
    p11 = alpha * p12 + (w2 + c * p12) * p22 - q12
    return p11, p12, p22


def _residual_arrays(w2, c, alpha, q11, q22, q12, p11, p12, p22, p21=None):
    """The four modal ARE components, vectorized; zero at a solution."""
    if p21 is None:
        p21 = p12
    r11 = -2.0 * w2 * p12 + q11 - c * p12 * p12
    r12 = p11 - alpha * p12 - w2 * p22 + q12 - c * p12 * p22
    r21 = p11 - alpha * p21 - w2 * p22 + q12 - c * p22 * p21
    r22 = 2.0 * p12 - 2.0 * alpha * p22 + q22 - c * p22 * p22
    return r11, r12, r21, r22


def residual_scale(weight: ModalWeight, P: np.ndarray) -> float:
    """Scale 1 + |Q| + |P|^2 used for relative residual bounds."""
    qmax = max(abs(weight.q11), abs(weight.q12), abs(weight.q22))
    return float(_scale(qmax, np.max(np.abs(P))))


def modal_table(cfg: WaveConfig, n, q11, q12, q22) -> ModalTable:
    """Stabilizing closed-form solutions of the admissible modes n with weights Q.

    Raises ArithmeticError, naming the first such mode, when a solution
    lost positive semidefiniteness.  Zero weights give the zero matrix with
    exactly zero residuals.
    """
    n = np.asarray(n, dtype=int)
    q11, q12, q22 = (np.asarray(q, dtype=float) for q in (q11, q12, q22))
    w2 = frequency_sq(n)
    c = input_gain_sq(cfg, n)
    p11, p12, p22 = _closed_form_arrays(w2, c, cfg.alpha, q11, q22, q12)
    res = np.stack(_residual_arrays(w2, c, cfg.alpha, q11, q22, q12, p11, p12, p22), axis=1)
    k1, k2 = gain_arrays(cfg, n, p12, p22)
    qmax = np.maximum.reduce([np.abs(q11), np.abs(q12), np.abs(q22)])
    pmax = np.maximum.reduce([np.abs(p11), np.abs(p12), np.abs(p22)])
    scale = _scale(qmax, pmax)
    min_eig = _min_eigenvalue(p11, p12, p22)
    lost = min_eig < -TOL_PSD * scale
    if lost.any():
        i = np.argmax(lost)
        raise ArithmeticError(
            f"closed-form solution for mode {n[i]} lost positive semidefiniteness "
            f"(min eigenvalue {min_eig[i]:.3e})"
        )
    return ModalTable(
        n, q11, q12, q22, p11, p12, p22, k1, k2, res,
        np.max(np.abs(res), axis=1, initial=0.0) / scale, min_eig,
    )


def solve_closed_form(cfg: WaveConfig, weight: ModalWeight) -> ModalRiccati:
    """Stabilizing modal Riccati solution in closed form.

    Raises InvalidModeError for a mode not admissible under cfg.boundary.
    The returned solution carries the four ARE residuals; the zero weight
    returns the zero matrix with exactly zero residuals.
    """
    n = validate_mode(cfg.boundary, weight.n)
    return modal_table(cfg, [n], [weight.q11], [weight.q12], [weight.q22])[0]


def solve_family(cfg: WaveConfig, family: WeightFamily, N: int) -> ModalTable:
    """Closed-form solutions for every mode up to the cutoff N."""
    n = np.array(mode_range(cfg.boundary, N))
    return modal_table(cfg, n, *weight_arrays(family, n))


def residuals(cfg: WaveConfig, weight: ModalWeight, P: np.ndarray):
    """Left-hand sides of the four modal ARE components at an arbitrary P.

    P is a 2x2 array; its (0,1) and (1,0) entries are used where the
    equations name P12 and P21, so the middle two residuals coincide
    exactly when P is symmetric.
    """
    n = validate_mode(cfg.boundary, weight.n)
    P = np.asarray(P, dtype=float)
    r = _residual_arrays(
        frequency_sq(n), input_gain_sq(cfg, n), cfg.alpha, weight.q11, weight.q22, weight.q12,
        P[0, 0], P[0, 1], P[1, 1], p21=P[1, 0],
    )
    return tuple(float(v) for v in r)


def negative_root_matrices(cfg: WaveConfig, n, q11, q12, q22) -> np.ndarray:
    """Propagate the negative P12 root through the closed forms, stacked (k, 2, 2).

    Exists to exhibit that the other quadratic branch never yields a
    nonnegative definite solution; entries are NaN when the P22 radicand
    goes negative.
    """
    w2 = frequency_sq(n)
    c = input_gain_sq(cfg, n)
    p12 = (-w2 - np.sqrt(w2 * w2 + c * np.asarray(q11, dtype=float))) / c
    disc = cfg.alpha**2 + c * (q22 + 2.0 * p12)
    p22 = (-cfg.alpha + np.sqrt(np.where(disc >= 0, disc, np.nan))) / c
    p11 = cfg.alpha * p12 + (w2 + c * p12) * p22 - q12
    return np.stack([[p11, p12], [p12, p22]]).transpose(2, 0, 1)


def negative_root_solution(cfg: WaveConfig, weight: ModalWeight) -> np.ndarray:
    """negative_root_matrices for one mode: a 2x2 matrix."""
    n = validate_mode(cfg.boundary, weight.n)
    return negative_root_matrices(cfg, [n], [weight.q11], [weight.q12], [weight.q22])[0]


def modal_gain(cfg: WaveConfig, sol: ModalRiccati) -> ModalGain:
    """K = -R^-1 G' P: -R^-1 beta n pi [P21, P22] (Dirichlet), -R^-1 beta [P21, P22] (Neumann)."""
    k1, k2 = gain_arrays(cfg, sol.n, sol.p12, sol.p22)
    return ModalGain(sol.n, float(k1), float(k2))


# ---------------------------------------------------------------------------
# Independent ARE oracle
# ---------------------------------------------------------------------------


def _solve_lyapunov(A: np.ndarray, W: np.ndarray) -> np.ndarray:
    """Solve A' X + X A + W = 0 through the eigendecomposition of A."""
    lam, V = np.linalg.eig(A)
    pair = lam[:, None] + lam[None, :]
    if np.min(np.abs(pair)) < 1e-12 * (1.0 + np.max(np.abs(lam))):
        raise OracleError("Lyapunov spectrum condition lambda_i + lambda_j != 0 violated")
    Wt = V.T @ W @ V
    Y = -Wt / pair
    Vinv = np.linalg.inv(V)
    X = Vinv.T @ Y @ Vinv
    X = np.real(X)
    return 0.5 * (X + X.T)


def _bass_stabilizing_gain(F: np.ndarray, G: np.ndarray) -> np.ndarray:
    """Stabilizing state feedback K with F + G K Hurwitz (Bass's method)."""
    d = F.shape[0]
    mu = 1.0 + np.linalg.norm(F, ord="fro")
    M = F + mu * np.eye(d)
    # M Z + Z M' = 2 G G', positive definite when (F, G) is controllable
    Z = _solve_lyapunov(M.T, -2.0 * G @ G.T)
    try:
        K = -np.linalg.solve(Z, G).T
    except np.linalg.LinAlgError as exc:
        raise OracleError("Bass stabilization failed: controllability Gramian singular") from exc
    return K


def _newton_kleinman(F, G, Q, R, K0=None, tol=1e-13, max_iter=100) -> np.ndarray:
    """Kleinman iteration: Lyapunov solves with successively improved gains."""
    K = _bass_stabilizing_gain(F, G) if K0 is None else K0
    P = None
    for _ in range(max_iter):
        A = F + G @ K
        if np.max(np.linalg.eigvals(A).real) >= 0:
            raise OracleError("Newton-Kleinman iterate lost closed-loop stability")
        W = Q + K.T @ R @ K
        P_new = _solve_lyapunov(A, W)
        K = -np.linalg.solve(R, G.T @ P_new)
        if P is not None and np.max(np.abs(P_new - P)) <= tol * (1.0 + np.max(np.abs(P_new))):
            return P_new
        P = P_new
    raise OracleError("Newton-Kleinman iteration did not converge")


def _care_residual(F, G, Q, R, P) -> float:
    res = F.T @ P + P @ F - P @ G @ np.linalg.solve(R, G.T @ P) + Q
    scale = 1.0 + np.linalg.norm(Q) + np.linalg.norm(P) ** 2 * np.linalg.norm(G @ G.T) / np.min(
        np.abs(np.linalg.eigvals(R))
    )
    return float(np.linalg.norm(res) / scale)


def _strictly_stable(A: np.ndarray) -> bool:
    """Every eigenvalue satisfies Re < -1e-12 (1 + |lambda|)."""
    ev = np.linalg.eigvals(A)
    return bool(np.all(ev.real < -1e-12 * (1.0 + np.abs(ev))))


def are_oracle(F, G, Q, R, tol: float = TOL_ORACLE) -> np.ndarray:
    """Stabilizing PSD solution of F'P + PF - PGR^-1G'P + Q = 0.

    Forms the Hamiltonian [[F, -G R^-1 G'], [-Q, -F']], extracts the stable
    invariant subspace from its eigendecomposition and sets P = X2 X1^-1.
    When Hamiltonian eigenvalues cluster near the imaginary axis, or X1 is
    ill conditioned, it falls back to a Newton-Kleinman iteration from a
    Bass stabilizing gain.  Eigenvalues on the axis raise OracleError.
    """
    F = np.atleast_2d(np.asarray(F, dtype=float))
    Q = np.atleast_2d(np.asarray(Q, dtype=float))
    R = np.atleast_2d(np.asarray(R, dtype=float))
    G = np.asarray(G, dtype=float)
    if G.ndim == 1:
        G = G[:, None]
    d = F.shape[0]

    S = G @ np.linalg.solve(R, G.T)
    H = np.block([[F, -S], [-Q, -F.T]])
    ev, V = np.linalg.eig(H)

    def accept(P: np.ndarray) -> bool:
        # the stabilizing solution is the PSD one with a stable closed loop;
        # mixed invariant subspaces also zero the residual but fail these
        if _care_residual(F, G, Q, R, P) > tol:
            return False
        if np.min(np.linalg.eigvalsh(P)) < -tol * (1.0 + np.max(np.abs(P))):
            return False
        return _strictly_stable(F - S @ P)

    order = np.argsort(ev.real)
    stable = order[:d]
    # smallest distance between a selected and an unselected eigenvalue:
    # when stable and antistable eigenvalues nearly collide on the axis the
    # computed subspace mixes them and P degrades like eps*|H|/gap
    gap = np.min(np.abs(ev[stable][:, None] - ev[order[d:]][None, :]))
    hnorm = np.linalg.norm(H, ord="fro")
    clustered = gap <= 0 or np.finfo(float).eps * hnorm / max(gap, 1e-300) > 1e-10
    if not clustered and np.all(ev.real[stable] < 0) and ev.real[order[d]] > 0:
        X = V[:, stable]
        X1, X2 = X[:d], X[d:]
        if np.linalg.cond(X1) < 1e12:
            P = np.real(X2 @ np.linalg.inv(X1))
            P = 0.5 * (P + P.T)
            if accept(P):
                return P

    # eigenvalues clustered near the imaginary axis, X1 ill conditioned,
    # or the extracted subspace failed the checks
    try:
        P = _newton_kleinman(F, G, Q, R)
    except OracleError as exc:
        raise OracleError(f"no stabilizing solution found: {exc}") from exc
    if _care_residual(F, G, Q, R, P) > tol:
        raise OracleError("oracle residual above tolerance after Newton-Kleinman fallback")
    if not _strictly_stable(F - S @ P):
        raise OracleError(
            "Hamiltonian eigenvalue on the imaginary axis: the problem is not "
            "stabilizable or only marginally so"
        )
    return P


def _newton_kleinman_modes(w2, c, alpha, q11, q12, q22, max_iter=200, tol=1e-14):
    """Vectorized Kleinman iteration over many 2x2 modal problems.

    Every closed-loop iterate keeps the companion form [[0, 1], [-d, -t]],
    for which the Lyapunov equation solves in closed form; the iteration is
    therefore exact Newton-Kleinman, run elementwise across all items.
    Returns (P11, P12, P22, converged mask).
    """
    # initial stabilizing gain: d0 = max(w2, 1) > 0, t0 = alpha + 1 > 0
    a = np.where(w2 > 0, 0.0, 1.0)  # a = c P12 of the current gain
    b = np.ones_like(w2)  # b = c P22 of the current gain
    p11 = np.zeros_like(w2)
    p12 = np.zeros_like(w2)
    p22 = np.zeros_like(w2)
    prev = None
    converged = np.zeros(w2.shape, dtype=bool)
    for _ in range(max_iter):
        d = w2 + a
        t = alpha + b
        w11 = q11 + a * a / c
        w12 = q12 + a * b / c
        w22 = q22 + b * b / c
        p12 = w11 / (2.0 * d)
        p22 = (2.0 * p12 + w22) / (2.0 * t)
        p11 = d * p22 + t * p12 - w12
        a = c * p12
        b = c * p22
        cur = np.stack([p11, p12, p22])
        if prev is not None:
            converged = np.all(np.abs(cur - prev) <= tol * (1.0 + np.abs(cur)), axis=0)
            if converged.all():
                break
        prev = cur
    return p11, p12, p22, converged & np.isfinite(p11) & np.isfinite(p12) & np.isfinite(p22)


def oracle_solve_modes(cfg: WaveConfig, ns, q11, q12, q22):
    """Batched oracle for many 2x2 modal problems at once.

    Returns (P11, P12, P22) arrays.  One stacked eigendecomposition of the
    4x4 Hamiltonians covers the well-separated items; items whose stable
    and antistable eigenvalues nearly collide on the imaginary axis (where
    the subspace extraction degrades like eps |H| / gap) are redone with the
    vectorized Newton-Kleinman iteration, and any stragglers with the
    scalar oracle.
    """
    ns = np.asarray(ns)
    k = len(ns)
    q11, q12, q22, _ = np.broadcast_arrays(
        np.asarray(q11, dtype=float),
        np.asarray(q12, dtype=float),
        np.asarray(q22, dtype=float),
        np.zeros(k),
    )
    w2 = (ns * np.pi) ** 2
    c = input_gain_sq(cfg, ns)

    H = np.zeros((k, 4, 4))
    H[:, 0, 1] = 1.0
    H[:, 1, 0] = -w2
    H[:, 1, 1] = -cfg.alpha
    H[:, 1, 3] = -c
    H[:, 2, 0] = -q11
    H[:, 2, 1] = -q12
    H[:, 2, 3] = w2
    H[:, 3, 0] = -q12
    H[:, 3, 1] = -q22
    H[:, 3, 2] = -1.0
    H[:, 3, 3] = cfg.alpha

    ev, V = np.linalg.eig(H)
    order = np.argsort(ev.real, axis=1)
    sel = order[:, :2]
    unsel = order[:, 2:]
    X = np.take_along_axis(V, sel[:, None, :], axis=2)
    X1, X2 = X[:, :2, :], X[:, 2:, :]

    det = X1[:, 0, 0] * X1[:, 1, 1] - X1[:, 0, 1] * X1[:, 1, 0]
    safe = np.abs(det) > 0
    detsafe = np.where(safe, det, 1.0)
    inv = np.empty_like(X1)
    inv[:, 0, 0] = X1[:, 1, 1] / detsafe
    inv[:, 0, 1] = -X1[:, 0, 1] / detsafe
    inv[:, 1, 0] = -X1[:, 1, 0] / detsafe
    inv[:, 1, 1] = X1[:, 0, 0] / detsafe
    P = X2 @ inv

    Pr = P.real
    p11 = Pr[:, 0, 0]
    p12 = 0.5 * (Pr[:, 0, 1] + Pr[:, 1, 0])
    p22 = Pr[:, 1, 1]

    ev_sel = np.take_along_axis(ev, sel, axis=1)
    ev_unsel = np.take_along_axis(ev, unsel, axis=1)
    gap = np.min(np.abs(ev_sel[:, :, None] - ev_unsel[:, None, :]), axis=(1, 2))
    hnorm = np.maximum.reduce([w2, np.abs(q11), np.abs(q22), c, np.ones_like(w2)])
    separated = np.finfo(float).eps * hnorm <= 1e-10 * np.maximum(gap, 1e-300)

    r = _residual_arrays(w2, c, cfg.alpha, q11, q22, q12, p11, p12, p22)
    res = np.max(np.abs(np.stack(r)), axis=0)
    pmax = np.maximum.reduce([np.abs(p11), np.abs(p12), np.abs(p22)])
    res_scale = 1.0 + np.maximum.reduce([np.abs(q11), np.abs(q12), np.abs(q22)]) + pmax**2
    min_eig = 0.5 * (p11 + p22) - np.sqrt(0.25 * (p11 - p22) ** 2 + p12**2)
    ok = (
        safe
        & separated
        & (np.abs(P.imag).max(axis=(1, 2)) <= 1e-7 * (1.0 + np.abs(Pr).max(axis=(1, 2))))
        & (res <= 1e-9 * res_scale)
        & (min_eig >= -1e-9 * (1.0 + pmax))
    )

    if not ok.all():
        n11, n12, n22, conv = _newton_kleinman_modes(w2, c, cfg.alpha, q11, q12, q22)
        take = ~ok & conv
        p11 = np.where(take, n11, p11)
        p12 = np.where(take, n12, p12)
        p22 = np.where(take, n22, p22)
        ok |= take

    for i in np.nonzero(~ok)[0]:
        F = np.array([[0.0, 1.0], [-w2[i], -cfg.alpha]])
        g = np.sqrt(c[i] * cfg.R)
        Pi = are_oracle(F, np.array([0.0, g]), np.array([[q11[i], q12[i]], [q12[i], q22[i]]]), cfg.R)
        p11[i], p12[i], p22[i] = Pi[0, 0], Pi[0, 1], Pi[1, 1]
    return p11, p12, p22


# ---------------------------------------------------------------------------
# Truncated coupled ARE diagnostic
# ---------------------------------------------------------------------------


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
    P_diag: np.ndarray
    K_diag: np.ndarray
    dev_P_fro: float
    dev_P_max: float
    dev_K_fro: float


def coupled_truncated_are(cfg: WaveConfig, family: WeightFamily, N: int) -> CoupledAre:
    """Solve the ARE of the truncated coupled plant and measure the gap.

    The per-mode construction solves each 2x2 block independently; the
    shared scalar control couples the blocks through B, so the coupled ARE
    solution is generally not block diagonal.  Deviations quantify what the
    decoupling ansatz omits.
    """
    # spectrum imports this module, so its plant builder is imported here
    from .spectrum import coupled_loop_parts

    modes, A, B, _ = coupled_loop_parts(cfg, [], N)
    # pairing-weighted coordinates: B stacks proj_weight_n * G_true_n, which
    # equals the modal G up to the gain-expansion sign
    B = B * np.repeat([projection_weight(cfg.boundary, n) for n in modes], 2)[:, None]
    t = solve_family(cfg, family, N)
    Qb = _block_diag(np.stack([[t.q11, t.q12], [t.q12, t.q22]]).transpose(2, 0, 1))
    P_diag = _block_diag(t.matrices)
    sign = np.array([gain_expansion_sign(cfg.boundary, n) for n in modes])
    K_diag = np.stack([sign * t.k1, sign * t.k2], axis=1).reshape(1, -1)

    if not Qb.any():
        if cfg.alpha == 0:
            raise OracleError("undamped plant with zero weights is only marginally stable")
        P_big = np.zeros_like(A)
    else:
        P_big = are_oracle(A, B, Qb, np.array([[cfg.R]]))
    K_big = -(B.T @ P_big) / cfg.R
    dev_P = P_big - P_diag
    return CoupledAre(
        modes=tuple(modes),
        P_big=P_big,
        K_big=K_big,
        P_diag=P_diag,
        K_diag=K_diag,
        dev_P_fro=float(np.linalg.norm(dev_P)),
        dev_P_max=float(np.max(np.abs(dev_P))),
        dev_K_fro=float(np.linalg.norm(K_big - K_diag)),
    )


def _block_diag(blocks: np.ndarray) -> np.ndarray:
    """Block-diagonal matrix of a (k, 2, 2) stack."""
    k = len(blocks)
    out = np.zeros((k, 2, k, 2))
    out[np.arange(k), :, np.arange(k), :] = blocks
    return out.reshape(2 * k, 2 * k)
