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

Two independent oracles solve the same equations from scratch, one
algorithm each, and never evaluate the closed forms:

* oracle_solve_modes runs Kleinman's Newton iteration on every 2x2 modal
  problem at once (Kleinman, IEEE TAC 1968).
* are_oracle, for a plant of any size such as the truncated coupled one,
  runs the determinant-scaled Newton iteration for the sign function of
  the Hamiltonian matrix (Byers, Lin. Alg. Appl. 85, 1987) and reads the
  solution off its stable invariant subspace.
"""

import numpy as np

from .model import (
    Boundary,
    WaveConfig,
    WeightFamily,
    frequency_sq,
    input_gain,
    mode_range,
    validate_mode,
    weight_arrays,
)

#: relative residual bound the closed forms satisfy (scale 1 + |Q| + |P|^2)
TOL_RES = 1e-10
#: bound on how negative the smallest eigenvalue of a solution may be
TOL_PSD = 1e-12
#: relative ARE residual accepted from the oracle
TOL_ORACLE = 1e-8
#: iteration limit of the modal Kleinman iteration, and the step, relative to
#: 1 + |P| entrywise, that ends it (about 16 times its measured rounding floor)
_KLEINMAN_MAX_ITER = 200
_KLEINMAN_TOL = 1e-13
#: iteration limit of the sign iteration, and the 1-norm step, relative to
#: |Z|, that ends it
_SIGN_MAX_ITER = 100
_SIGN_TOL = 1e-12


class OracleError(RuntimeError):
    """The ARE oracle could not produce a stabilizing solution."""


def _min_eigenvalue(p11, p12, p22):
    """Smaller eigenvalue of [[P11, P12], [P12, P22]], vectorized."""
    rad = np.sqrt(0.25 * np.float_power(p11 - p22, 2) + np.float_power(p12, 2))
    return 0.5 * (p11 + p22) - rad


def _scale(qmax, pmax):
    """1 + |Q| + |P|^2, the scale of the relative residual bounds."""
    return 1.0 + qmax + np.float_power(pmax, 2)


def symmetric_blocks(c11, c12, c22) -> np.ndarray:
    """[[c11, c12], [c12, c22]] as a C-contiguous (k, 2, 2) array: einsum sums
    a strided view in another order, which moves a sum in its last bits."""
    return np.stack([c11, c12, c12, c22], axis=1).reshape(-1, 2, 2)


class ModalTable:
    """Closed-form solutions of many modes as columns; ``residuals`` is (k, 4).

    cfg is the problem solved, which every consumer of the table reads.  A
    slice, a mask or an index array selects a sub-table of the same cfg; a
    single row is read from the columns.  len() is the mode count, which a
    named tuple's _replace would check against its field count, so the
    table is a read-only class with a named tuple's _fields and _replace.
    """

    _fields = ("cfg", "n", "q11", "q12", "q22", "p11", "p12", "p22", "k1", "k2",
               "residuals", "rel_residual", "min_eigenvalue")
    __slots__ = _fields

    def __init__(self, cfg: WaveConfig, n: np.ndarray, q11: np.ndarray, q12: np.ndarray,
                 q22: np.ndarray, p11: np.ndarray, p12: np.ndarray, p22: np.ndarray,
                 k1: np.ndarray, k2: np.ndarray, residuals: np.ndarray,
                 rel_residual: np.ndarray, min_eigenvalue: np.ndarray):
        columns = locals()
        for name in self._fields:
            object.__setattr__(self, name, columns[name])

    def __setattr__(self, name, value):
        raise AttributeError(f"ModalTable is read-only: cannot assign {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"ModalTable is read-only: cannot delete {name!r}")

    def _replace(self, **changes) -> "ModalTable":
        """A copy of the table with the named fields replaced."""
        values = {name: getattr(self, name) for name in self._fields}
        values.update(changes)
        return ModalTable(**values)

    def __len__(self) -> int:
        return len(self.n)

    def __getitem__(self, rows):
        if isinstance(rows, (int, np.integer)):
            raise TypeError("a ModalTable selects sub-tables; read a single row from its columns")
        return ModalTable(self.cfg, *(getattr(self, name)[rows] for name in self._fields[1:]))

    @property
    def matrices(self) -> np.ndarray:
        """The Riccati matrices stacked as (k, 2, 2)."""
        return symmetric_blocks(self.p11, self.p12, self.p22)


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


def residual_arrays(w2, c, alpha, q11, q22, q12, p11, p12, p22):
    """The four modal ARE components of a symmetric P, vectorized; zero at a solution.

    w2 = n^2 pi^2 and c = G[1]^2 / R (frequency_sq, input_gain_sq).  The
    middle two are one equation and its transpose, with the quadratic term's
    factors in the order of each.
    """
    r11 = -2.0 * w2 * p12 + q11 - c * p12 * p12
    r12 = p11 - alpha * p12 - w2 * p22 + q12 - c * p12 * p22
    r21 = p11 - alpha * p12 - w2 * p22 + q12 - c * p22 * p12
    r22 = 2.0 * p12 - 2.0 * alpha * p22 + q22 - c * p22 * p22
    return r11, r12, r21, r22


def modal_table(cfg: WaveConfig, n, q11, q12, q22) -> ModalTable:
    """Stabilizing closed-form solutions of the modes n with weights Q.

    Raises InvalidModeError for a mode not admissible under cfg.boundary,
    and ArithmeticError, naming the first such mode, when a solution lost
    positive semidefiniteness.  Zero weights give the zero matrix with
    exactly zero residuals.
    """
    n = validate_mode(cfg.boundary, n)
    q11, q12, q22 = (np.asarray(q, dtype=float) for q in (q11, q12, q22))
    w2 = frequency_sq(n)
    c = input_gain_sq(cfg, n)
    p11, p12, p22 = _closed_form_arrays(w2, c, cfg.alpha, q11, q22, q12)
    res = np.stack(residual_arrays(w2, c, cfg.alpha, q11, q22, q12, p11, p12, p22), axis=1)
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
        cfg, n, q11, q12, q22, p11, p12, p22, k1, k2, res,
        np.max(np.abs(res), axis=1, initial=0.0) / scale, min_eig,
    )


def solve_family(cfg: WaveConfig, family: WeightFamily, N: int) -> ModalTable:
    """Closed-form solutions for every mode up to N: the table the kernels,
    spectra and simulators read their modes, weights and problem from."""
    n = np.array(mode_range(cfg.boundary, N))
    return modal_table(cfg, n, *weight_arrays(family, n))


def negative_root_matrices(cfg: WaveConfig, n, q11, q12, q22) -> np.ndarray:
    """Propagate the negative P12 root through the closed forms, stacked (k, 2, 2).

    Exists to exhibit that the other quadratic branch never yields a
    nonnegative definite solution; entries are NaN when the P22 radicand
    goes negative.  Raises InvalidModeError for a mode not admissible under
    cfg.boundary.
    """
    n = validate_mode(cfg.boundary, n)
    w2 = frequency_sq(n)
    c = input_gain_sq(cfg, n)
    p12 = (-w2 - np.sqrt(w2 * w2 + c * np.asarray(q11, dtype=float))) / c
    disc = cfg.alpha**2 + c * (q22 + 2.0 * p12)
    p22 = (-cfg.alpha + np.sqrt(np.where(disc >= 0, disc, np.nan))) / c
    p11 = cfg.alpha * p12 + (w2 + c * p12) * p22 - q12
    return symmetric_blocks(p11, p12, p22)


# ---------------------------------------------------------------------------
# Independent ARE oracle
# ---------------------------------------------------------------------------


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


def are_oracle(F, G, Q, R) -> np.ndarray:
    """Stabilizing PSD solution of F'P + PF - PGR^-1G'P + Q = 0.

    Runs the Newton iteration Z <- (mu Z + Z^-1 / mu) / 2 for the matrix sign
    function of the Hamiltonian H = [[F, -G R^-1 G'], [-Q, -F']], with
    mu = |det Z|^(-1/2d) (Byers' determinant scaling).  The stable invariant
    subspace [I; P] is the null space of sign(H) + I, so P solves
    [W12; W22 + I] P = -[W11 + I; W21] in the least-squares sense.  A
    Hamiltonian eigenvalue on the imaginary axis stops the iteration from
    converging and raises OracleError, at the first non-finite iterate if
    one overflows, as does a P that fails the residual or semidefiniteness
    bound TOL_ORACLE or the closed-loop stability check.
    """
    F = np.atleast_2d(np.asarray(F, dtype=float))
    Q = np.atleast_2d(np.asarray(Q, dtype=float))
    R = np.atleast_2d(np.asarray(R, dtype=float))
    G = np.asarray(G, dtype=float)
    if G.ndim == 1:
        G = G[:, None]
    d = F.shape[0]

    S = G @ np.linalg.solve(R, G.T)
    Z = np.block([[F, -S], [-Q, -F.T]])
    for _ in range(_SIGN_MAX_ITER):
        sign, logdet = np.linalg.slogdet(Z)
        if sign == 0:
            # an iterate is singular only when H has an eigenvalue on the axis
            raise OracleError(
                "sign iteration hit a singular iterate: a Hamiltonian eigenvalue lies on "
                "the imaginary axis, so no stabilizing solution exists"
            )
        mu = np.exp(-logdet / (2 * d))
        Z_next = 0.5 * (mu * Z + np.linalg.inv(Z) / mu)
        if not np.isfinite(Z_next).all():
            raise OracleError(
                "sign iteration overflowed: a Hamiltonian eigenvalue lies on or near "
                "the imaginary axis, so no stabilizing solution exists"
            )
        step = np.linalg.norm(Z_next - Z, 1)
        Z = Z_next
        if step <= _SIGN_TOL * np.linalg.norm(Z, 1):
            break
    else:
        raise OracleError(
            "sign iteration did not converge: a Hamiltonian eigenvalue lies on or "
            "near the imaginary axis, so no stabilizing solution exists or it is "
            "only marginally stabilizing"
        )

    eye = np.eye(d)
    lhs = np.vstack([Z[:d, d:], Z[d:, d:] + eye])
    rhs = -np.vstack([Z[:d, :d] + eye, Z[d:, :d]])
    P = np.linalg.lstsq(lhs, rhs, rcond=None)[0]
    P = 0.5 * (P + P.T)
    # the stabilizing solution is the PSD one with a stable closed loop
    if _care_residual(F, G, Q, R, P) > TOL_ORACLE:
        raise OracleError("oracle residual above tolerance")
    if np.min(np.linalg.eigvalsh(P)) < -TOL_ORACLE * (1.0 + np.max(np.abs(P))):
        raise OracleError("oracle solution is not positive semidefinite")
    if not _strictly_stable(F - S @ P):
        raise OracleError("oracle solution does not stabilize the closed loop")
    return P


def oracle_solve_modes(cfg: WaveConfig, ns, q11, q12, q22):
    """Batched oracle for many 2x2 modal problems at once: Kleinman's iteration.

    Returns (P11, P12, P22) arrays.  Each step solves the Lyapunov equation
    of the current closed loop and takes the gain of its solution (Kleinman,
    IEEE TAC 1968).  Every closed-loop iterate keeps the companion form
    [[0, 1], [-d, -t]], whose Lyapunov equation solves in closed form, so
    the iteration runs elementwise across all modes.  Raises OracleError,
    naming the first such mode, when an item has no stabilizing solution or
    does not converge.  A mode has none when Q does not observe an open-loop
    eigenvalue on the imaginary axis: the eigenvalues +-i n pi of an
    undamped mode n >= 1 with Q = 0, or the eigenvalue 0 of the n pi = 0
    (Neumann mean) mode with Q11 = Q12 = 0.  Kleinman's iterates would
    halve towards P = 0 there and meet the step bound.
    """
    ns = np.asarray(ns)
    q11, q12, q22, _ = np.broadcast_arrays(
        np.asarray(q11, dtype=float),
        np.asarray(q12, dtype=float),
        np.asarray(q22, dtype=float),
        np.zeros(len(ns)),
    )
    w2 = frequency_sq(ns)
    c = input_gain_sq(cfg, ns)
    unobserved = (q11 == 0) & (q12 == 0) & np.where(w2 > 0, (cfg.alpha == 0) & (q22 == 0), True)
    if unobserved.any():
        raise OracleError(
            f"no stabilizing solution for mode {ns[np.argmax(unobserved)]}: Q does not "
            "observe its open-loop eigenvalue on the imaginary axis"
        )

    # initial stabilizing gain: d0 = max(w2, 1) > 0, t0 = alpha + 1 > 0
    a = np.where(w2 > 0, 0.0, 1.0)  # a = c P12 of the current gain
    b = np.ones_like(w2)  # b = c P22 of the current gain
    prev = None
    converged = np.zeros(w2.shape, dtype=bool)
    for _ in range(_KLEINMAN_MAX_ITER):
        d = w2 + a
        t = cfg.alpha + b
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
            converged = np.all(np.abs(cur - prev) <= _KLEINMAN_TOL * (1.0 + np.abs(cur)), axis=0)
            if converged.all():
                break
        prev = cur
    if not converged.all():
        raise OracleError(f"Kleinman iteration did not converge for mode {ns[np.argmin(converged)]}")
    return p11, p12, p22
