"""Closed-loop simulation three ways, with cost accounting.

simulate_decoupled   advances every mode independently under its own 2x2
                     closed loop (the idealized mode-by-mode picture).
simulate_coupled_modal
                     advances the truncated coupled system in which one
                     scalar control, formed from the gain kernel, drives
                     all modes at once.
simulate_fd          integrates the wave equation on a grid with leapfrog
                     and injects the feedback through the actuated boundary.

Modal integrators use matrix exponentials of the (block) closed-loop
matrices, so their only error sources are the mode truncation and the
time quadrature of the cost.  Both exponentials are computed here in
numpy: the per-mode 2x2 blocks in closed form (expm_2x2), the coupled
propagator by Pade scaling and squaring (expm_pade).
"""

from collections import namedtuple
from dataclasses import dataclass
from math import factorial

import numpy as np

from .kernels import GainProfile, basis_matrix
from .model import (
    Boundary,
    WaveConfig,
    WeightFamily,
    mode_range,
    projection_weight,
    weight_arrays,
)
from .quad import running_quadrature, simpson_weights, trapezoid_weights
from .riccati import ModalTable
from .spectrum import closed_loop_matrices, closed_loop_spectrum, coupled_loop_parts


#: fewest grid intervals simulate_fd accepts
MIN_FD_INTERVALS = 32

#: expm_2x2 sums the power series of cosh and sinh(q)/q in q^2 for
#: |q^2| <= this radius; there its first omitted term, 1/20!, is below 1e-18
_SERIES_RADIUS = 1.0
_SERIES_TERMS = 10

#: Al-Mohy & Higham (2009), Table 3.1: the largest eta for which the
#: degree-m Pade approximant has backward error at most 2^-53
_PADE_THETA = ((3, 1.495585217958292e-2), (5, 2.539398330063230e-1),
               (7, 9.504178996162932e-1), (9, 2.097847961257068e0))
_THETA_13 = 4.25


class SimulationError(RuntimeError):
    """A simulation produced non-finite values."""


@dataclass(frozen=True)
class ModalState:
    """Coefficients of z in the plain sin/cos basis at one instant."""

    boundary: Boundary
    modes: tuple[int, ...]
    a: np.ndarray  # (len(modes), 2)

    def __post_init__(self):
        a = np.asarray(self.a, dtype=float)
        if a.shape != (len(self.modes), 2):
            raise ValueError(f"coefficient array must be ({len(self.modes)}, 2), got {a.shape}")
        if not np.all(np.isfinite(a)):
            raise ValueError("modal coefficients must be finite")
        object.__setattr__(self, "a", a)


@dataclass(frozen=True)
class SimResult:
    """Trajectory record: states, control samples and accumulated cost."""

    times: np.ndarray
    states: np.ndarray  # (nt, n_modes_or_points, 2)
    u_record: np.ndarray
    cost: np.ndarray  # running accumulated criterion

    @property
    def total_cost(self) -> float:
        return float(self.cost[-1])


CostPrediction = namedtuple("CostPrediction", ["per_mode", "field"])


def project_initial(z1_fn, z2_fn, N: int, boundary: Boundary) -> ModalState:
    """Modal coefficients of initial data by composite Simpson quadrature on
    4097 points.

    a_n = 2 * integral(z phi_n) for sine and cosine modes n >= 1, and the
    plain mean integral for the Neumann n = 0 mode.
    """
    boundary = Boundary(boundary)
    modes = tuple(mode_range(boundary, N))
    x = np.linspace(0.0, 1.0, 4097)
    wq = simpson_weights(len(x), x[1] - x[0])
    phi = basis_matrix(boundary, modes, x)
    z1 = np.asarray(z1_fn(x), dtype=float) * np.ones_like(x)
    z2 = np.asarray(z2_fn(x), dtype=float) * np.ones_like(x)
    pw = projection_weight(boundary, modes)
    a = np.stack([(phi @ (wq * z1)) / pw, (phi @ (wq * z2)) / pw], axis=1)
    return ModalState(boundary, modes, a)


def reconstruct_field(state: ModalState, x_grid) -> tuple[np.ndarray, np.ndarray]:
    """(z1, z2): the truncated basis sums of a modal state on a grid."""
    phi = basis_matrix(state.boundary, state.modes, np.asarray(x_grid, dtype=float))
    return state.a[:, 0] @ phi, state.a[:, 1] @ phi


def modal_energy(state: ModalState) -> float:
    """Field energy 0.5 * integral(z2^2 + (dz1/dx)^2) from coefficients."""
    modes = np.asarray(state.modes, dtype=float)
    pw = projection_weight(state.boundary, state.modes)
    kin = pw * state.a[:, 1] ** 2
    pot = 0.5 * (modes * np.pi) ** 2 * state.a[:, 0] ** 2  # x-derivative pairs with weight 1/2
    return float(0.5 * (kin.sum() + pot.sum()))


def field_energy(x, z1, z2) -> float:
    """Discrete field energy by trapezoid quadrature."""
    x = np.asarray(x, dtype=float)
    dz1 = np.gradient(np.asarray(z1, dtype=float), x)
    integrand = np.asarray(z2, dtype=float) ** 2 + dz1**2
    return float(0.5 * np.trapezoid(integrand, x))


def _steps_for(T: float, dt: float) -> int:
    if dt <= 0:
        raise ValueError(f"time step must be positive, got {dt}")
    if T <= 0:
        raise ValueError(f"horizon must be positive, got {T}")
    n = int(np.ceil(T / dt - 1e-12))
    return n + (n % 2)  # even step count for composite Simpson prefixes


def _blocks(c11, c12, c22) -> np.ndarray:
    """Symmetric 2x2 blocks as a C-contiguous (k, 2, 2) array: einsum sums a
    strided view in another order, which moves the cost in its last bits."""
    return np.stack([c11, c12, c12, c22], axis=1).reshape(-1, 2, 2)


def _check_modes(state0: ModalState, sols: ModalTable) -> None:
    """Refuse a state whose modes are not, in order, the modes of the table."""
    if tuple(state0.modes) != tuple(sols.n.tolist()):
        raise ValueError("initial state modes must be the solution table's modes, in order")


def expm_2x2(A) -> np.ndarray:
    """e^A of every matrix of a (k, 2, 2) stack, in closed form.

    With s = tr(A) / 2 and q^2 = s^2 - det(A), (A - s I)^2 = q^2 I, so
    e^A = e^s [c I + S (A - s I)] with c = cosh(q), S = sinh(q) / q; for
    q^2 < 0 these are cos|q| and sin|q| / |q|.  q^2 is formed as
    ((a11 - a22) / 2)^2 + a12 a21, which does not cancel near critical
    damping.  For |q^2| <= _SERIES_RADIUS, c and S are power series in
    q^2; on the real branch beyond it, e^s c and e^s S are built from
    e^(s+q) and e^(s-q), so no cosh overflows where e^s underflows.
    """
    A = np.asarray(A, dtype=float)
    s = 0.5 * (A[:, 0, 0] + A[:, 1, 1])
    h = 0.5 * (A[:, 0, 0] - A[:, 1, 1])
    q2 = h * h + A[:, 0, 1] * A[:, 1, 0]
    ec = np.empty_like(s)  # e^s c
    eS = np.empty_like(s)  # e^s S

    near = np.abs(q2) <= _SERIES_RADIUS
    x = q2[near]
    c = np.zeros_like(x)
    S = np.zeros_like(x)
    for k in range(_SERIES_TERMS - 1, -1, -1):
        c = c * x + 1.0 / factorial(2 * k)
        S = S * x + 1.0 / factorial(2 * k + 1)
    es = np.exp(s[near])
    ec[near] = es * c
    eS[near] = es * S

    osc = ~near & (q2 < 0)
    w = np.sqrt(-q2[osc])
    es = np.exp(s[osc])
    ec[osc] = es * np.cos(w)
    eS[osc] = es * np.sin(w) / w

    real = ~near & (q2 > 0)
    q = np.sqrt(q2[real])
    ep = np.exp(s[real] + q)
    em = np.exp(s[real] - q)
    ec[real] = 0.5 * (ep + em)
    eS[real] = 0.5 * (ep - em) / q

    out = np.empty_like(A)
    out[:, 0, 0] = ec + eS * h
    out[:, 0, 1] = eS * A[:, 0, 1]
    out[:, 1, 0] = eS * A[:, 1, 0]
    out[:, 1, 1] = ec - eS * h
    return out


def _pade_coefficients(m: int) -> list[float]:
    """b_j = (2m - j)! / (j! (m - j)!), Higham's integer scaling of the [m/m] Pade coefficients."""
    return [float(factorial(2 * m - j) // (factorial(j) * factorial(m - j))) for j in range(m + 1)]


def _extra_squarings(A, m: int) -> int:
    """ell(A, m) of Al-Mohy & Higham (2009): squarings to add so that the
    leading backward-error term |c_(2m+1)| ||A^(2m+1)|| / ||A|| stays near
    unit roundoff, bounded through |A|."""
    # the 1-norm of the nonnegative |A|^(2m+1) is the largest entry of
    # 1' |A|^(2m+1), formed exactly by 2m + 1 vector-matrix products
    absA = np.abs(A)
    v = np.ones(len(A))
    for _ in range(2 * m + 1):
        v = v @ absA
    if not v.max() > 0:
        return 0
    c = factorial(m) ** 2 / (factorial(2 * m) * factorial(2 * m + 1))
    alpha = c * v.max() / np.linalg.norm(A, 1)
    return max(int(np.ceil(np.log2(alpha / 2.0**-53) / (2 * m))), 0)


def expm_pade(A) -> np.ndarray:
    """e^A of a square matrix by scaling and squaring with a [m/m] Pade approximant.

    The degree m in {3, 5, 7, 9, 13} and the scaling 2^-s follow Al-Mohy &
    Higham (SIAM J. Matrix Anal. Appl. 31, 2009, Algorithm 5.1): they are
    chosen from eta = max(||A^4||^(1/4), ||A^6||^(1/6), ...), with exact
    1-norms of the even powers the approximant needs anyway.  The
    approximants are evaluated as in Higham (SIAM J. Matrix Anal. Appl. 26,
    2005).  Scaling by ||A||_1 instead would over-scale the weakly damped
    closed loops, whose norm is far above their spectral radius, and lose
    accuracy in the squarings.
    """
    A = np.asarray(A, dtype=float)
    ident = np.eye(len(A))
    A2 = A @ A
    A4 = A2 @ A2
    A6 = A2 @ A4
    d6 = np.linalg.norm(A6, 1) ** (1 / 6)
    eta = max(np.linalg.norm(A4, 1) ** 0.25, d6)
    powers = [ident, A2, A4, A6]  # A^0, A^2, A^4, ...
    for m, theta in _PADE_THETA:
        if m == 7:  # degrees 7 and 9 use A^8, and judge by max(d6, d8)
            powers.append(A4 @ A4)
            d8 = np.linalg.norm(powers[4], 1) ** (1 / 8)
            eta = max(d6, d8)
        if eta <= theta and _extra_squarings(A, m) == 0:
            b = _pade_coefficients(m)
            half = range(m // 2, -1, -1)
            U = A @ sum(b[2 * k + 1] * powers[k] for k in half)
            V = sum(b[2 * k] * powers[k] for k in half)
            return np.linalg.solve(V - U, V + U)

    eta = min(eta, max(d8, np.linalg.norm(A4 @ A6, 1) ** 0.1))
    s = max(int(np.ceil(np.log2(eta / _THETA_13))), 0) if eta > 0 else 0
    s += _extra_squarings(A / 2.0**s, 13)
    A, A2, A4, A6 = (X / 2.0 ** (p * s) for p, X in ((1, A), (2, A2), (4, A4), (6, A6)))
    b = _pade_coefficients(13)
    U = A @ (A6 @ (b[13] * A6 + b[11] * A4 + b[9] * A2)
             + b[7] * A6 + b[5] * A4 + b[3] * A2 + b[1] * ident)
    V = (A6 @ (b[12] * A6 + b[10] * A4 + b[8] * A2)
         + b[6] * A6 + b[4] * A4 + b[2] * A2 + b[0] * ident)
    X = np.linalg.solve(V - U, V + U)
    for _ in range(s):
        X = X @ X
    return X


def _propagate(cfg: WaveConfig, state0: ModalState, k1, k2, nsteps: int, dt: float):
    """Modal states (nsteps + 1, k, 2) under each mode's own loop F + G K.

    One step is the exact propagator expm((F + G K) dt) of every mode, in
    closed form (expm_2x2).
    """
    props = expm_2x2(closed_loop_matrices(cfg, state0.modes, k1, k2) * dt)
    a = np.empty((nsteps + 1, len(state0.modes), 2))
    a[0] = state0.a
    for k in range(nsteps):
        a[k + 1] = np.einsum("nij,nj->ni", props, a[k])
    return a


def simulate_decoupled(
    cfg: WaveConfig,
    sols: ModalTable,
    state0: ModalState,
    T: float,
    dt: float,
) -> SimResult:
    """Every mode under its own closed loop, each with its own control u_n.

    state0 must hold the modes of sols; a zero-weight row has zero gain and
    runs open loop, so a zero-weight table gives the open-loop target
    trajectory, with zero controls and zero cost.  The running cost integrates sum_n (a_n' Q^n a_n + R u_n^2)
    by composite Simpson over the sample times; this is the per-mode LQR
    frame in which the infinite-horizon cost equals a_0' P^n a_0 exactly.
    """
    _check_modes(state0, sols)
    nsteps = _steps_for(T, dt)
    gains = np.stack([sols.k1, sols.k2], axis=1)  # (k, 2)
    qblocks = _blocks(sols.q11, sols.q12, sols.q22)
    a = _propagate(cfg, state0, sols.k1, sols.k2, nsteps, dt)
    u = np.einsum("nj,tnj->tn", gains, a)  # per-mode controls
    integrand = np.einsum("tni,nij,tnj->t", a, qblocks, a) + cfg.R * np.sum(u**2, axis=1)
    cost = running_quadrature(integrand, dt)
    return SimResult(times=dt * np.arange(nsteps + 1), states=a, u_record=u, cost=cost)


def simulate_coupled_modal(
    cfg: WaveConfig,
    sols: ModalTable,
    state0: ModalState,
    T: float,
    dt: float,
) -> SimResult:
    """System truncated to the modes of sols under the single shared control.

    state0 must hold the modes of sols.  u(t) is the pairing-weighted,
    expansion-signed combination of the modal gains of sols (the quadrature
    of the gain kernel against z); a zero-weight row adds no feedback, and
    every mode is forced through its true input vector.  The accumulated
    cost is the field-frame criterion: the double space quadrature plus
    R u^2.
    """
    _check_modes(state0, sols)
    nsteps = _steps_for(T, dt)
    modes, A, B, Krow = coupled_loop_parts(cfg, sols)
    d = 2 * len(modes)
    prop = expm_pade((A + B @ Krow) * dt)
    s = np.empty((nsteps + 1, d))
    s[0] = state0.a.reshape(-1)
    for k in range(nsteps):
        s[k + 1] = prop @ s[k]
    a = s.reshape(nsteps + 1, len(modes), 2)
    u = s @ Krow[0]
    pw2 = projection_weight(cfg.boundary, modes) ** 2
    qblocks = _blocks(sols.q11, sols.q12, sols.q22) * pw2[:, None, None]
    integrand = np.einsum("tni,nij,tnj->t", a, qblocks, a) + cfg.R * u**2
    cost = running_quadrature(integrand, dt)
    return SimResult(times=dt * np.arange(nsteps + 1), states=a, u_record=u, cost=cost)


def simulate_fd(
    cfg: WaveConfig,
    gain_profile: GainProfile | None,
    w0,
    w1,
    M: int,
    T: float,
    cfl: float = 0.9,
    family: WeightFamily | None = None,
    N: int | None = None,
) -> SimResult:
    """Leapfrog finite-difference integration with boundary-injected feedback.

    Second-order central differences in space with dt = cfl * h; the damping
    term is centered in time.  The Dirichlet boundary value is set to
    beta * u directly; Neumann actuation enters through the second-order
    ghost point z1(1 + h) = z1(1 - h) + 2 h beta u.  The control is the
    trapezoid quadrature of K(x) z(x, t); the recorded velocity field is the
    centered difference (w_{k+1} - w_{k-1}) / (2 dt).

    The accumulated cost is the double trapezoid quadrature of z' Q z
    against the Q kernel of the family truncated to N modes (when a weight
    family is given, N must be too) plus R u^2.  That kernel is a sum over
    at most N + 1 modes, so the quadrature is evaluated through the
    trapezoid projections c_n = sum_i w_i phi_n(x_i) z(x_i) as
    sum_n c_n' Q^n c_n, which is the same sum regrouped.

    The steps write into one (steps + 1, 2, M + 1) buffer, z1 and z2 of each
    step contiguous; states is its (steps + 1, M + 1, 2) transposed view.
    """
    if M < MIN_FD_INTERVALS:
        raise ValueError(f"need at least {MIN_FD_INTERVALS} grid intervals, got M={M}")
    if not 0 < cfl <= 1:
        raise ValueError(f"CFL number must lie in (0, 1], got {cfl}")
    if family is not None and N is None:
        raise ValueError("a weight family needs the mode count N of its Q kernel")
    h = 1.0 / M
    dt = cfl * h
    nsteps = _steps_for(T, dt)
    x = np.linspace(0.0, 1.0, M + 1)

    if gain_profile is None:
        Kx = np.zeros((M + 1, 2))
    else:
        if len(gain_profile.grid_x) != M + 1 or not np.allclose(gain_profile.grid_x, x):
            raise ValueError("gain profile must be sampled on the simulation grid")
        Kx = gain_profile.values
    wq = trapezoid_weights(M + 1, h)
    k1w = wq * Kx[:, 0]
    k2w = wq * Kx[:, 1]

    dirichlet = cfg.boundary == Boundary.DIRICHLET
    beta = cfg.beta

    hh = h * h

    def lap0(w, out):
        # discrete Laplacian, written into out, with the control contribution
        # split off: the actuated entry (Dirichlet value at x=0, u part of
        # the Neumann ghost at x=1) is excluded here and carried by lap_u * u
        inner = out[1:-1]
        np.multiply(w[1:-1], 2.0, out=inner)
        np.subtract(w[2:], inner, out=inner)
        np.add(inner, w[:-2], out=inner)
        np.divide(inner, hh, out=inner)
        if dirichlet:
            out[1] = (w[2] - 2.0 * w[1]) / hh
            out[0] = 0.0
            out[-1] = 0.0
        else:
            out[0] = 2.0 * (w[1] - w[0]) / hh
            out[-1] = 2.0 * (w[-2] - w[-1]) / hh
        return out

    # d(lap)/du: the actuated stencil entry.  Every other entry is 0.0, so the
    # steps add the scalar 0.0 * u there (a signed zero, or nan when u is not
    # finite), which keeps the bits of lap + lap_u * u, and form the actuated
    # entry alone
    ia = 1 if dirichlet else M
    lap_u = np.zeros(M + 1)
    lap_u[ia] = beta / hh if dirichlet else 2.0 * beta / h

    def control(z1, z2):
        return float(k1w @ z1 + k2w @ z2)

    z1 = np.asarray(w0(x), dtype=float) * np.ones_like(x)
    z2 = np.asarray(w1(x), dtype=float) * np.ones_like(x)
    u = control(z1, z2)
    if dirichlet:
        z1[0] = beta * u
        z1[-1] = 0.0

    # the trajectory, component-major: buf[k, 0] is z1 and buf[k, 1] is z2
    # at step k, each contiguous, and the steps write into it in place
    buf = np.empty((nsteps + 1, 2, M + 1))
    u_rec = np.empty(nsteps + 1)
    buf[0, 0] = z1
    buf[0, 1] = z2
    u_rec[0] = u

    # Kick-drift-kick leapfrog: the position sequence satisfies
    # (w(k+1) - 2 w(k) + w(k-1))/dt^2 = Lap w(k) - alpha (w(k+1)-w(k-1))/(2 dt)
    # and the carried velocity equals the centered difference identically.
    # The velocity half-kick at t(k+1) couples linearly to u(k+1) through the
    # actuated stencil entry, so the feedback closes as one scalar solve.
    # lap0(z1n) is the next step's lap0(z1): the only entry written after it
    # is the Dirichlet z1n[0], which lap0 does not read.  Every update keeps
    # the operations and their order of the plain array expressions in the
    # comments, so the trajectory is the same to the bit.
    alpha = cfg.alpha
    half_dt = 0.5 * dt
    c_acc = half_dt * dt
    damp = 1.0 + 0.5 * alpha * dt
    z2n1 = half_dt * lap_u / damp
    denom = 1.0 - float(k2w @ z2n1)
    lap_ua = lap_u[ia]
    z2n1a = z2n1[ia]
    acc = np.empty(M + 1)
    tmp = np.empty(M + 1)
    finite = np.empty(M + 1, dtype=bool)
    lap, lap_next = lap0(z1, np.empty(M + 1)), np.empty(M + 1)
    z1, z2 = buf[0, 0], buf[0, 1]
    for k in range(1, nsteps + 1):
        z1n, z2n = buf[k, 0], buf[k, 1]
        # acc = lap + lap_u * u - alpha * z2
        np.add(lap, 0.0 * u, out=acc)
        acc[ia] = lap[ia] + lap_ua * u
        np.subtract(acc, np.multiply(z2, alpha, out=tmp), out=acc)
        # z1n = z1 + dt * z2 + 0.5 * dt * dt * acc
        np.add(z1, np.multiply(z2, dt, out=z1n), out=z1n)
        np.add(z1n, np.multiply(acc, c_acc, out=tmp), out=z1n)
        if dirichlet:
            z1n[-1] = 0.0
        lap, lap_next = lap0(z1n, lap_next), lap
        # z2n0 = (z2 + 0.5 * dt * (acc + lap)) / damp, into z2n; x / 1.0 is x
        np.add(z2, np.multiply(np.add(acc, lap, out=tmp), half_dt, out=tmp), out=z2n)
        if damp != 1.0:
            np.divide(z2n, damp, out=z2n)
        # z2n = z2n0 + u_next * z2n1, u_next = (k1w z1n + k2w z2n0)/(1 - k2w z2n1)
        u_next = (float(k1w @ z1n) + float(k2w @ z2n)) / denom
        z2n0a = z2n[ia]
        np.add(z2n, 0.0 * u_next, out=z2n)
        z2n[ia] = z2n0a + u_next * z2n1a
        if dirichlet:
            # boundary records follow the actuation data, not the stencil
            z1n[0] = beta * u_next
            z2n[0] = (z1n[0] - z1[0]) / dt
            z2n[-1] = 0.0
        if np.count_nonzero(np.isfinite(z1n, out=finite)) < M + 1:
            raise SimulationError(
                f"finite-difference solution became non-finite at step {k} (t={k * dt:.6g}); "
                f"M={M}, cfl={cfl}"
            )
        u = u_rec[k] = u_next
        z1, z2 = z1n, z2n

    if family is not None:
        modes = mode_range(cfg.boundary, N)
        q11, q12, q22 = weight_arrays(family, modes)
        proj = (basis_matrix(cfg.boundary, modes, x) * wq).T  # (M + 1, modes)
        c1 = buf[:, 0] @ proj
        c2 = buf[:, 1] @ proj
        state_cost = (c1 * c1) @ q11 + 2.0 * ((c1 * c2) @ q12) + (c2 * c2) @ q22
    else:
        state_cost = np.zeros(nsteps + 1)
    integrand = state_cost + cfg.R * u_rec**2
    cost = running_quadrature(integrand, dt)

    states = buf.transpose(0, 2, 1)  # (nsteps + 1, M + 1, 2)
    return SimResult(times=dt * np.arange(nsteps + 1), states=states, u_record=u_rec, cost=cost)


def predicted_cost(state0: ModalState, sols: ModalTable) -> CostPrediction:
    """Optimal cost predicted by the Riccati solution, in both frames.

    per_mode sums a_n' P^n a_n directly (the frame in which the modal AREs
    are exact); field applies the basis-pairing weights (1/4 per sine or
    cosine mode, 1 for the Neumann mean mode) and equals the double
    integral of z0' P(x1, x2) z0.  state0 must hold the modes of sols.
    """
    _check_modes(state0, sols)
    P = _blocks(sols.p11, sols.p12, sols.p22)
    a = state0.a
    quad_form = (a[:, None, :] @ P @ a[:, :, None])[:, 0, 0]
    pw2 = projection_weight(state0.boundary, state0.modes) ** 2
    # running sums in mode order from 0.0, so the result does not depend
    # on how numpy groups a sum
    per_mode = np.cumsum(np.append(0.0, quad_form))[-1]
    fieldv = np.cumsum(np.append(0.0, pw2 * quad_form))[-1]
    return CostPrediction(per_mode=float(per_mode), field=float(fieldv))


def decay_horizon(cfg: WaveConfig, sols: ModalTable) -> float:
    """Horizon after which the closed-loop cost tail is below 1e-8 of the cost."""
    ev, _ = closed_loop_spectrum(cfg, sols.n, sols.k1, sols.k2)
    absc = ev.real.max()
    if absc >= 0:
        raise ValueError("closed loop is not exponentially stable: no finite horizon")
    return float(np.log(1e8) / (2.0 * abs(absc)))
