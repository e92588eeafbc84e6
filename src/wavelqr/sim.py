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
time quadrature of the cost.  scipy's expm is imported inside the two
functions that call it, so importing the package does not load scipy.
"""

from collections import namedtuple
from dataclasses import dataclass, field

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
from .riccati import ModalTable, gain_arrays
from .spectrum import closed_loop_matrices, closed_loop_spectrum, coupled_loop_parts


#: fewest grid intervals simulate_fd accepts
MIN_FD_INTERVALS = 32


class SimulationError(RuntimeError):
    """A simulation produced non-finite values."""


@dataclass(frozen=True)
class ModalState:
    """Coefficients of z in the plain sin/cos basis at one instant."""

    boundary: Boundary
    modes: tuple[int, ...]
    a: np.ndarray  # (len(modes), 2)
    t: float = 0.0

    def __post_init__(self):
        a = np.asarray(self.a, dtype=float)
        if a.shape != (len(self.modes), 2):
            raise ValueError(f"coefficient array must be ({len(self.modes)}, 2), got {a.shape}")
        if not np.all(np.isfinite(a)):
            raise ValueError("modal coefficients must be finite")
        object.__setattr__(self, "a", a)


@dataclass(frozen=True)
class FieldState:
    """Displacement and velocity samples on a spatial grid."""

    t: float
    x: np.ndarray
    z1: np.ndarray
    z2: np.ndarray


@dataclass(frozen=True)
class SimResult:
    """Trajectory record: states, control samples and accumulated cost."""

    times: np.ndarray
    states: np.ndarray  # (nt, n_modes_or_points, 2)
    u_record: np.ndarray
    cost: np.ndarray  # running accumulated criterion
    metadata: dict = field(default_factory=dict)

    @property
    def total_cost(self) -> float:
        return float(self.cost[-1])


CostPrediction = namedtuple("CostPrediction", ["per_mode", "field"])


def project_initial(z1_fn, z2_fn, N: int, boundary: Boundary, n_quad: int = 4097) -> ModalState:
    """Modal coefficients of initial data by composite Simpson quadrature.

    a_n = 2 * integral(z phi_n) for sine and cosine modes n >= 1, and the
    plain mean integral for the Neumann n = 0 mode.
    """
    boundary = Boundary(boundary)
    modes = tuple(mode_range(boundary, N))
    x = np.linspace(0.0, 1.0, n_quad)
    wq = simpson_weights(n_quad, x[1] - x[0])
    phi = basis_matrix(boundary, modes, x)
    z1 = np.asarray(z1_fn(x), dtype=float) * np.ones_like(x)
    z2 = np.asarray(z2_fn(x), dtype=float) * np.ones_like(x)
    pw = projection_weight(boundary, modes)
    a = np.stack([(phi @ (wq * z1)) / pw, (phi @ (wq * z2)) / pw], axis=1)
    return ModalState(boundary, modes, a, t=0.0)


def reconstruct_field(state: ModalState, x_grid) -> FieldState:
    """Evaluate the truncated basis sum of a modal state on a grid."""
    x = np.asarray(x_grid, dtype=float)
    phi = basis_matrix(state.boundary, state.modes, x)
    z1 = state.a[:, 0] @ phi
    z2 = state.a[:, 1] @ phi
    return FieldState(state.t, x, z1, z2)


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


def _solution_at(sols: ModalTable, modes) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(P11, P12, P22) of a table at the given modes; zero where it has no such mode."""
    row = {m: i for i, m in enumerate(sols.n.tolist())}
    idx = np.array([row.get(m, -1) for m in modes], dtype=int)
    # index -1 reads the appended zero
    return tuple(np.append(c, 0.0)[idx] for c in (sols.p11, sols.p12, sols.p22))


def _propagate(cfg: WaveConfig, state0: ModalState, k1, k2, nsteps: int, dt: float):
    """Modal states (nsteps + 1, k, 2) under each mode's own loop F + G K.

    One step is the exact propagator expm((F + G K) dt) of every mode.
    """
    # deferred: simulation is the only use of scipy, and importing
    # scipy.linalg costs about 0.3 s that the other CLI commands need not pay
    from scipy.linalg import expm

    props = expm(closed_loop_matrices(cfg, state0.modes, k1, k2) * dt)
    a = np.empty((nsteps + 1, len(state0.modes), 2))
    a[0] = state0.a
    for k in range(nsteps):
        a[k + 1] = np.einsum("nij,nj->ni", props, a[k])
    return a


def target_solution(cfg: WaveConfig, state0: ModalState, T: float, dt: float) -> SimResult:
    """Open-loop modal evolution: the reference trajectory z is steered to."""
    nsteps = _steps_for(T, dt)
    modes = state0.modes
    a = _propagate(cfg, state0, 0.0, 0.0, nsteps, dt)
    times = dt * np.arange(nsteps + 1)
    return SimResult(
        times=times,
        states=a,
        u_record=np.zeros(nsteps + 1),
        cost=np.zeros(nsteps + 1),
        metadata={"scheme": "modal-open-loop", "dt": dt, "N": max(modes, default=0)},
    )


def simulate_decoupled(
    cfg: WaveConfig,
    family: WeightFamily,
    sols: ModalTable,
    state0: ModalState,
    T: float,
    dt: float,
) -> SimResult:
    """Every mode under its own closed loop, each with its own control u_n.

    A mode missing from sols runs open loop.  The running cost integrates
    sum_n (a_n' Q^n a_n + R u_n^2) by composite Simpson over the sample
    times; this is the per-mode LQR frame in which the infinite-horizon cost
    equals a_0' P^n a_0 exactly.
    """
    nsteps = _steps_for(T, dt)
    modes = state0.modes
    _, p12, p22 = _solution_at(sols, modes)
    k1, k2 = gain_arrays(cfg, modes, p12, p22)
    gains = np.stack([k1, k2], axis=1)  # (k, 2)
    qblocks = _blocks(*weight_arrays(family, modes))
    a = _propagate(cfg, state0, k1, k2, nsteps, dt)
    u = np.einsum("nj,tnj->tn", gains, a)  # per-mode controls
    integrand = np.einsum("tni,nij,tnj->t", a, qblocks, a) + cfg.R * np.sum(u**2, axis=1)
    cost = running_quadrature(integrand, dt)
    return SimResult(
        times=dt * np.arange(nsteps + 1),
        states=a,
        u_record=u,
        cost=cost,
        metadata={"scheme": "modal-decoupled", "dt": dt, "N": max(modes, default=0)},
    )


def simulate_coupled_modal(
    cfg: WaveConfig,
    family: WeightFamily,
    sols: ModalTable,
    state0: ModalState,
    N: int,
    T: float,
    dt: float,
) -> SimResult:
    """Truncated coupled system under the single shared control.

    u(t) is the pairing-weighted, expansion-signed combination of the modal
    gains of sols (the quadrature of the gain kernel against z); a mode
    missing from sols adds no feedback, and every mode is forced through its
    true input vector.  The accumulated cost is the field-frame criterion:
    the double space quadrature plus R u^2.
    """
    from scipy.linalg import expm  # deferred, see _propagate

    nsteps = _steps_for(T, dt)
    modes, A, B, Krow = coupled_loop_parts(cfg, sols, N)
    if tuple(state0.modes) != tuple(modes):
        raise ValueError("initial state modes must match the truncation 1..N (0..N for Neumann)")
    d = 2 * len(modes)
    prop = expm((A + B @ Krow) * dt)
    s = np.empty((nsteps + 1, d))
    s[0] = state0.a.reshape(-1)
    for k in range(nsteps):
        s[k + 1] = prop @ s[k]
    a = s.reshape(nsteps + 1, len(modes), 2)
    u = s @ Krow[0]
    pw2 = projection_weight(cfg.boundary, modes) ** 2
    qblocks = _blocks(*weight_arrays(family, modes)) * pw2[:, None, None]
    integrand = np.einsum("tni,nij,tnj->t", a, qblocks, a) + cfg.R * u**2
    cost = running_quadrature(integrand, dt)
    return SimResult(
        times=dt * np.arange(nsteps + 1),
        states=a,
        u_record=u,
        cost=cost,
        metadata={"scheme": "modal-coupled", "dt": dt, "N": N},
    )


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
    against the truncated Q kernel (when a weight family is given) plus
    R u^2.  That kernel is a sum over at most N + 1 modes, so the quadrature
    is evaluated through the trapezoid projections c_n = sum_i w_i phi_n(x_i)
    z(x_i) as sum_n c_n' Q^n c_n, which is the same sum regrouped.
    """
    if M < MIN_FD_INTERVALS:
        raise ValueError(f"need at least {MIN_FD_INTERVALS} grid intervals, got M={M}")
    if not 0 < cfl <= 1:
        raise ValueError(f"CFL number must lie in (0, 1], got {cfl}")
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

    def lap0(w):
        # discrete Laplacian with the control contribution split off: the
        # actuated entry (Dirichlet value at x=0, u part of the Neumann
        # ghost at x=1) is excluded here and carried by lap_u * u
        out = np.empty_like(w)
        out[1:-1] = (w[2:] - 2.0 * w[1:-1] + w[:-2]) / (h * h)
        if dirichlet:
            out[1] = (w[2] - 2.0 * w[1]) / (h * h)
            out[0] = 0.0
            out[-1] = 0.0
        else:
            out[0] = 2.0 * (w[1] - w[0]) / (h * h)
            out[-1] = 2.0 * (w[-2] - w[-1]) / (h * h)
        return out

    # d(lap)/du: the actuated stencil entry
    lap_u = np.zeros(M + 1)
    if dirichlet:
        lap_u[1] = beta / (h * h)
    else:
        lap_u[-1] = 2.0 * beta / h

    def control(z1, z2):
        return float(k1w @ z1 + k2w @ z2)

    z1 = np.asarray(w0(x), dtype=float) * np.ones_like(x)
    z2 = np.asarray(w1(x), dtype=float) * np.ones_like(x)
    u = control(z1, z2)
    if dirichlet:
        z1[0] = beta * u
        z1[-1] = 0.0

    z1_traj = np.empty((nsteps + 1, M + 1))
    z2_traj = np.empty((nsteps + 1, M + 1))
    u_rec = np.empty(nsteps + 1)
    z1_traj[0] = z1
    z2_traj[0] = z2
    u_rec[0] = u

    # Kick-drift-kick leapfrog: the position sequence satisfies
    # (w(k+1) - 2 w(k) + w(k-1))/dt^2 = Lap w(k) - alpha (w(k+1)-w(k-1))/(2 dt)
    # and the carried velocity equals the centered difference identically.
    # The velocity half-kick at t(k+1) couples linearly to u(k+1) through the
    # actuated stencil entry, so the feedback closes as one scalar solve.
    damp = 1.0 + 0.5 * cfg.alpha * dt
    for k in range(1, nsteps + 1):
        acc = lap0(z1) + lap_u * u - cfg.alpha * z2
        z1n = z1 + dt * z2 + 0.5 * dt * dt * acc
        if dirichlet:
            z1n[-1] = 0.0
        # z2n = z2n0 + u_next * z2n1, u_next = (k1w z1n + k2w z2n0)/(1 - k2w z2n1)
        z2n0 = (z2 + 0.5 * dt * (acc + lap0(z1n))) / damp
        z2n1 = (0.5 * dt) * lap_u / damp
        denom = 1.0 - float(k2w @ z2n1)
        u_next = (float(k1w @ z1n) + float(k2w @ z2n0)) / denom
        z2 = z2n0 + u_next * z2n1
        if dirichlet:
            # boundary records follow the actuation data, not the stencil
            old = z1[0]
            z1n[0] = beta * u_next
            z2[0] = (z1n[0] - old) / dt
            z2[-1] = 0.0
        z1 = z1n
        u = u_next
        if not np.all(np.isfinite(z1)):
            raise SimulationError(
                f"finite-difference solution became non-finite at step {k} (t={k * dt:.6g}); "
                f"M={M}, cfl={cfl}"
            )
        z1_traj[k] = z1
        z2_traj[k] = z2
        u_rec[k] = u

    if family is not None:
        n_q = N if N is not None else (gain_profile.n_used if gain_profile is not None else 0)
        modes = mode_range(cfg.boundary, n_q)
        q11, q12, q22 = weight_arrays(family, modes)
        proj = (basis_matrix(cfg.boundary, modes, x) * wq).T  # (M + 1, modes)
        c1 = z1_traj @ proj
        c2 = z2_traj @ proj
        state_cost = (c1 * c1) @ q11 + 2.0 * ((c1 * c2) @ q12) + (c2 * c2) @ q22
    else:
        state_cost = np.zeros(nsteps + 1)
    integrand = state_cost + cfg.R * u_rec**2
    cost = running_quadrature(integrand, dt)

    return SimResult(
        times=dt * np.arange(nsteps + 1),
        states=np.stack([z1_traj, z2_traj], axis=-1),
        u_record=u_rec,
        cost=cost,
        metadata={"scheme": "fd-leapfrog", "dt": dt, "h": h, "M": M, "cfl": cfl},
    )


def predicted_cost(state0: ModalState, sols: ModalTable) -> CostPrediction:
    """Optimal cost predicted by the Riccati solution, in both frames.

    per_mode sums a_n' P^n a_n directly (the frame in which the modal AREs
    are exact); field applies the basis-pairing weights (1/4 per sine or
    cosine mode, 1 for the Neumann mean mode) and equals the double
    integral of z0' P(x1, x2) z0.
    """
    p11, p12, p22 = _solution_at(sols, state0.modes)
    P = _blocks(p11, p12, p22)
    a = state0.a
    quad_form = (a[:, None, :] @ P @ a[:, :, None])[:, 0, 0]
    pw2 = projection_weight(state0.boundary, state0.modes) ** 2
    # running sums in mode order from 0.0, so the result does not depend
    # on how numpy groups a sum
    per_mode = np.cumsum(np.append(0.0, quad_form))[-1]
    fieldv = np.cumsum(np.append(0.0, pw2 * quad_form))[-1]
    return CostPrediction(per_mode=float(per_mode), field=float(fieldv))


def decay_horizon(cfg: WaveConfig, sols: ModalTable, rel_tol: float = 1e-8) -> float:
    """Horizon after which the closed-loop cost tail is below rel_tol."""
    ev, _ = closed_loop_spectrum(cfg, sols.n, sols.k1, sols.k2)
    absc = ev.real.max()
    if absc >= 0:
        raise ValueError("closed loop is not exponentially stable: no finite horizon")
    return float(np.log(1.0 / rel_tol) / (2.0 * abs(absc)))
