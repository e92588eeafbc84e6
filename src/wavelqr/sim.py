"""Closed-loop simulation three ways, with cost accounting.

simulate_decoupled   advances every mode independently under its own 2x2
                     closed loop (the idealized mode-by-mode picture).
simulate_coupled_modal
                     advances the truncated coupled system in which one
                     scalar control, formed from the gain kernel, drives
                     all modes at once.
simulate_fd          integrates the wave equation on a grid with the
                     summed form of leapfrog and injects the feedback
                     through the actuated boundary.

Modal integrators are exact in time, so their only error sources are the
mode truncation and the time quadrature of the cost.  The per-mode 2x2
propagators of simulate_decoupled are closed-form exponentials
(expm_2x2).  simulate_coupled_modal steps the coupled loop in its
eigenbasis: the eigenvalues of blockdiag(F_n) + B Krow are the roots of a
secular equation, found and verified in O(N^2) by
spectrum.coupled_modes, and the state is Re((c e^(mu t)) V).  Where the
roots cannot be verified, it exponentiates the dense loop by scaling and
squaring with a Pade approximant of degree 3 to 9 (expm_pade).

All three step their trajectory into blocks of FD_BLOCK rows, evaluate
each block for the controls and the cost in their own loop, and keep the
states of steps 0, stride, 2 stride, ... and of the last step (_stream
for the modal runs; simulate_fd holds positions only in its blocks and
writes the kept velocities as it steps); times, u_record (one control)
and cost keep one entry per step.  The state cost of a block is one
expression for all three (_state_cost): three matrix-vector products
with the weight columns.

In the eigenbasis, each block's states are one real matrix product of
E = c e^(mu t), formed from an exact exp at the block start and a slab
recurrence by e^(mu MAX_SLAB dt), with the real and imaginary parts of
the eigenvectors (_eigen_stepped).  The per-mode run and the dense
coupled path step a linear recurrence x_(i+1) = P x_i, so row i also
follows from row i - B through P^B (_stepped).  Rows 1 to B - 1 are
stepped one at a time by P; then P gives way to P^B, and every later
slab of B rows is one product with the B rows before it: a matrix
product (level-3 BLAS) for the dense coupled loop, whose P^B is formed
by log2(B) squarings, and four elementwise products over the slab for
the per-mode 2x2 blocks, whose P^B is their closed-form exponential at
B dt.  B is a power of two up to MAX_SLAB, derived from the propagator
size and the row count (_slab_rows); B = 1 is the one-row recurrence.
"""

from collections import namedtuple
from dataclasses import dataclass
from math import factorial, isfinite

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
from .spectrum import (
    CoupledModes,
    closed_loop_matrices,
    closed_loop_spectrum,
    coupled_gains,
    coupled_loop_parts,
    coupled_modes,
)


#: fewest grid intervals simulate_fd accepts
MIN_FD_INTERVALS = 32

#: rows of trajectory a simulator steps into before it evaluates them for
#: the cost; the last block takes the remainder, so it holds FD_BLOCK to
#: 2 FD_BLOCK - 1 rows
FD_BLOCK = 256

#: the most rows a modal simulator steps by one product with the rows
#: before them; a block's first slab reads the previous block's last
#: MAX_SLAB rows, so FD_BLOCK must be at least 2 MAX_SLAB
MAX_SLAB = 16

#: expm_2x2 sums the power series of cosh and sinh(q)/q in q^2 for
#: |q^2| <= this radius; there its first omitted term, 1/20!, is below 1e-18
_SERIES_RADIUS = 1.0
_SERIES_TERMS = 10

#: Al-Mohy & Higham (2009), Table 3.1: the largest eta for which the
#: degree-m Pade approximant has backward error at most 2^-53
_PADE_THETA = ((3, 1.495585217958292e-2), (5, 2.539398330063230e-1),
               (7, 9.504178996162932e-1), (9, 2.097847961257068e0))


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
    """Trajectory record: states, control samples and accumulated cost.

    times, u_record and cost hold one entry per step, u_record the scalar
    boundary control (for simulate_decoupled, the sum of the per-mode
    controls).  states holds the rows of steps 0, stride, 2 stride, ...
    and then of the last step, for every simulator: one row per step with
    stride 1, and states[-1] is always the final state.
    """

    times: np.ndarray
    states: np.ndarray  # (rows, n_modes_or_points, 2)
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


def _check_modes(state0: ModalState, sols: ModalTable) -> None:
    """Refuse a state whose boundary is not the table's, or whose modes are
    not, in order, the modes of the table."""
    if state0.boundary != sols.cfg.boundary:
        raise ValueError("initial state boundary must be the solution table's boundary")
    if tuple(state0.modes) != tuple(sols.n.tolist()):
        raise ValueError("initial state modes must be the solution table's modes, in order")


def _check_stride(stride) -> None:
    """Refuse a stride that is not an integer >= 1; a bool is not one."""
    if isinstance(stride, bool) or not isinstance(stride, (int, np.integer)) or stride < 1:
        raise ValueError(f"stride must be an integer >= 1, got {stride!r}")


def _block_starts(nrows: int) -> range:
    """The first steps of the blocks of a trajectory of nrows rows: blocks
    hold FD_BLOCK rows and the last one the remainder, so it holds FD_BLOCK
    to 2 FD_BLOCK - 1 rows, and a trajectory of fewer than 2 FD_BLOCK rows
    is one block."""
    return range(0, max(nrows - FD_BLOCK, 0) + 1, FD_BLOCK)


def _kept_count(nrows: int, stride: int) -> int:
    """Rows kept of a trajectory of nrows rows: steps 0, stride, 2 stride,
    ... and then the last step, whether or not stride divides the step count."""
    last = nrows - 1
    return last // stride + 1 + (last % stride != 0)


def _keep(kept, rows, start: int, stride: int, last: int) -> None:
    """Copy into kept the rows of steps start, start + 1, ... that stride
    keeps (see _kept_count); the step of kept[i] is i stride, and the last
    step's row is kept[-1]."""
    i = -(-start // stride)  # first kept step at or after start
    picked = rows[i * stride - start::stride]
    kept[i:i + len(picked)] = picked
    if start + len(rows) - 1 == last and last % stride:
        kept[-1] = rows[-1]


def _stream(first, nrows: int, stride: int):
    """(kept, blocks) for stepping a trajectory of nrows rows shaped like first.

    blocks yields (start, rows): rows is a writable block for steps start,
    start + 1, ... (see _block_starts), which the caller fills and
    evaluates before it takes the next block; row 0 of the first block
    already holds first.  When the caller takes the next block, or ends
    the loop, the rows kept are copied into kept (see _keep).

    Every block reuses the front of one buffer as long as the last block,
    so the rows take at most (kept + 2 FD_BLOCK - 1) rows of memory.  A
    block's first step reads the previous block's last row, which is then
    the buffer's row len(previous block) - 1, not the row 0 it writes.
    """
    starts = _block_starts(nrows)
    shape = np.shape(first)
    kept = np.empty((_kept_count(nrows, stride), *shape))
    buffer = np.empty((nrows - starts[-1], *shape))

    def blocks():
        for start, end in zip(starts, [*starts[1:], nrows]):
            rows = buffer[:end - start]
            if start == 0:
                rows[0] = first
            yield start, rows
            _keep(kept, rows, start, stride, nrows - 1)

    return kept, blocks()


def _slab_rows(d: int, nrows: int) -> int:
    """B, the rows a modal simulator steps by one product with a d x d
    propagator P: MAX_SLAB when d <= nrows, MAX_SLAB / 2 when
    d <= 2 nrows, else 1.

    One row at a time, the stepping reads P nrows times.  In slabs, P^B
    takes log2(B) products of d x d matrices, whose cost grows as d^3, and
    each of the nrows / B slab products costs about as much as 2.5 one-row
    products at large d, since BLAS packs P^B for it.  So slabs pay once
    nrows is about d / 2 or more, and then only with a large B.  On a
    2-core x86-64 host the coupled stepping took, one row at a time and
    with B = 2, 4, 8, 16: 8.7, 12.2, 7.6, 5.8 and 5.9 s at d = 4096 and
    2501 rows; 0.32 s one row at a time and 0.56 to 0.67 s with B = 2 to 8
    at d = 2048 and 401 rows.  B does not grow with d.
    """
    for B in (MAX_SLAB, MAX_SLAB // 2):
        if B * d <= MAX_SLAB * nrows:
            return B
    return 1


def _stepped(blocks, prop, slab: int, step, power=None):
    """Fill each block of _stream with x_(i+1) = prop x_i, then yield it.

    step(P, src, out) writes into the rows out the rows src, each advanced
    by P.  Rows 1 to slab - 1 are stepped one at a time by prop; then prop
    gives way to power, its slab-th power, or when power is None to
    prop^slab formed by log2(slab) squarings (so the caller frees prop by
    dropping its own reference), and every later slab of at most slab rows
    is one step from the slab rows before it.  A block's first slab reads
    the previous block's last slab rows, which the buffer of _stream still
    holds: they lie behind the slab it writes, since a block before the
    last holds FD_BLOCK >= 2 slab rows.
    """
    tail = None  # the last slab rows of the previous block
    for start, rows in blocks:
        first = 0
        if start == 0:
            first = min(slab, len(rows))
            for i in range(1, first):
                step(prop, rows[i - 1:i], rows[i:i + 1])
            if power is None:
                for _ in range(slab.bit_length() - 1):
                    prop = prop @ prop
            else:
                prop = power
        for i in range(first, len(rows), slab):
            out = rows[i:i + slab]
            step(prop, rows[i - slab:i - slab + len(out)] if i else tail, out)
        tail = rows[-slab:]
        yield start, rows


def _eigen_stepped(blocks, nrows: int, modes: CoupledModes, dt: float):
    """Fill each block of _stream with the states Re((c e^(mu t)) V) of the
    coupled loop's eigenstructure (see spectrum.coupled_modes), then yield it.

    E[i, j] = c_j e^(mu_j t_i) is formed from an exact exp at each block
    start, times e^(mu_j i dt) for the first MAX_SLAB rows and then times
    e^(mu_j MAX_SLAB dt) from the row MAX_SLAB before; the states of the
    block are one real matrix product, E.view(float) @ V.  Row 0 of the
    first block keeps the initial state that _stream put there.
    """
    mu = modes.roots
    first = np.exp(np.multiply.outer(dt * np.arange(MAX_SLAB), mu))
    slab = np.exp(mu * (MAX_SLAB * dt))
    E = np.empty((nrows - _block_starts(nrows)[-1], len(mu)), dtype=complex)
    for start, rows in blocks:
        n = len(rows)
        e = E[:n]
        np.multiply(modes.coef * np.exp(mu * (start * dt)), first[:n], out=e[:MAX_SLAB])
        for i in range(MAX_SLAB, n, MAX_SLAB):
            out = e[i:i + MAX_SLAB]
            np.multiply(e[i - MAX_SLAB:i - MAX_SLAB + len(out)], slab, out=out)
        lo = 1 if start == 0 else 0
        np.matmul(e[lo:].view(float), modes.vectors, out=rows[lo:].reshape(n - lo, -1))
        yield start, rows


def _step_coupled(P, src, out):
    """The (rows, k, 2) states src advanced by the (2k, 2k) propagator P, into out."""
    np.matmul(src.reshape(len(src), -1), P.T, out=out.reshape(len(out), -1))


def _step_modes(P, src, out):
    """The (rows, k, 2) states src, mode n advanced by the 2x2 block P[n], into out.

    Adding 0.0 turns a -0.0 sum of two -0.0 products into 0.0 and changes
    no other value, so an entry is what a sum started from 0.0 gives, as
    in einsum and in the matrix products of the coupled loop.
    """
    a1, a2 = src[..., 0], src[..., 1]
    np.add(a1 * P[:, 0, 0], a2 * P[:, 0, 1], out=out[..., 0])
    np.add(a1 * P[:, 1, 0], a2 * P[:, 1, 1], out=out[..., 1])
    out += 0.0


def _state_cost(a1, a2, q11, q12, q22):
    """sum_n q11_n a1_n^2 + 2 q12_n a1_n a2_n + q22_n a2_n^2 of each row of
    the (rows, n) coefficients a1, a2, as three matrix-vector products."""
    return (a1 * a1) @ q11 + 2.0 * ((a1 * a2) @ q12) + (a2 * a2) @ q22


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


def _norm1(X, scratch) -> float:
    """||X||_1, summed as np.linalg.norm(X, 1) sums it, with |X| formed in scratch."""
    return np.abs(X, out=scratch).sum(axis=0).max()


def _add_identity(X, c):
    """X + c I in place, to the bit: c 0.0 adds 0.0 off the diagonal, which
    turns -0.0 into 0.0 and leaves every other entry as it is."""
    X += 0.0
    X.reshape(-1)[::len(X) + 1] += c
    return X


def _extra_squarings(absA, m: int) -> int:
    """ell(A, m) of Al-Mohy & Higham (2009) from absA = |A|: squarings to
    add so that the leading backward-error term
    |c_(2m+1)| ||A^(2m+1)|| / ||A|| stays near unit roundoff, bounded
    through |A|."""
    # the 1-norm of the nonnegative |A|^(2m+1) is the largest entry of
    # 1' |A|^(2m+1), formed exactly by 2m + 1 vector-matrix products
    v = np.ones(len(absA))
    for _ in range(2 * m + 1):
        v = v @ absA
    if not v.max() > 0:
        return 0
    c = factorial(m) ** 2 / (factorial(2 * m) * factorial(2 * m + 1))
    alpha = c * v.max() / absA.sum(axis=0).max()
    return max(int(np.ceil(np.log2(alpha / 2.0**-53) / (2 * m))), 0)


def expm_pade(A) -> np.ndarray:
    """e^A of a square matrix by scaling and squaring with a [m/m] Pade approximant.

    The degree m in {3, 5, 7, 9} and the scaling 2^-s follow Al-Mohy &
    Higham (SIAM J. Matrix Anal. Appl. 31, 2009, Algorithm 5.1), up to
    degree 9: the first degree that fits A is taken, else degree 9 on
    A / 2^s.  Both are judged by eta = max(||A^4||^(1/4), ||A^6||^(1/6), ...)
    from exact 1-norms of the even powers the approximant needs anyway; the
    ||A||_1 rule would over-scale the weakly damped closed loops, whose norm
    is far above their spectral radius, and lose accuracy in the squarings.
    The approximant is evaluated as in Higham (SIAM J. Matrix Anal. Appl.
    26, 2005).

    Besides A, at most six matrices of its size are alive at once: A^2, A^4,
    A^6, A^8, one scratch for the |X| of the norms and one accumulator.  The
    scaling multiplies the powers in place, and U after its product with A,
    by exact powers of two.  U and V are summed in place in the order of the
    plain expressions, with the identity added on the diagonal, so the
    result is the same to the bit as theirs.
    """
    A = np.asarray(A, dtype=float)
    scratch = np.empty_like(A)
    A2 = A @ A
    A4 = A2 @ A2
    A6 = A2 @ A4
    d6 = _norm1(A6, scratch) ** (1 / 6)
    eta = max(_norm1(A4, scratch) ** 0.25, d6)
    powers = [None, A2, A4, A6]  # powers[k] = A^(2k)
    s = 0
    for m, theta in _PADE_THETA:
        if m == 7:  # degrees 7 and 9 use A^8, and judge by max(d6, d8)
            powers.append(A4 @ A4)
            eta = max(d6, _norm1(powers[4], scratch) ** (1 / 8))
        if eta <= theta and _extra_squarings(np.abs(A, out=scratch), m) == 0:
            break
    else:  # no degree fits A: degree 9 on A / 2^s
        s = int(np.ceil(np.log2(eta / theta))) if eta > theta else 0
        s += _extra_squarings(np.multiply(np.abs(A, out=scratch), 0.5**s, out=scratch), m)
        for k in range(1, 5):
            powers[k] *= 0.5 ** (2 * k * s)
    b = _pade_coefficients(m)
    half = range(m // 2, 0, -1)
    # U = A (b_m A^(m-1) + ... + b_3 A^2 + b_1 I) / 2^s
    W = np.multiply(powers[half[0]], b[m])
    for k in half[1:]:
        W += np.multiply(powers[k], b[2 * k + 1], out=scratch)
    U = np.matmul(A, _add_identity(W, b[1]), out=scratch)
    U *= 0.5**s
    # V = b_(m-1) A^(m-1) + ... + b_2 A^2 + b_0 I, scaling the powers
    V = powers[half[0]]
    V *= b[m - 1]
    for k in half[1:]:
        powers[k] *= b[2 * k]
        V += powers[k]
    _add_identity(V, b[0])
    np.subtract(V, U, out=W)
    V += U
    del A2, A4, A6, powers, U, scratch
    X = np.linalg.solve(W, V)
    for _ in range(s):
        X = X @ X
    return X


def simulate_decoupled(
    sols: ModalTable,
    state0: ModalState,
    T: float,
    dt: float,
    stride: int = 1,
) -> SimResult:
    """Every mode under its own closed loop, each with its own control u_n.

    state0 must hold the boundary and the modes of sols.  A zero-weight row
    has zero gain and runs open loop, so a zero-weight table gives the
    open-loop target trajectory, with zero controls and zero cost.

    One step is the exact propagator expm((F + G K) dt) of every mode, in
    closed form (expm_2x2).  The modes are stepped a slab of B rows at a
    time (B = _slab_rows(2, rows), MAX_SLAB for every run): a slab is four
    elementwise products of the stacked 2x2 blocks of expm((F + G K) B dt),
    also in closed form, with the B rows before it (see _stepped).
    log2(B) squarings of the one-step propagators round more: on a
    208-mode table at dt = 0.002 their median error against a 40-digit
    exponential is 1.1e-15 of the largest entry, the closed form's
    3.4e-16.  The running cost integrates sum_n (a_n' Q^n a_n + R u_n^2)
    by composite Simpson over the sample times, its state part through
    _state_cost; this is the per-mode LQR frame in which the
    infinite-horizon cost equals a_0' P^n a_0 exactly.  states keeps the
    rows that stride selects (see _stream); u_record holds sum_n u_n of
    every step, one control per step as in the other simulators, and like
    times and cost does not depend on stride.
    """
    _check_modes(state0, sols)
    _check_stride(stride)
    nrows = _steps_for(T, dt) + 1
    gains = np.stack([sols.k1, sols.k2], axis=1)  # (k, 2)
    loops = closed_loop_matrices(sols)
    slab = _slab_rows(2, nrows)
    props = expm_2x2(loops * dt)
    props_slab = expm_2x2(loops * (slab * dt))
    u = np.empty(nrows)
    integrand = np.empty(nrows)
    states, blocks = _stream(state0.a, nrows, stride)
    for start, rows in _stepped(blocks, props, slab, _step_modes, props_slab):
        # the per-mode controls of the block, their sum and the cost integrand
        end = start + len(rows)
        ub = np.einsum("nj,tnj->tn", gains, rows)
        u[start:end] = ub.sum(axis=1)
        integrand[start:end] = (_state_cost(rows[..., 0], rows[..., 1], sols.q11, sols.q12, sols.q22)
                                + sols.cfg.R * np.sum(ub**2, axis=1))
        del ub  # freed before the next block is stepped
    cost = running_quadrature(integrand, dt)
    return SimResult(times=dt * np.arange(nrows), states=states, u_record=u, cost=cost)


def simulate_coupled_modal(
    sols: ModalTable,
    state0: ModalState,
    T: float,
    dt: float,
    stride: int = 1,
) -> SimResult:
    """System truncated to the modes of sols under the single shared control.

    state0 must hold the boundary and the modes of sols.  u(t) is the
    pairing-weighted, expansion-signed combination of the modal gains of
    sols (the quadrature of the gain kernel against z); a zero-weight row
    adds no feedback, and every mode is forced through its true input
    vector.  The accumulated cost is the field-frame criterion: the double
    space quadrature plus R u^2.

    The run steps in the eigenbasis of the closed loop A + B Krow when
    spectrum.coupled_modes verifies its roots and the expansion of
    state0 in O(k^2): the states of a block are Re((c e^(mu t)) V), one
    real matrix product (see _eigen_stepped), and the stepping needs no
    matrix function.  Its error does not build up over the steps as a
    stepped propagator's does: over 1084 steps of a 24-mode table it
    stays within 6e-14 of the largest state of scipy.linalg.expm(t A_cl) a0,
    the dense path within 2.4e-12.  Where the roots are not
    verified (Newton from the per-mode loops finds a root twice, a mode
    has no gain, or the expansion misses a0), the dense path runs: the
    propagator P = expm_pade((A + B Krow) dt) steps the first B - 1
    rows one at a time; then P is freed for P^B, and every later slab of
    B rows is one matrix product with the B rows before it (see
    _stepped).  B = _slab_rows(2k, rows) is MAX_SLAB while 2k <= rows,
    MAX_SLAB / 2 while k <= rows, and 1 for a table of more modes than
    rows, where the 2k x 2k squarings cost more than they save.
    Row 0 is state0.a to the bit on both paths.
    states keeps the rows that stride selects (see _stream); times,
    u_record and cost keep every step.  The controls of a block are one
    matrix-vector product, and the state cost is _state_cost of the
    pairing-weighted columns.
    """
    _check_modes(state0, sols)
    _check_stride(stride)
    nrows = _steps_for(T, dt) + 1
    pw2 = projection_weight(sols.cfg.boundary, sols.n) ** 2
    q11, q12, q22 = (pw2 * q for q in (sols.q11, sols.q12, sols.q22))
    u = np.empty(nrows)
    integrand = np.empty(nrows)
    states, blocks = _stream(state0.a, nrows, stride)
    modes = coupled_modes(sols, state0.a)
    if modes is not None:
        krow = coupled_gains(sols)
        steps = _eigen_stepped(blocks, nrows, modes, dt)
    else:
        A, B, Krow = coupled_loop_parts(sols)
        A += B @ Krow  # the closed loop (A + B Krow) dt, in the buffer of A
        A *= dt
        prop = expm_pade(A)
        del A
        krow = Krow[0]
        steps = _stepped(blocks, prop, _slab_rows(len(prop), nrows), _step_coupled)
        del prop  # _stepped frees it for its power once the first rows are stepped
    for start, rows in steps:
        # the controls and the cost integrand of the block
        end = start + len(rows)
        ub = u[start:end] = rows.reshape(len(rows), -1) @ krow
        integrand[start:end] = _state_cost(rows[..., 0], rows[..., 1], q11, q12, q22) + sols.cfg.R * ub**2
    cost = running_quadrature(integrand, dt)
    return SimResult(times=dt * np.arange(nrows), states=states, u_record=u, cost=cost)


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
    stride: int = 1,
) -> SimResult:
    """Leapfrog finite-difference integration with boundary-injected feedback.

    Second-order central differences in space with dt = cfl * h; the damping
    term is centered in time.  The Dirichlet boundary value is set to
    beta * u directly; Neumann actuation enters through the second-order
    ghost point z1(1 + h) = z1(1 - h) + 2 h beta u.  The control is the
    trapezoid quadrature of K(x) z(x, t); the recorded velocity field is the
    centered difference (w_(k+1) - w_(k-1)) / (2 dt).

    The positions w_k satisfy the centered damped recurrence
    (w_(k+1) - 2 w_k + w_(k-1)) / dt^2 = Lap w_k - alpha (w_(k+1) - w_(k-1)) / (2 dt).
    They are stepped in the summed form of Stormer's method (Henrici 1962;
    Hairer, Norsett & Wanner, Solving ODEs I): the increment
    d_k = w_(k+1) - w_k is carried, not formed from positions, as
    d_k = ((1 - alpha dt/2) d_(k-1) + dt^2 Lap w_k) / (1 + alpha dt/2) and
    w_(k+1) = w_k + d_k, from d_0 = dt z2 + dt^2/2 (Lap w_0 - alpha z2).
    The velocity of step k >= 1 is (d_k + d_(k-1)) / (2 dt).  Lap w_k
    holds dt^2 beta u_k / h^2 (Dirichlet) or 2 dt^2 beta u_k / h (Neumann)
    at the actuated entry, so the control u_k, the quadrature of w_k and
    of that velocity, closes as one scalar solve per step.  Under
    Dirichlet actuation z1(0) records beta u and z1(1) is 0; from step 1
    on, z2(0) records the backward difference of beta u and z2(1) is 0.

    The accumulated cost is the double trapezoid quadrature of z' Q z
    against the Q kernel of the family truncated to N modes (when a weight
    family is given, N must be too) plus R u^2.  That kernel is a sum over
    at most N + 1 modes, so the quadrature is evaluated through the
    trapezoid projections c_n = sum_i w_i phi_n(x_i) z(x_i) as
    sum_n c_n' Q^n c_n, which is the same sum regrouped.  The projection
    is linear and is 0 wherever a Dirichlet velocity record sits, so the
    velocity projections of step k >= 1 are (c1_(k+1) - c1_(k-1)) / (2 dt),
    from one matrix product of the positions per block; step 0 projects
    its velocity.

    The steps write the positions into blocks of rows (see _block_starts),
    with the position of the step before the block and the one after it.
    Each block is checked and projected for the cost once filled, and only
    the rows kept are copied out: steps 0, stride, 2 stride, ... and then
    the last step (see _keep), whose velocities the steps write as they
    go.  states is the (kept, M + 1, 2) transposed view of those rows;
    times, u_record and cost keep one entry per step.  The trajectory
    takes at most 8 (M + 1) (2 kept + 2 FD_BLOCK + 1) bytes.

    A step with a non-finite z1 stops the run with SimulationError,
    found by one check per block; the steps after it in its block run on
    without floating-point warnings.  The stepping does not depend on the
    blocks, so states and u_record are the same to the bit for every
    stride.  BLAS may round a product over a block in other last bits than
    one over the whole trajectory, so the cost of a trajectory of
    2 FD_BLOCK rows or more may differ in its last bits from a one-product
    quadrature; it does not depend on stride.
    """
    if M < MIN_FD_INTERVALS:
        raise ValueError(f"need at least {MIN_FD_INTERVALS} grid intervals, got M={M}")
    if not 0 < cfl <= 1:
        raise ValueError(f"CFL number must lie in (0, 1], got {cfl}")
    if family is not None and N is None:
        raise ValueError("a weight family needs the mode count N of its Q kernel")
    _check_stride(stride)
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
    alpha = cfg.alpha

    z1 = np.asarray(w0(x), dtype=float) * np.ones_like(x)
    z2 = np.asarray(w1(x), dtype=float) * np.ones_like(x)
    u = float(k1w @ z1 + k2w @ z2)
    if dirichlet:
        z1[0] = beta * u
        z1[-1] = 0.0

    nrows = nsteps + 1
    last = nsteps
    u_rec = np.empty(nrows)
    u_rec[0] = u
    state_cost = np.zeros(nrows)
    if family is not None:
        modes = mode_range(cfg.boundary, N)
        q11, q12, q22 = weight_arrays(family, modes)
        proj = (basis_matrix(cfg.boundary, modes, x) * wq).T  # (M + 1, modes)

    # D holds h^2 Lap w less the control: the second differences, without
    # the Dirichlet value at x=0 or the u part of the Neumann ghost at
    # x=1, which enter as dt^2 Lap_u u at the actuated entry ia
    ia = 1 if dirichlet else M
    r = dt * dt / (h * h)
    bu = dt * dt * (beta / (h * h) if dirichlet else 2.0 * beta / h)
    damp = 1.0 + 0.5 * alpha * dt
    a = (1.0 - 0.5 * alpha * dt) / damp
    b = r / damp
    e = bu / damp
    two_dt = 2.0 * dt
    k2w_a = float(k2w[ia])
    denom = 1.0 - k2w_a * e / two_dt
    D = np.zeros(M + 1)
    g = np.empty(M)
    g_hi, g_lo, D_in = g[1:], g[:-1], D[1:-1]

    # the ufuncs of the steps, bound once and given their output
    # positionally: per call, on M + 1 values, the lookups cost as much as
    # the arithmetic
    subtract, multiply, add, dot = np.subtract, np.multiply, np.add, np.dot

    def second_differences(w):
        subtract(w[1:], w[:-1], g)
        subtract(g_hi, g_lo, D_in)
        if dirichlet:
            D[1] = g[1] - w[1]
        else:
            D[0] = 2.0 * g[0]
            D[-1] = 2.0 * (w[-2] - w[-1])
        return D

    # kept[i] holds z1 and z2 of a kept step, each contiguous; pos[j] holds
    # w at step start - 1 + j of the current block, up to step end
    kept = np.empty((_kept_count(nrows, stride), 2, M + 1))
    kept[0, 1] = z2
    starts = _block_starts(nrows)
    pos = np.empty((nrows - starts[-1] + 2, M + 1))
    pos[1] = z1
    dn = np.empty(M + 1)
    keep = min(stride, last)  # the next kept step
    # Every update keeps the operations and their order of the plain array
    # expressions of the summed form, so the trajectory is the same to the
    # bit: d0 = a d + b D, then u from k1w w + (k2w d0 + p) / (2 dt), where
    # p = k2w d0 + k2w[ia] e u of the step before is k2w d, then e u added
    # to d0 at ia alone, and z2 = (dn + d) / (2 dt) for the kept steps.
    with np.errstate(over="ignore", invalid="ignore"):
        d = dt * z2 + 0.5 * (r * second_differences(z1) - (alpha * dt * dt) * z2)
        d[ia] += 0.5 * bu * u
        if dirichlet:
            d[-1] = 0.0
        p = float(dot(k2w, d))
        add(z1, d, pos[2])
        for start, end in zip(starts, [*starts[1:], nrows]):
            n = end - start
            for k in range(max(start, 1), end):
                w = pos[k - start + 1]
                multiply(second_differences(w), b, D)
                if a != 1.0:
                    add(multiply(d, a, dn), D, dn)
                else:
                    add(d, D, dn)
                q = float(dot(k2w, dn))
                u = (float(dot(k1w, w)) + (q + p) / two_dt) / denom
                eu = e * u
                dn[ia] += eu
                p = q + k2w_a * eu
                if dirichlet:
                    w[0] = beta * u  # the boundary record, read by no stencil
                u_rec[k] = u
                add(w, dn, pos[k - start + 2])
                if k == keep:
                    v = add(dn, d, kept[-(-k // stride), 1])
                    np.divide(v, two_dt, out=v)
                    if dirichlet:
                        v[0] = (w[0] - pos[k - start, 0]) / dt
                    keep = min(k + stride, last)
                d, dn = dn, d
            # steps >= 1 of the block; a non-finite control reaches z1 at
            # its own step under Dirichlet actuation (z1[0] = beta u) and
            # at the next step under Neumann actuation (through the ghost
            # point), so only the last control can pass this check
            lo = 1 if start == 0 else 0
            finite = np.isfinite(pos[1 + lo:n + 1]).all(axis=1)
            if not finite.all():
                k = start + lo + int(np.argmin(finite))
                raise SimulationError(
                    f"finite-difference solution became non-finite at step {k} "
                    f"(t={k * dt:.6g}); M={M}, cfl={cfl}"
                )
            if family is not None:  # the state cost of the block
                c = pos[lo:n + 2] @ proj  # steps start - 1 + lo to end
                c2 = np.empty((n, c.shape[1]))
                np.divide(np.subtract(c[2:], c[:-2], out=c2[lo:]), two_dt, out=c2[lo:])
                if lo:
                    c2[0] = z2 @ proj
                state_cost[start:end] = _state_cost(c[1 - lo:-1], c2, q11, q12, q22)
                del c, c2  # freed before the next block is stepped
            _keep(kept[:, 0], pos[1:n + 1], start, stride, last)
            pos[:2] = pos[n:n + 2]
    if not isfinite(u):
        raise SimulationError(
            f"finite-difference control became non-finite at step {nsteps} "
            f"(t={nsteps * dt:.6g}); M={M}, cfl={cfl}"
        )

    integrand = state_cost + cfg.R * u_rec**2
    cost = running_quadrature(integrand, dt)

    states = kept.transpose(0, 2, 1)  # (rows kept, M + 1, 2)
    return SimResult(times=dt * np.arange(nrows), states=states, u_record=u_rec, cost=cost)


def predicted_cost(state0: ModalState, sols: ModalTable) -> CostPrediction:
    """Optimal cost predicted by the Riccati solution, in both frames.

    per_mode sums a_n' P^n a_n directly (the frame in which the modal AREs
    are exact); field applies the basis-pairing weights (1/4 per sine or
    cosine mode, 1 for the Neumann mean mode) and equals the double
    integral of z0' P(x1, x2) z0.  state0 must hold the boundary and the
    modes of sols.
    """
    _check_modes(state0, sols)
    P = sols.matrices
    a = state0.a
    quad_form = (a[:, None, :] @ P @ a[:, :, None])[:, 0, 0]
    pw2 = projection_weight(state0.boundary, state0.modes) ** 2
    # running sums in mode order from 0.0, so the result does not depend
    # on how numpy groups a sum
    per_mode = np.cumsum(np.append(0.0, quad_form))[-1]
    fieldv = np.cumsum(np.append(0.0, pw2 * quad_form))[-1]
    return CostPrediction(per_mode=float(per_mode), field=float(fieldv))


def decay_horizon(sols: ModalTable) -> float:
    """Horizon after which the closed-loop cost tail is below 1e-8 of the cost."""
    ev = closed_loop_spectrum(sols)
    absc = ev.real.max()
    if absc >= 0:
        raise ValueError("closed loop is not exponentially stable: no finite horizon")
    return float(np.log(1e8) / (2.0 * abs(absc)))
