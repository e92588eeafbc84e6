"""Spatial kernels: the two-point cost kernel, the gain profile, and the
residual fields of the kernel Riccati PDE.

All series use the plain eigenfunction bases sin(n pi x) (Dirichlet) and
cos(n pi x) (Neumann, n >= 0).  Derivative and boundary traces of the
truncated series are evaluated analytically, term by term, never by
numerical differentiation of sampled kernels.
"""

from typing import NamedTuple

import numpy as np

from .model import (
    Boundary,
    PowerLawWeights,
    WaveConfig,
    WeightFamily,
    gain_expansion_sign,
    mode_range,
    projection_weight,
    weight_arrays,
)
from .quad import simpson_weights
from .riccati import ModalTable, modal_table, solve_family

QUAD_WARNING = "series not absolutely summable"

#: rows of the Gram matrix formed at a time in pde_residual_diagonal
GRAM_ROWS = 256

#: points of the uniform grid on which convergence_report takes the sup
#: differences of successive partial sums
CAUCHY_GRID_POINTS = 101


class KernelField(NamedTuple):
    """2x2 matrix-valued two-point kernel sampled on a grid pair."""

    grid_x1: np.ndarray
    grid_x2: np.ndarray
    values: np.ndarray  # (len(grid_x1), len(grid_x2), 2, 2)


class GainProfile(NamedTuple):
    """Row-vector gain kernel K(x) sampled on a grid."""

    grid_x: np.ndarray
    values: np.ndarray  # (len(grid_x), 2)


def basis_matrix(boundary: Boundary, modes, grid) -> np.ndarray:
    """phi_n(x) sampled as a (len(modes), len(grid)) array."""
    modes = np.asarray(list(modes), dtype=float)
    grid = np.asarray(grid, dtype=float)
    arg = np.outer(modes, np.pi * grid)
    return np.sin(arg) if Boundary(boundary) == Boundary.DIRICHLET else np.cos(arg)


def _series_values(phi1, phi2, c11, c12, c22) -> np.ndarray:
    """sum_k C^k phi_k(x1) phi_k(x2) for symmetric 2x2 coefficients C^k.

    Each entry is one matrix product (phi1' * c) @ phi2 over the modes,
    written into its own contiguous (len(x1), len(x2)) plane; the (2, 1)
    plane is a copy of the (1, 2) plane.  The result is a (len(x1),
    len(x2), 2, 2) view of those planes.
    """
    planes = np.empty((2, 2, phi1.shape[1], phi2.shape[1]))
    np.matmul(phi1.T * c11, phi2, out=planes[0, 0])
    np.matmul(phi1.T * c12, phi2, out=planes[0, 1])
    planes[1, 0] = planes[0, 1]
    np.matmul(phi1.T * c22, phi2, out=planes[1, 1])
    return planes.transpose(2, 3, 0, 1)


def assemble_P(sols: ModalTable, grid, grid_x2=None) -> KernelField:
    """Truncated series P(x1, x2) = sum_n P^n phi_n(x1) phi_n(x2) in the table's basis."""
    boundary = sols.cfg.boundary
    grid_x1 = np.asarray(grid, dtype=float)
    grid_x2 = grid_x1 if grid_x2 is None else np.asarray(grid_x2, dtype=float)
    phi1 = basis_matrix(boundary, sols.n, grid_x1)
    phi2 = basis_matrix(boundary, sols.n, grid_x2)
    values = _series_values(phi1, phi2, sols.p11, sols.p12, sols.p22)
    return KernelField(grid_x1, grid_x2, values)


def assemble_K(sols: ModalTable, grid) -> GainProfile:
    """Gain kernel sum_n sign_n [K1^n, K2^n] phi_n(x) of the table's gain columns.

    With K^n = -R^-1 G[1] [P21^n, P22^n] it is the boundary trace of the
    cost kernel:

    Dirichlet: K(x) = -R^-1 beta sum_n n pi [P21^n, P22^n] sin(n pi x).
    Neumann:   K(x) = -R^-1 beta sum_n (-1)^n [P21^n, P22^n] cos(n pi x),
    the (-1)^n being cos(n pi) from evaluating the kernel at x1 = 1.
    """
    grid = np.asarray(grid, dtype=float)
    sign = gain_expansion_sign(sols.cfg.boundary, sols.n)
    coeff = sign[:, None] * np.stack([sols.k1, sols.k2], axis=1)  # (k, 2)
    values = basis_matrix(sols.cfg.boundary, sols.n, grid).T @ coeff
    return GainProfile(grid, values)


def summability_warnings(family: WeightFamily) -> tuple[str, ...]:
    """(QUAD_WARNING,) for a power law with r <= 1, whose Q series does not
    converge absolutely; () otherwise."""
    if isinstance(family, PowerLawWeights) and family.r <= 1.0:
        return (QUAD_WARNING,)
    return ()


def assemble_Q(family: WeightFamily, grid, boundary: Boundary, N: int) -> KernelField:
    """Truncated series of the state-cost kernel over the modes up to N."""
    boundary = Boundary(boundary)
    grid = np.asarray(grid, dtype=float)
    modes = list(mode_range(boundary, N))
    phi = basis_matrix(boundary, modes, grid)
    values = _series_values(phi, phi, *weight_arrays(family, modes))
    return KernelField(grid, grid, values)


def _residual_factors(sols: ModalTable):
    """The diagonals and rank-one factors of the residual coefficient matrices.

    Returns (modes, g2, diagonals, factors): diagonals is (lhs11, lhs12,
    lhs22), the modal left-hand sides, and factors is (t12, t22), the factors
    of the gain-kernel coefficients (t21 = t12 by symmetry).  The coefficient
    matrix of component (a, b) is diag(lhs_ab) - g2 outer(t_a2, t_b2), with
    lhs21 = lhs12.
    """
    cfg, modes, p11, p12, p22 = sols.cfg, sols.n, sols.p11, sols.p12, sols.p22
    q11, q12, q22 = sols.q11, sols.q12, sols.q22
    # np.sort, not np.unique: numpy's unique imports numpy.ma for a check
    # that a plain array never needs
    if np.any(np.diff(np.sort(modes)) == 0):
        raise ValueError("solution table holds some mode more than once")
    w2 = (modes * np.pi) ** 2

    if cfg.boundary == Boundary.DIRICHLET:
        factor = modes * np.pi
    else:
        factor = gain_expansion_sign(cfg.boundary, modes)

    lhs11 = -2.0 * w2 * p12 + q11
    lhs12 = p11 - cfg.alpha * p12 - w2 * p22 + q12
    lhs22 = 2.0 * p12 - 2.0 * cfg.alpha * p22 + q22
    return modes, cfg.gamma_sq, (lhs11, lhs12, lhs22), (factor * p12, factor * p22)


def residual_coefficient_matrices(sols: ModalTable):
    """Double-basis coefficients of the four PDE residual fields, with the
    problem and the weights Q taken from the table.

    Entry (i, j) multiplies phi_{m_i}(x1) phi_{n_j}(x2).  Diagonals carry the
    modal ARE residuals (zero at a solution); off-diagonals are minus the
    cross-frequency products of the completed-square right-hand sides, e.g.
    -gamma^2 m n pi^2 P12^m P21^n for the first equation under Dirichlet
    actuation.
    """
    modes, g2, (lhs11, lhs12, lhs22), (t12, t22) = _residual_factors(sols)
    m11 = np.diag(lhs11) - g2 * np.outer(t12, t12)
    m12 = np.diag(lhs12) - g2 * np.outer(t12, t22)
    m21 = np.diag(lhs12) - g2 * np.outer(t22, t12)
    m22 = np.diag(lhs22) - g2 * np.outer(t22, t22)
    return modes, (m11, m12, m21, m22)


def pde_residual(sols: ModalTable, grid) -> KernelField:
    """Defect fields of the kernel Riccati PDE for the truncated diagonal solution.

    values[..., a, b] is the defect of PDE component (a + 1, b + 1), each
    the product (phi' M) phi of one residual_coefficient_matrices entry M,
    written into its own contiguous plane.  With a single active mode every
    field vanishes; with several, the surviving residual is exactly the
    cross-frequency part of the quadratic right-hand side.
    """
    modes, mats = residual_coefficient_matrices(sols)
    grid = np.asarray(grid, dtype=float)
    phi = basis_matrix(sols.cfg.boundary, modes, grid)
    planes = np.empty((2, 2, len(grid), len(grid)))
    for plane, m in zip(planes.reshape(4, len(grid), len(grid)), mats):
        np.matmul(phi.T @ m, phi, out=plane)
    return KernelField(grid, grid, planes.transpose(2, 3, 0, 1))


def pde_residual_diagonal(sols: ModalTable, npts: int) -> np.ndarray:
    """diag(proj f proj') of the four residual fields f, without forming the
    fields or sampling the basis.

    proj = phi * weights / pairing weight is composite Simpson quadrature
    against the basis on the uniform grid of npts points on [0, 1], and each
    field is f = phi' M phi with M one of the residual_coefficient_matrices,
    so proj f proj' = Gamma M Gamma' with the discrete Gram matrix
    Gamma = proj phi'.  Gamma is not assumed to be the identity, so the
    diagonal stays a quadrature check of the modal residuals.

    By the product-to-sum identity Gamma is Toeplitz -+ Hankel,
    Gamma_mn = (S(|m - n|) -+ S(m + n)) / (2 w_m), minus for sines and plus
    for cosines, with w_m the pairing weight and S(j) the quadrature of
    cos(j pi x).  On the grid S is periodic in j with period 2 (npts - 1)
    and even, and S(0 ... npts - 1) is the real part of one real FFT of the
    weights padded to that period.  Each M is diag(l) - g2 a b', so
    diag(Gamma M Gamma') = (Gamma o Gamma) l - g2 (Gamma a) o (Gamma b)
    needs no k x k matrix.  Gamma is formed GRAM_ROWS rows at a time, so
    memory is O(k GRAM_ROWS + npts).  Returns a (4, k) array, rows r11,
    r12, r21, r22.
    """
    modes, g2, diagonals, factors = _residual_factors(sols)
    span = npts - 1
    s = np.fft.rfft(simpson_weights(npts, 1.0 / span), 2 * span).real
    s = np.concatenate([s, s[-2:0:-1]])  # S(j) for j = 0 ... 2 span - 1
    hankel = np.subtract if sols.cfg.boundary == Boundary.DIRICHLET else np.add
    pairing = 2.0 * projection_weight(sols.cfg.boundary, modes)
    lhs = np.stack(diagonals, axis=1)  # (k, 3): l of M11, of M12 and M21, of M22
    t = np.stack(factors, axis=1)  # (k, 2)
    out = np.empty((4, len(modes)))
    for lo in range(0, len(modes), GRAM_ROWS):
        m = modes[lo:lo + GRAM_ROWS, None]
        gram = s[np.abs(m - modes) % len(s)]
        hankel(gram, s[(m + modes) % len(s)], out=gram)
        gram /= pairing[lo:lo + GRAM_ROWS, None]
        ta = gram @ t
        gl = np.square(gram, out=gram) @ lhs
        rows = out[:, lo:lo + GRAM_ROWS]
        rows[0] = gl[:, 0] - g2 * ta[:, 0] * ta[:, 0]
        rows[1] = gl[:, 1] - g2 * ta[:, 0] * ta[:, 1]
        rows[2] = gl[:, 1] - g2 * ta[:, 1] * ta[:, 0]
        rows[3] = gl[:, 2] - g2 * ta[:, 1] * ta[:, 1]
    return out


def decay_fit(ns, values) -> float:
    """Least-squares slope of log(values) against log(n)."""
    ns = np.asarray(ns, dtype=float)
    values = np.asarray(values, dtype=float)
    if np.any(values <= 0):
        raise ValueError("decay_fit needs strictly positive values")
    if np.any(ns <= 0):
        raise ValueError("decay_fit needs strictly positive indices")
    slope, _ = np.polyfit(np.log(ns), np.log(values), 1)
    return float(slope)


class SeriesReport(NamedTuple):
    name: str
    threshold: float
    fitted_exponent: float
    verdict: str
    cauchy_diffs: tuple[float, ...]
    cauchy_decreasing: bool


class ConvergenceReport(NamedTuple):
    """Series verdicts, and the fit-window solutions the fitted exponents come
    from, whose cfg holds the boundary."""

    r: float
    series: tuple[SeriesReport, ...]
    fit: ModalTable

    def __getitem__(self, name: str) -> SeriesReport:
        for s in self.series:
            if s.name == name:
                return s
        raise KeyError(name)

    def as_dict(self) -> dict:
        return {
            "boundary": self.fit.cfg.boundary.value,
            "r": self.r,
            "series": [s._asdict() for s in self.series],
        }


def series_thresholds(boundary: Boundary) -> dict[str, float]:
    """Exponent r must exceed these for each series to be summable."""
    p11 = 4.0 if Boundary(boundary) == Boundary.DIRICHLET else 6.0
    return {"Q": 1.0, "K": 2.0, "P11": p11}


def convergence_report(
    cfg: WaveConfig,
    family: PowerLawWeights,
    N_list,
    fit_window: tuple[int, int] = (50, 500),
) -> ConvergenceReport:
    """Summability verdicts for the Q, K and P11 series of a power-law family.

    The verdict compares r against the series threshold; the fitted decay
    exponent of the coefficient sequence and the sup-grid differences of
    successive partial sums are reported as empirical evidence.  The fit
    window may reach beyond every N of N_list: the question concerns the
    tail of the family, not of its truncation.
    """
    if not isinstance(family, PowerLawWeights):
        raise TypeError("convergence analysis is defined for power-law families")
    thresholds = series_thresholds(cfg.boundary)
    lo, hi = fit_window
    ns = np.arange(max(lo, 1), hi + 1)
    fit = modal_table(cfg, ns, *weight_arrays(family, ns))
    fitted = {
        "Q": decay_fit(ns, fit.q11),
        "K": decay_fit(ns, np.maximum(np.abs(fit.k1), np.abs(fit.k2))),
        "P11": decay_fit(ns, fit.p11),
    }

    grid = np.linspace(0.0, 1.0, CAUCHY_GRID_POINTS)
    # one sampled field per partial sum; the (1, 1) planes are copied, so
    # the other three planes of each kernel are freed
    sampled: dict[str, list[np.ndarray]] = {"Q": [], "K": [], "P11": []}
    for N in sorted(int(N) for N in N_list):
        sols = solve_family(cfg, family, N)
        sampled["Q"].append(assemble_Q(family, grid, cfg.boundary, N).values[:, :, 0, 0].copy())
        sampled["K"].append(np.abs(assemble_K(sols, grid).values).max(axis=1))
        sampled["P11"].append(assemble_P(sols, grid).values[:, :, 0, 0].copy())
    diffs = {name: [float(np.abs(b - a).max()) for a, b in zip(f, f[1:])]
             for name, f in sampled.items()}

    reports = []
    for name in ("Q", "K", "P11"):
        d = diffs[name]
        decreasing = all(b < a for a, b in zip(d, d[1:])) if len(d) > 1 else False
        reports.append(
            SeriesReport(
                name=name,
                threshold=thresholds[name],
                fitted_exponent=fitted[name],
                verdict="convergent" if family.r > thresholds[name] else "divergent",
                cauchy_diffs=tuple(d),
                cauchy_decreasing=decreasing,
            )
        )
    return ConvergenceReport(family.r, tuple(reports), fit)
