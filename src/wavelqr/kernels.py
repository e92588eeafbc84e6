"""Spatial kernels: the two-point cost kernel, the gain profile, and the
residual fields of the kernel Riccati PDE.

All series use the plain eigenfunction bases sin(n pi x) (Dirichlet) and
cos(n pi x) (Neumann, n >= 0).  Derivative and boundary traces of the
truncated series are evaluated analytically, term by term, never by
numerical differentiation of sampled kernels.
"""

from dataclasses import asdict, dataclass

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
from .riccati import ModalTable, modal_table, solve_family

QUAD_WARNING = "series not absolutely summable"

#: grid points per block of the Gram accumulation in pde_residual_diagonal
GRAM_BLOCK = 2048

#: points of the uniform grid on which convergence_report takes the sup
#: differences of successive partial sums
CAUCHY_GRID_POINTS = 101


@dataclass(frozen=True)
class KernelField:
    """2x2 matrix-valued two-point kernel sampled on a grid pair."""

    grid_x1: np.ndarray
    grid_x2: np.ndarray
    values: np.ndarray  # (len(grid_x1), len(grid_x2), 2, 2)


@dataclass(frozen=True)
class GainProfile:
    """Row-vector gain kernel K(x) sampled on a grid."""

    grid_x: np.ndarray
    values: np.ndarray  # (len(grid_x), 2)


@dataclass(frozen=True)
class ResidualFields:
    """Pointwise defect of the four kernel Riccati PDE components."""

    r11: np.ndarray
    r12: np.ndarray
    r21: np.ndarray
    r22: np.ndarray

    def max_abs(self) -> float:
        return float(
            max(np.abs(self.r11).max(), np.abs(self.r12).max(),
                np.abs(self.r21).max(), np.abs(self.r22).max())
        )


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


def assemble_P(sols: ModalTable, grid, boundary: Boundary, grid_x2=None) -> KernelField:
    """Truncated series P(x1, x2) = sum_n P^n phi_n(x1) phi_n(x2)."""
    boundary = Boundary(boundary)
    grid_x1 = np.asarray(grid, dtype=float)
    grid_x2 = grid_x1 if grid_x2 is None else np.asarray(grid_x2, dtype=float)
    phi1 = basis_matrix(boundary, sols.n, grid_x1)
    phi2 = basis_matrix(boundary, sols.n, grid_x2)
    values = _series_values(phi1, phi2, sols.p11, sols.p12, sols.p22)
    return KernelField(grid_x1, grid_x2, values)


def assemble_K(sols: ModalTable, cfg: WaveConfig, grid) -> GainProfile:
    """Gain kernel sum_n sign_n [K1^n, K2^n] phi_n(x) of the table's gain columns.

    With K^n = -R^-1 G[1] [P21^n, P22^n] it is the boundary trace of the
    cost kernel:

    Dirichlet: K(x) = -R^-1 beta sum_n n pi [P21^n, P22^n] sin(n pi x).
    Neumann:   K(x) = -R^-1 beta sum_n (-1)^n [P21^n, P22^n] cos(n pi x),
    the (-1)^n being cos(n pi) from evaluating the kernel at x1 = 1.
    """
    grid = np.asarray(grid, dtype=float)
    sign = gain_expansion_sign(cfg.boundary, sols.n)
    coeff = sign[:, None] * np.stack([sols.k1, sols.k2], axis=1)  # (k, 2)
    values = basis_matrix(cfg.boundary, sols.n, grid).T @ coeff
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


def residual_coefficient_matrices(cfg: WaveConfig, sols: ModalTable):
    """Double-basis coefficients of the four PDE residual fields, with the
    weights Q taken from the table.

    Entry (i, j) multiplies phi_{m_i}(x1) phi_{n_j}(x2).  Diagonals carry the
    modal ARE residuals (zero at a solution); off-diagonals are minus the
    cross-frequency products of the completed-square right-hand sides, e.g.
    -gamma^2 m n pi^2 P12^m P21^n for the first equation under Dirichlet
    actuation.
    """
    modes, p11, p12, p22 = sols.n, sols.p11, sols.p12, sols.p22
    q11, q12, q22 = sols.q11, sols.q12, sols.q22
    if len(np.unique(modes)) != len(modes):
        raise ValueError("solution table holds some mode more than once")
    w2 = (modes * np.pi) ** 2
    g2 = cfg.gamma_sq

    if cfg.boundary == Boundary.DIRICHLET:
        t12 = modes * np.pi * p12
        t21 = t12
        t22 = modes * np.pi * p22
    else:
        sign = gain_expansion_sign(cfg.boundary, modes)
        t12 = sign * p12
        t21 = t12
        t22 = sign * p22

    lhs11 = -2.0 * w2 * p12 + q11
    lhs12 = p11 - cfg.alpha * p12 - w2 * p22 + q12
    lhs21 = lhs12.copy()
    lhs22 = 2.0 * p12 - 2.0 * cfg.alpha * p22 + q22

    m11 = np.diag(lhs11) - g2 * np.outer(t12, t21)
    m12 = np.diag(lhs12) - g2 * np.outer(t12, t22)
    m21 = np.diag(lhs21) - g2 * np.outer(t22, t21)
    m22 = np.diag(lhs22) - g2 * np.outer(t22, t22)
    return modes, (m11, m12, m21, m22)


def pde_residual(cfg: WaveConfig, sols: ModalTable, grid) -> ResidualFields:
    """Defect fields of the kernel Riccati PDE for the truncated diagonal solution.

    With a single active mode every field vanishes; with several, the
    surviving residual is exactly the cross-frequency part of the quadratic
    right-hand side.
    """
    modes, mats = residual_coefficient_matrices(cfg, sols)
    phi = basis_matrix(cfg.boundary, modes, grid)
    return ResidualFields(*(phi.T @ m @ phi for m in mats))


def pde_residual_diagonal(cfg: WaveConfig, sols: ModalTable, grid, weights) -> np.ndarray:
    """diag(proj f proj') of the four residual fields f, without forming the fields.

    proj = phi * weights / pairing weight is the quadrature projection onto
    the basis, and each field is f = phi' M phi with M one of the
    residual_coefficient_matrices, so proj f proj' = Gamma M Gamma' with the
    discrete Gram matrix Gamma = proj phi' of the basis on the same grid.
    That is the same quadrature of the same sampled basis in another product
    order.  Gamma is not assumed to be the identity, so the diagonal stays a
    quadrature check of the modal residuals.  Returns a (4, k) array, rows
    r11, r12, r21, r22.  Gamma is accumulated over blocks of GRAM_BLOCK grid
    points, so memory is O(k^2 + k * GRAM_BLOCK) whatever the grid size.
    """
    modes, mats = residual_coefficient_matrices(cfg, sols)
    grid = np.asarray(grid, dtype=float)
    weights = np.asarray(weights, dtype=float)
    gram = np.zeros((len(modes), len(modes)))
    for lo in range(0, len(grid), GRAM_BLOCK):
        phi = basis_matrix(cfg.boundary, modes, grid[lo:lo + GRAM_BLOCK])
        gram += (phi * weights[lo:lo + GRAM_BLOCK]) @ phi.T
    gram /= projection_weight(cfg.boundary, modes)[:, None]
    return np.stack([np.einsum("ij,ij->i", gram @ m, gram) for m in mats])


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


@dataclass(frozen=True)
class SeriesReport:
    name: str
    threshold: float
    fitted_exponent: float
    verdict: str
    cauchy_diffs: tuple[float, ...]
    cauchy_decreasing: bool


@dataclass(frozen=True)
class ConvergenceReport:
    """Series verdicts, and the fit-window solutions the fitted exponents come from."""

    boundary: Boundary
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
            "boundary": self.boundary.value,
            "r": self.r,
            "series": [asdict(s) for s in self.series],
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

    N_list = sorted(int(N) for N in N_list)
    grid = np.linspace(0.0, 1.0, CAUCHY_GRID_POINTS)
    diffs: dict[str, list[float]] = {"Q": [], "K": [], "P11": []}
    prev = None
    for N in N_list:
        sols = solve_family(cfg, family, N)
        qf = assemble_Q(family, grid, cfg.boundary, N).values[:, :, 0, 0]
        kf = np.abs(assemble_K(sols, cfg, grid).values).max(axis=1)
        pf = assemble_P(sols, grid, cfg.boundary).values[:, :, 0, 0]
        cur = (qf, kf, pf)
        if prev is not None:
            diffs["Q"].append(float(np.abs(cur[0] - prev[0]).max()))
            diffs["K"].append(float(np.abs(cur[1] - prev[1]).max()))
            diffs["P11"].append(float(np.abs(cur[2] - prev[2]).max()))
        prev = cur

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
    return ConvergenceReport(cfg.boundary, family.r, tuple(reports), fit)
