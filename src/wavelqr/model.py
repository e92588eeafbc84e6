"""Problem data for boundary-controlled wave equations on [0, 1].

The state is z = (displacement, velocity) relative to an open-loop target
trajectory.  Dirichlet actuation drives the boundary value at x = 0,
Neumann actuation the slope at x = 1.  Spatial modes are the plain
(unnormalized) eigenfunctions sin(n pi x) or cos(n pi x); every factor the
plain basis drops (the 1/2 pairing weights and the cos(n pi) = (-1)^n
boundary trace signs) is carried explicitly by the functions below.
"""

from dataclasses import dataclass
from enum import Enum
from typing import Mapping, Union

import numpy as np


class Boundary(str, Enum):
    DIRICHLET = "dirichlet"
    NEUMANN = "neumann"


class InvalidModeError(ValueError):
    """Mode index not admissible for the configured boundary type."""


@dataclass(frozen=True)
class WaveConfig:
    """Physical and cost constants for one control problem.

    alpha >= 0 is the damping rate, beta != 0 the actuation gain, R > 0 the
    scalar control weight.  gamma_sq = beta**2 / R is derived, never stored.
    """

    boundary: Boundary
    alpha: float = 0.0
    beta: float = 1.0
    R: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "boundary", Boundary(self.boundary))
        if not self.R > 0:
            raise ValueError(f"control weight R must be positive, got {self.R}")
        if self.alpha < 0:
            raise ValueError(f"damping alpha must be nonnegative, got {self.alpha}")
        if self.beta == 0:
            raise ValueError("actuation gain beta must be nonzero (beta = 0 makes every mode uncontrollable)")

    @property
    def gamma_sq(self) -> float:
        return self.beta**2 / self.R


def validate_mode(boundary: Boundary, n: int) -> int:
    """Check a mode index: n >= 1 for Dirichlet, n >= 0 for Neumann."""
    n = int(n)
    if n < 0:
        raise InvalidModeError(f"mode index must be nonnegative, got {n}")
    if boundary == Boundary.DIRICHLET and n == 0:
        raise InvalidModeError("mode 0 does not exist under Dirichlet boundary conditions")
    return n


def mode_range(boundary: Boundary, N: int) -> range:
    """Modes up to cutoff N: 1..N for Dirichlet, 0..N for Neumann."""
    if N < 0:
        raise ValueError(f"cutoff must be nonnegative, got {N}")
    return range(1, N + 1) if Boundary(boundary) == Boundary.DIRICHLET else range(0, N + 1)


@dataclass(frozen=True)
class ModalWeight:
    """Symmetric PSD 2x2 state-cost block attached to one spatial mode."""

    n: int
    q11: float
    q12: float
    q22: float

    def __post_init__(self):
        if self.q11 < 0 or self.q22 < 0 or self.q11 * self.q22 - self.q12**2 < 0:
            raise ValueError(
                f"modal weight for n={self.n} is not positive semidefinite: "
                f"Q11={self.q11}, Q12={self.q12}, Q22={self.q22}"
            )

    @property
    def matrix(self) -> np.ndarray:
        return np.array([[self.q11, self.q12], [self.q12, self.q22]])

    @property
    def is_zero(self) -> bool:
        return self.q11 == 0.0 and self.q12 == 0.0 and self.q22 == 0.0


@dataclass(frozen=True)
class PowerLawWeights:
    """Q11 = Q22 = q / n**r per mode, Q12 = 0; the Neumann mean mode gets q."""

    q: float
    r: float
    cutoff: int = 64

    def __post_init__(self):
        if not self.q > 0:
            raise ValueError(f"power-law amplitude q must be positive, got {self.q}")
        if self.cutoff < 0:
            raise ValueError(f"cutoff must be nonnegative, got {self.cutoff}")


@dataclass(frozen=True)
class ExplicitWeights:
    """Explicit per-mode weights; modes absent from the map get zero weight."""

    entries: Mapping[int, ModalWeight]
    cutoff: int = 64

    def __post_init__(self):
        for n, w in self.entries.items():
            if w.n != n:
                raise ValueError(f"weight keyed by {n} carries mode index {w.n}")


WeightFamily = Union[PowerLawWeights, ExplicitWeights]


def weight_arrays(family: WeightFamily, n) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(Q11, Q12, Q22) arrays a family gives the admissible modes n; zero beyond the cutoff.

    Power laws use np.float_power, which rounds as libm pow (and Python's
    float ``**``) does; np.power does not on every host.
    """
    n = np.asarray(n, dtype=int)
    if isinstance(family, PowerLawWeights):
        # 1**r == 1 exactly, so the mean mode gets q
        amp = family.q / np.float_power(np.maximum(n, 1), family.r)
        amp = np.where(n <= family.cutoff, amp, 0.0)
        return amp, np.zeros_like(amp), amp
    rows = [family.entries.get(m) if m <= family.cutoff else None for m in n.tolist()]
    q = np.array([(0.0, 0.0, 0.0) if w is None else (w.q11, w.q12, w.q22) for w in rows])
    return tuple(q.reshape(-1, 3).T)


def weight_of(family: WeightFamily, n: int, boundary: Boundary) -> ModalWeight:
    """Modal weight generated by a family; zero beyond the cutoff."""
    n = validate_mode(boundary, n)
    q11, q12, q22 = weight_arrays(family, [n])
    return ModalWeight(n, float(q11[0]), float(q12[0]), float(q22[0]))


def frequency_sq(n) -> np.ndarray:
    """n^2 pi^2, vectorized, rounded as the scalar (n * pi) ** 2 (libm pow)."""
    return np.float_power(np.asarray(n, dtype=float) * np.pi, 2)


def input_gain(cfg: WaveConfig, n) -> np.ndarray:
    """G[1] of the modal input vector, vectorized: n pi beta (Dirichlet) or beta (Neumann)."""
    n = np.asarray(n, dtype=float)
    return n * np.pi * cfg.beta if cfg.boundary == Boundary.DIRICHLET else np.full_like(n, cfg.beta)


def modal_matrices(cfg: WaveConfig, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-mode LQR pair (F, G).

    F = [[0, 1], [-n^2 pi^2, -alpha]] for both boundary types; the input
    vector is G = [0, n pi beta] under Dirichlet and G = [0, beta] under
    Neumann actuation.
    """
    n = validate_mode(cfg.boundary, n)
    F = np.array([[0.0, 1.0], [-frequency_sq(n), -cfg.alpha]])
    return F, np.array([0.0, input_gain(cfg, n)])


def projection_weight(boundary: Boundary, n: int) -> float:
    """Basis pairing weight: the integral of the squared eigenfunction.

    1/2 for every sine mode and for cosine modes n >= 1; 1 for the Neumann
    mean mode n = 0.
    """
    n = validate_mode(boundary, n)
    return 1.0 if (Boundary(boundary) == Boundary.NEUMANN and n == 0) else 0.5


def gain_expansion_sign(boundary: Boundary, n: int) -> float:
    """Sign relating the modal LQR gain to the gain-kernel expansion coefficient.

    The Neumann gain kernel is the trace of the cost kernel at x1 = 1, so its
    cosine coefficients pick up cos(n pi) = (-1)^n; Dirichlet coefficients
    carry no sign.
    """
    n = validate_mode(boundary, n)
    if Boundary(boundary) == Boundary.NEUMANN and n % 2 == 1:
        return -1.0
    return 1.0


def true_modal_input(cfg: WaveConfig, n: int) -> tuple[np.ndarray, float]:
    """Forcing of the plain-basis coefficients by the boundary control.

    With coefficients a_n = (1/w_n) * integral(z * phi_n), integrating the
    second derivative by parts against phi_n leaves the boundary term
    G_true * u:

        Dirichlet          G_true = [0, 2 n pi beta],      w_n = 1/2
        Neumann, n >= 1    G_true = [0, 2 (-1)^n beta],    w_n = 1/2
        Neumann, n = 0     G_true = [0, beta],             w_n = 1

    The product w_n * sign_n * G_true equals the G of modal_matrices exactly
    (sign_n from gain_expansion_sign), which is what collapses the coupled
    closed loop's diagonal blocks to F + G K per mode.
    """
    n = validate_mode(cfg.boundary, n)
    if cfg.boundary == Boundary.DIRICHLET:
        return np.array([0.0, 2.0 * (n * np.pi * cfg.beta)]), 0.5
    if n == 0:
        return np.array([0.0, cfg.beta]), 1.0
    sign = -1.0 if n % 2 == 1 else 1.0
    return np.array([0.0, 2.0 * (sign * cfg.beta)]), 0.5


def wave_config_from_dict(doc: Mapping) -> WaveConfig:
    """Build a WaveConfig from the JSON document fields."""
    try:
        boundary = Boundary(str(doc["boundary"]).lower())
    except (KeyError, ValueError) as exc:
        raise ValueError(f"boundary must be 'dirichlet' or 'neumann': {exc}") from exc
    return WaveConfig(
        boundary=boundary,
        alpha=float(doc.get("alpha", 0.0)),
        beta=float(doc.get("beta", 1.0)),
        R=float(doc.get("R", 1.0)),
    )


def weight_family_from_dict(doc: Mapping, cutoff: int) -> WeightFamily:
    """Build a weight family from the JSON 'weights' object."""
    kind = doc.get("type")
    if kind == "power":
        return PowerLawWeights(q=float(doc["q"]), r=float(doc["r"]), cutoff=cutoff)
    if kind == "list":
        entries = {}
        for item in doc["entries"]:
            unknown = set(item) - {"n", "Q11", "Q12", "Q22"}
            if unknown:
                raise ValueError(f"unknown keys in weights entry: {sorted(unknown)}")
            n = int(item["n"])
            entries[n] = ModalWeight(
                n,
                float(item["Q11"]),
                float(item.get("Q12", 0.0)),
                float(item["Q22"]),
            )
        return ExplicitWeights(entries=entries, cutoff=cutoff)
    raise ValueError(f"weights.type must be 'power' or 'list', got {kind!r}")
