"""Problem data for boundary-controlled wave equations on [0, 1].

The state is z = (displacement, velocity) relative to an open-loop target
trajectory.  Dirichlet actuation drives the boundary value at x = 0,
Neumann actuation the slope at x = 1.  Spatial modes are the plain
(unnormalized) eigenfunctions sin(n pi x) or cos(n pi x); every factor the
plain basis drops (the 1/2 pairing weights and the cos(n pi) = (-1)^n
boundary trace signs) is carried explicitly by the functions below.
"""

from collections import namedtuple
from enum import Enum
from typing import Mapping, Union

import numpy as np


class Boundary(str, Enum):
    DIRICHLET = "dirichlet"
    NEUMANN = "neumann"


class InvalidModeError(ValueError):
    """Mode index not admissible for the configured boundary type."""


class WaveConfig(namedtuple("WaveConfig", ["boundary", "alpha", "beta", "R"])):
    """Physical and cost constants for one control problem.

    alpha >= 0 is the damping rate, beta != 0 the actuation gain, R > 0 the
    scalar control weight.  gamma_sq = beta**2 / R is derived, never stored.
    """

    __slots__ = ()

    def __new__(cls, boundary: Boundary, alpha: float = 0.0, beta: float = 1.0, R: float = 1.0):
        boundary = Boundary(boundary)
        if not R > 0:
            raise ValueError(f"control weight R must be positive, got {R}")
        if alpha < 0:
            raise ValueError(f"damping alpha must be nonnegative, got {alpha}")
        if beta == 0:
            raise ValueError("actuation gain beta must be nonzero (beta = 0 makes every mode uncontrollable)")
        return super().__new__(cls, boundary, alpha, beta, R)

    @property
    def gamma_sq(self) -> float:
        return self.beta**2 / self.R


def validate_mode(boundary: Boundary, n) -> np.ndarray:
    """Check mode indices, scalar or array: n >= 1 for Dirichlet, n >= 0 for Neumann."""
    n = np.asarray(n, dtype=int)
    if (n < 0).any():
        raise InvalidModeError(f"mode index must be nonnegative, got {n[n < 0].flat[0]}")
    if Boundary(boundary) == Boundary.DIRICHLET and (n == 0).any():
        raise InvalidModeError("mode 0 does not exist under Dirichlet boundary conditions")
    return n


def mode_range(boundary: Boundary, N: int) -> range:
    """Modes up to N: 1..N for Dirichlet, 0..N for Neumann."""
    if N < 0:
        raise ValueError(f"mode count N must be nonnegative, got {N}")
    return range(1, N + 1) if Boundary(boundary) == Boundary.DIRICHLET else range(0, N + 1)


class ModalWeight(namedtuple("ModalWeight", ["n", "q11", "q12", "q22"])):
    """Symmetric PSD 2x2 state-cost block attached to one spatial mode."""

    __slots__ = ()

    def __new__(cls, n: int, q11: float, q12: float, q22: float):
        if q11 < 0 or q22 < 0 or q11 * q22 - q12**2 < 0:
            raise ValueError(
                f"modal weight for n={n} is not positive semidefinite: "
                f"Q11={q11}, Q12={q12}, Q22={q22}"
            )
        return super().__new__(cls, n, q11, q12, q22)


class PowerLawWeights(namedtuple("PowerLawWeights", ["q", "r"])):
    """Q11 = Q22 = q / n**r per mode, Q12 = 0; the Neumann mean mode gets q."""

    __slots__ = ()

    def __new__(cls, q: float, r: float):
        if not q > 0:
            raise ValueError(f"power-law amplitude q must be positive, got {q}")
        return super().__new__(cls, q, r)


class ExplicitWeights(namedtuple("ExplicitWeights", ["entries"])):
    """Explicit per-mode weights; modes absent from the map get zero weight."""

    __slots__ = ()

    def __new__(cls, entries: Mapping[int, ModalWeight]):
        for n, w in entries.items():
            if w.n != n:
                raise ValueError(f"weight keyed by {n} carries mode index {w.n}")
        return super().__new__(cls, entries)


WeightFamily = Union[PowerLawWeights, ExplicitWeights]


def weight_arrays(family: WeightFamily, n) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(Q11, Q12, Q22) arrays a family gives the admissible modes n.

    Power laws use np.float_power, which rounds as libm pow (and Python's
    float ``**``) does; np.power does not on every host.
    """
    n = np.asarray(n, dtype=int)
    if isinstance(family, PowerLawWeights):
        # 1**r == 1 exactly, so the mean mode gets q
        amp = family.q / np.float_power(np.maximum(n, 1), family.r)
        return amp, np.zeros_like(amp), amp
    rows = [family.entries.get(m) for m in n.tolist()]
    q = np.array([(0.0, 0.0, 0.0) if w is None else (w.q11, w.q12, w.q22) for w in rows])
    return tuple(q.reshape(-1, 3).T)


def frequency_sq(n) -> np.ndarray:
    """n^2 pi^2, vectorized, rounded as the scalar (n * pi) ** 2 (libm pow)."""
    return np.float_power(np.asarray(n, dtype=float) * np.pi, 2)


def input_gain(cfg: WaveConfig, n) -> np.ndarray:
    """G[1] of the modal input vector, vectorized: n pi beta (Dirichlet) or beta (Neumann)."""
    n = np.asarray(n, dtype=float)
    return n * np.pi * cfg.beta if cfg.boundary == Boundary.DIRICHLET else np.full_like(n, cfg.beta)


def modal_matrices(cfg: WaveConfig, n) -> tuple[np.ndarray, np.ndarray]:
    """Per-mode LQR pairs (F, G), stacked over the shape of n.

    F = [[0, 1], [-n^2 pi^2, -alpha]] for both boundary types; the input
    vector is G = [0, n pi beta] under Dirichlet and G = [0, beta] under
    Neumann actuation.
    """
    n = validate_mode(cfg.boundary, n)
    F = np.zeros(n.shape + (2, 2))
    F[..., 0, 1] = 1.0
    F[..., 1, 0] = -frequency_sq(n)
    F[..., 1, 1] = -cfg.alpha
    G = np.zeros(n.shape + (2,))
    G[..., 1] = input_gain(cfg, n)
    return F, G


def projection_weight(boundary: Boundary, n) -> np.ndarray:
    """Basis pairing weight: the integral of the squared eigenfunction.

    1/2 for every sine mode and for cosine modes n >= 1; 1 for the Neumann
    mean mode n = 0.
    """
    n = validate_mode(boundary, n)
    return np.where((Boundary(boundary) == Boundary.NEUMANN) & (n == 0), 1.0, 0.5)


def gain_expansion_sign(boundary: Boundary, n) -> np.ndarray:
    """Sign relating the modal LQR gain to the gain-kernel expansion coefficient.

    The Neumann gain kernel is the trace of the cost kernel at x1 = 1, so its
    cosine coefficients pick up cos(n pi) = (-1)^n; Dirichlet coefficients
    carry no sign.
    """
    n = validate_mode(boundary, n)
    return np.where((Boundary(boundary) == Boundary.NEUMANN) & (n % 2 == 1), -1.0, 1.0)


def true_modal_input(cfg: WaveConfig, n) -> tuple[np.ndarray, np.ndarray]:
    """Forcing of the plain-basis coefficients by the boundary control.

    With coefficients a_n = (1/w_n) * integral(z * phi_n), integrating the
    second derivative by parts against phi_n leaves the boundary term
    G_true * u:

        Dirichlet          G_true = [0, 2 n pi beta],      w_n = 1/2
        Neumann, n >= 1    G_true = [0, 2 (-1)^n beta],    w_n = 1/2
        Neumann, n = 0     G_true = [0, beta],             w_n = 1

    The product w_n * sign_n * G_true equals the G of modal_matrices exactly
    (sign_n from gain_expansion_sign), which is what collapses the coupled
    closed loop's diagonal blocks to F + G K per mode.  Returns (G_true, w_n)
    stacked over the shape of n.
    """
    w = projection_weight(cfg.boundary, n)
    G_true = np.zeros(w.shape + (2,))
    # sign and weight are +-1 and 1/2 or 1, so every factor is exact
    G_true[..., 1] = gain_expansion_sign(cfg.boundary, n) * input_gain(cfg, n) / w
    return G_true, w


def integer_value(value, name: str) -> int:
    """int(value) for a config field; a float must be integral (64.0 gives 64, 2.7 is refused).

    JSON true and false are refused: Python's bool is an int, so int() would
    read them as 1 and 0.
    """
    if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def finite_value(value, name: str) -> float:
    """float(value) for a config field; NaN, the infinities and booleans are refused.

    JSON parsing lets them through: NaN, Infinity, -Infinity and an
    overflowing literal such as 1e999 all reach here as floats, and true and
    false as bools, which float() would read as 1.0 and 0.0.
    """
    if isinstance(value, bool):
        raise ValueError(f"{name} must be a number, got {value!r}")
    x = float(value)
    if not np.isfinite(x):
        raise ValueError(f"{name} must be finite, got {value!r}")
    return x


def wave_config_from_dict(doc: Mapping) -> WaveConfig:
    """Build a WaveConfig from the JSON document fields; WaveConfig supplies
    the constants the document leaves out."""
    try:
        boundary = Boundary(str(doc["boundary"]).lower())
    except (KeyError, ValueError) as exc:
        raise ValueError(f"boundary must be 'dirichlet' or 'neumann': {exc}") from exc
    given = {name: finite_value(doc[name], name) for name in ("alpha", "beta", "R") if name in doc}
    return WaveConfig(boundary, **given)


def weight_family_from_dict(doc: Mapping, boundary: Boundary) -> WeightFamily:
    """Build a weight family from the JSON 'weights' object.

    A list entry must name an admissible mode of the boundary, at most once;
    entries above the mode count N are kept and weigh nothing, since no mode
    above N is solved.
    """
    kind = doc.get("type")
    if kind == "power":
        return PowerLawWeights(
            q=finite_value(doc["q"], "weights.q"), r=finite_value(doc["r"], "weights.r"),
        )
    if kind == "list":
        entries = {}
        for item in doc["entries"]:
            unknown = set(item) - {"n", "Q11", "Q12", "Q22"}
            if unknown:
                raise ValueError(f"unknown keys in weights entry: {sorted(unknown)}")
            n = int(validate_mode(boundary, integer_value(item["n"], "weights entry n")))
            if n in entries:
                raise ValueError(f"weights entry n={n} appears more than once")
            entries[n] = ModalWeight(
                n,
                finite_value(item["Q11"], f"weights entry n={n} Q11"),
                finite_value(item.get("Q12", 0.0), f"weights entry n={n} Q12"),
                finite_value(item["Q22"], f"weights entry n={n} Q22"),
            )
        return ExplicitWeights(entries=entries)
    raise ValueError(f"weights.type must be 'power' or 'list', got {kind!r}")
