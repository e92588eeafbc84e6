"""Batch front door: config ingestion, command dispatch, file emission.

Exit codes: 0 success, 1 verification failure, 2 config error (including an
output directory that cannot be written), 3 numerical failure.  Output files
are byte-deterministic for a fixed config: CSV floats are written with 17
significant digits, JSON floats as their shortest round-trip repr, JSON keys
are sorted, and the only randomness (grid sampling in verify) is seeded from
the config.
"""

import argparse
import functools
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .kernels import (
    assemble_K,
    assemble_P,
    assemble_Q,
    convergence_report,
    decay_fit,
    pde_residual,
    pde_residual_diagonal,
    series_thresholds,
    summability_warnings,
)
from .model import (
    Boundary,
    PowerLawWeights,
    WaveConfig,
    finite_value,
    integer_value,
    modal_matrices,
    wave_config_from_dict,
    weight_family_from_dict,
)
from .quad import simpson_weights
from .riccati import (
    ModalTable,
    OracleError,
    negative_root_matrices,
    oracle_solve_modes,
    solve_family,
)
from .sim import (
    MIN_FD_INTERVALS,
    ModalState,
    SimulationError,
    field_energy,
    modal_energy,
    predicted_cost,
    reconstruct_field,
    simulate_coupled_modal,
    simulate_decoupled,
    simulate_fd,
)
from .spectrum import classify, closed_loop_spectrum, closed_loop_trace_det, open_loop_spectrum


class ConfigError(ValueError):
    """Malformed or invalid run configuration."""


@dataclass(frozen=True)
class SimParams:
    T: float = 5.0
    dt: float = 0.002
    M: int = 400
    cfl: float = 0.9
    csv_stride: int = 10
    initial_modes: tuple | None = None


@dataclass(frozen=True)
class ConvergeParams:
    N_list: tuple[int, ...] = (16, 32, 64, 128)
    fit_lo: int = 50
    fit_hi: int = 500


@dataclass(frozen=True)
class RunConfig:
    wave: WaveConfig
    family: object
    N: int
    grid_points: int
    seed: int
    out_dir: str
    sim: SimParams
    converge: ConvergeParams


def _check_keys(doc: dict, allowed: set, where: str):
    unknown = set(doc) - allowed
    if unknown:
        raise ConfigError(f"unknown keys in {where}: {sorted(unknown)}")


def parse_config(doc: dict) -> RunConfig:
    try:
        return _run_config(doc)
    except ConfigError:
        raise
    except (ValueError, TypeError) as exc:  # a field that does not convert, e.g. "N": null or 2.7
        raise ConfigError(f"invalid value: {exc}") from exc


def _run_config(doc: dict) -> RunConfig:
    if not isinstance(doc, dict):
        raise ConfigError("config document must be a JSON object")
    _check_keys(
        doc,
        {"boundary", "alpha", "beta", "R", "weights", "N", "grid_points", "seed",
         "out_dir", "sim", "converge"},
        "config",
    )
    for key in ("boundary", "weights"):
        if key not in doc:
            raise ConfigError(f"missing required key {key!r}")
    wave = wave_config_from_dict(doc)
    N = integer_value(doc.get("N", 64), "N")
    if N < 0:
        raise ConfigError(f"N must be nonnegative, got {N}")
    seed = integer_value(doc.get("seed", 0), "seed")
    if seed < 0:
        raise ConfigError(f"seed must be nonnegative, got {seed}")
    wdoc = doc["weights"]
    if not isinstance(wdoc, dict):
        raise ConfigError("weights must be an object")
    _check_keys(wdoc, {"type", "q", "r", "entries"}, "weights")
    try:
        family = weight_family_from_dict(wdoc, boundary=wave.boundary)
    except (ValueError, KeyError, TypeError) as exc:
        raise ConfigError(f"invalid weights: {exc}") from exc

    grid_points = integer_value(doc.get("grid_points", 201), "grid_points")
    if grid_points < 3 or grid_points % 2 == 0:
        raise ConfigError(f"grid_points must be odd and >= 3, got {grid_points}")

    sdoc = doc.get("sim", {})
    _check_keys(sdoc, {"T", "dt", "M", "cfl", "csv_stride", "initial_modes"}, "sim")
    init = sdoc.get("initial_modes")
    if init is not None:
        init = tuple(tuple(finite_value(v, "sim.initial_modes entry") for v in row) for row in init)
        if any(len(row) != 2 for row in init):
            raise ConfigError("sim.initial_modes must be a list of [a1, a2] pairs")
    sim = SimParams(
        T=finite_value(sdoc.get("T", 5.0), "sim.T"),
        dt=finite_value(sdoc.get("dt", 0.002), "sim.dt"),
        M=integer_value(sdoc.get("M", 400), "sim.M"),
        cfl=finite_value(sdoc.get("cfl", 0.9), "sim.cfl"),
        csv_stride=integer_value(sdoc.get("csv_stride", 10), "sim.csv_stride"),
        initial_modes=init,
    )
    if sim.T <= 0 or sim.dt <= 0 or sim.csv_stride < 1:
        raise ConfigError("sim.T, sim.dt must be positive and sim.csv_stride >= 1")

    cdoc = doc.get("converge", {})
    _check_keys(cdoc, {"N_list", "fit_lo", "fit_hi"}, "converge")
    conv = ConvergeParams(
        N_list=tuple(
            integer_value(v, "converge.N_list entry") for v in cdoc.get("N_list", (16, 32, 64, 128))
        ),
        fit_lo=integer_value(cdoc.get("fit_lo", 50), "converge.fit_lo"),
        fit_hi=integer_value(cdoc.get("fit_hi", 500), "converge.fit_hi"),
    )
    if any(n < 0 for n in conv.N_list):
        raise ConfigError(f"converge.N_list entries must be nonnegative, got {list(conv.N_list)}")
    if conv.fit_lo < 1 or conv.fit_hi <= conv.fit_lo:
        raise ConfigError("converge.fit window must satisfy 1 <= fit_lo < fit_hi")

    return RunConfig(
        wave=wave,
        family=family,
        N=N,
        grid_points=grid_points,
        seed=seed,
        out_dir=str(doc.get("out_dir", "out")),
        sim=sim,
        converge=conv,
    )


def load_config(path) -> RunConfig:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    return parse_config(doc)


# ---------------------------------------------------------------------------
# deterministic serialization
# ---------------------------------------------------------------------------


def fmt(x) -> str:
    return "%.17g" % float(x)


# write_csv formats a block of rows as one (bytes per row, rows) uint8 array:
# each cell owns a fixed run of byte rows (a slot), NUL where its text is
# shorter, and the block is written as block.T.tobytes().translate(None,
# b"\0").  A number's slot is its sign, a "0.000" prefix, 18 digit-or-point
# bytes, "e+ddd" and the separator.  Python's "%.17g" runs bignum dtoa for
# every number; here each number is scaled to 17 integer digits in
# double-double arithmetic, exact enough to round as dtoa does except at
# near-ties, which fmt formats.
_NUMBER_SLOT = 30
_BLOCK_VALUES = 1 << 15  # cells per block: bounds the temporaries
_TIE = 2.0**-30  # a scaled value this close to k + 1/2 is left to fmt


@functools.cache
def _pow10(E):
    """(hi, lo, b) with 10**(16 - E) ~ (hi + lo) * 2**b and hi in [1, 2).

    hi + lo carries 10**(16 - E) to about 2**-106 relative.  Built from
    Python ints: a 110-bit integer q with q * 2**shift ~ 10**k, rounded to
    a double and a double remainder.
    """
    k = 16 - E
    power = 10 ** abs(k)
    if k >= 0:
        shift = max(0, power.bit_length() - 110)
        q = power >> shift
    else:
        shift = -(power.bit_length() + 110)
        q = (1 << -shift) // power
    top = q.bit_length() - 1
    h = float(q)
    return math.ldexp(h, -top), math.ldexp(float(q - int(h)), -top), top + shift


def _split(a):
    """Dekker's split of a into two halves of at most 26 significant bits."""
    c = 134217729.0 * a
    high = c - (c - a)
    return high, a - high


def _scaled(m, ex, E):
    """(p, t) with p + t = m * 2**ex * 10**(16 - E), p the rounded product.

    A Dekker TwoProduct of m and hi, plus m * lo: the pair carries the
    product to about 2**-100 relative.  m lies in [0.5, 1), so nothing
    overflows; the power-of-two scale is applied last and is exact.
    """
    first = int(E.min())
    hi, lo, b = np.array([_pow10(e) for e in range(first, int(E.max()) + 1)]).T
    i = E - first
    h = hi[i]
    p = m * h
    m1, m2 = _split(m)
    h1, h2 = _split(h)
    t = (((m1 * h1 - p) + m1 * h2 + m2 * h1) + m2 * h2) + m * lo[i]
    scale = ((ex + b.astype(np.int64)[i] + 1023) << 52).view(np.float64)  # 2**(ex + b)
    return p * scale, t * scale


def _number_slots(x, out):
    """Write "%.17g" % v for each float v of x into its slot out[:, ...].

    out is a zeroed uint8 view of shape (_NUMBER_SLOT - 1,) + x.shape.
    Returns the flat indices of x left to fmt: non-finite values, and
    values whose digits after the 17th lie within _TIE of a rounding tie.
    """
    x = x.ravel()
    if not x.size:
        return np.empty(0, np.intp)
    zero = x == 0
    regular = np.isfinite(x) & ~zero
    # stand-ins for 0, inf and nan that keep the arithmetic finite
    a = np.fmin(np.abs(x), np.finfo(float).max) + zero
    m, ex = np.frexp(a)
    E = np.floor(np.log10(a)).astype(np.int64)
    p, t = _scaled(m, ex, E)
    # log10 can miss the decade next to a power of ten; decide it from the
    # unrounded pair, so that p + t lies in [1e16, 1e17) up to rounding
    low = (p < 1e16) | ((p == 1e16) & (t < 0))
    high = (p > 1e17) | ((p == 1e17) & (t >= 0))
    fix = np.flatnonzero(low | high)
    if fix.size:
        E[fix] += high[fix].astype(np.int64) - low[fix]
        p[fix], t[fix] = _scaled(m[fix], ex[fix], E[fix])
    # p >= 1e16 > 2**53 is an integer, so t holds the whole fraction
    whole = np.floor(t)
    frac = t - whole
    D = p.astype(np.int64) + whole.astype(np.int64) + (frac > 0.5)
    carry = D >= 10**17  # 99999999999999999.5 and up round to 1e17
    D -= carry * (9 * 10**16)
    E += carry
    D *= regular  # zero: D = 0, E = 0 prints as "0"
    E *= regular

    # the 17 digits, from two uint32 halves
    digits = []
    top = D // 10**8
    for part, count in ((top, 9), (D - top * 10**8, 8)):
        part = part.astype(np.uint32)
        half = []
        for _ in range(count):
            q = part // 10
            half.append((part - q * 10).astype(np.uint8))
            part = q
        digits += half[::-1]
    # nd: significant digits once trailing zeros are dropped
    nd = np.zeros(len(x), np.uint8)
    nonzero_tail = np.zeros(len(x), bool)
    for d in digits[::-1]:
        nonzero_tail |= d != 0
        nd += nonzero_tail

    sci = (E < -4) | (E > 16)
    fixed_neg = ~sci & (E < 0)
    fixed_pos = ~sci & (E >= 0)
    # digits shown, the digit the point follows (17: no point among the
    # digits), and the point if any digit follows it
    shown = np.maximum(nd, (E + 1) * fixed_pos).astype(np.uint8)
    point_after = (E * fixed_pos + 17 * fixed_neg).astype(np.uint8)
    point = (nd > point_after + 1) * np.uint8(46)
    chars = [(shown > i) * (48 + d) for i, d in enumerate(digits)] + [np.zeros_like(point)]

    ae = np.abs(E).astype(np.uint16)
    ae_tens = ae // 10
    rows = [
        np.signbit(x) * np.uint8(45),
        fixed_neg * np.uint8(48),
        fixed_neg * np.uint8(46),
        (fixed_neg & (E <= -2)) * np.uint8(48),
        (fixed_neg & (E <= -3)) * np.uint8(48),
        (fixed_neg & (E <= -4)) * np.uint8(48),
    ]
    # slot s holds digit s before the point, the point, then digit s - 1
    for s in range(18):
        before = point_after >= s
        row = before * chars[s]
        if s:
            at = point_after == s - 1
            row += at * point + ~(before | at) * chars[s - 1]
        rows.append(row)
    rows += [
        sci * np.uint8(101),
        sci * (43 + 2 * (E < 0)),
        (ae >= 100) * (48 + ae_tens // 10),
        sci * (48 + ae_tens % 10),
        sci * (48 + ae - 10 * ae_tens),
    ]
    for k, row in enumerate(rows):
        out[k] = row.reshape(out.shape[1:])
    return np.flatnonzero(~(regular | zero) | (regular & (np.abs(frac - 0.5) < _TIE)))


def _formatted(x):
    """(_NUMBER_SLOT, len(x)) uint8 slots of "%.17g," for the 1-D floats x."""
    slots = np.zeros((_NUMBER_SLOT, len(x)), np.uint8)
    slots[-1] = ord(",")
    for j in _number_slots(x, slots[:-1]):
        cell = fmt(x[j]).encode()
        slots[:-1, j] = 0
        slots[: len(cell), j] = np.frombuffer(cell, np.uint8)
    return slots


def _text_slots(values):
    """uint8 (width, len(values)) slots of str(v) for each value, NUL-padded."""
    cells = [str(v).encode() for v in values]
    if any(b"\0" in c for c in cells):
        raise ValueError("a CSV text cell contains a NUL character")
    width = max(map(len, cells), default=0) or 1
    return np.array(cells, dtype=f"S{width}").view(np.uint8).reshape(len(cells), width).T


def _csv_block(columns, text):
    """The bytes of equal-length columns as CSV rows.

    A 2-D column is the (_NUMBER_SLOT, rows) slots of numbers formatted
    beforehand.  Numeric columns with the same bits share one formatting,
    a column of one bit pattern is formatted once and broadcast, and what
    is left goes through one _formatted call.  Bits, not float equality,
    decide: -0.0 and 0.0 print differently.
    """
    rows = columns[0].shape[-1]
    numeric = [c for c, t in zip(columns, text) if not t and c.ndim == 1]
    values = np.array(numeric, float).reshape(-1, rows)
    bits = values.view(np.int64)
    constant = (bits == bits[:, :1]).all(axis=1)
    owner = {}  # bits of a column -> the first numeric column holding them
    source = [owner.setdefault(b.tobytes(), i) for i, b in enumerate(bits)]
    full = [i for i in owner.values() if not constant[i]]
    once = [i for i in owner.values() if constant[i]]
    slots = _formatted(np.concatenate([values[full].ravel(), values[once, :1].ravel()]))
    shared = {i: slots[:, k * rows:(k + 1) * rows] for k, i in enumerate(full)}
    for k, i in enumerate(once, len(full) * rows):
        shared[i] = np.broadcast_to(slots[:, k:k + 1], (_NUMBER_SLOT, rows))
    pieces, sources = [], iter(source)
    for c, t in zip(columns, text):
        if t:
            pieces += [_text_slots(c.tolist()), np.full((1, rows), ord(","), np.uint8)]
        elif c.ndim == 2:
            pieces.append(c)
        else:
            pieces.append(shared[next(sources)])
    block = np.concatenate(pieces)
    block[-1] = ord("\n")
    return block.T.tobytes().translate(None, b"\0")


def write_csv(path: Path, header: list[str], columns) -> None:
    """Write equal-length columns as CSV rows.

    A str or object column is written as str() of its values; any other
    column is converted to float and written as fmt writes it ("%.17g").
    A column given as a tuple (values, index) is the floats values[index],
    and each of values is formatted once per call.  The numbers are
    formatted by _number_slots a block of rows at a time, and the bytes
    equal those of one fmt call per number.
    """
    columns = list(columns)
    tables = {}
    for i, c in enumerate(columns):
        if isinstance(c, tuple):
            values, columns[i] = c
            tables[i] = _formatted(np.asarray(values, float))
    columns = [np.asarray(c) for c in columns]
    text = [c.dtype.kind in "OSU" for c in columns]
    if len({len(c) for c in columns}) > 1:
        raise ValueError("CSV columns differ in length")
    rows = len(columns[0]) if columns else 0
    step = max(1, _BLOCK_VALUES // max(1, len(columns)))
    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\n").encode())
        for start in range(0, rows, step):
            block = [c[start:start + step] for c in columns]
            for i, table in tables.items():
                block[i] = table[:, block[i]]
            fh.write(_csv_block(block, text))


def _jsonable(obj):
    """obj with numpy scalars made Python numbers, which json can write."""
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    return obj


def write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(_jsonable(obj), sort_keys=True, indent=2) + "\n")


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def cmd_synth(rc: RunConfig, out: Path) -> int:
    """Per-mode table: Riccati entries, gains, leading closed-loop eigenvalue."""
    t = solve_family(rc.wave, rc.family, rc.N)
    mu, _ = closed_loop_spectrum(rc.wave, t.n, t.k1, t.k2)
    write_csv(
        out / "modes.csv",
        ["n", "P11", "P12", "P22", "K1", "K2", "ReMu", "ImMu", "residual_max"],
        [t.n, t.p11, t.p12, t.p22, t.k1, t.k2, mu[:, 0].real, mu[:, 0].imag, t.rel_residual],
    )
    return 0


def _verify_checks(rc: RunConfig) -> dict:
    cfg = rc.wave
    t = solve_family(cfg, rc.family, rc.N)
    modes = t.n.tolist()
    P = np.stack([t.p11, t.p12, t.p22])  # (3, k)

    checks = []

    def add(name, measured, tolerance, larger_is_worse=True):
        passed = measured <= tolerance if larger_is_worse else measured >= tolerance
        checks.append(
            {"name": name, "measured": float(measured), "tolerance": float(tolerance),
             "passed": bool(passed)}
        )

    # modal ARE residuals and positive semidefiniteness
    add("closed_form_residuals", t.rel_residual.max(initial=0.0), 1e-10)
    min_eig = t.min_eigenvalue.min() if modes else 0.0
    add("psd_min_eigenvalue", min_eig, -1e-12, larger_is_worse=False)

    # gain recomputation K = -R^-1 G' P, with G taken from the model
    _, G = modal_matrices(cfg, t.n)
    k = np.stack([t.k1, t.k2], axis=1)
    k_ref = np.einsum("ki,kij->kj", -(G / cfg.R), t.matrices)
    gain_dev = np.abs(k - k_ref).max(axis=1) / (1.0 + np.abs(k).max(axis=1))
    add("gain_consistency", gain_dev.max(initial=0.0), 1e-14)

    # oracle agreement
    if modes:
        oracle = np.stack(oracle_solve_modes(cfg, t.n, t.q11, t.q12, t.q22))
        scale = 1.0 + np.abs(P).max(axis=0)
        add("oracle_match", (np.abs(P - oracle) / scale).max(), 1e-8)

    # closed-loop trace/determinant identities and conjugacy
    mu, _ = closed_loop_spectrum(cfg, t.n, t.k1, t.k2)
    mu_plus, mu_minus = mu[:, 0], mu[:, 1]
    tr, det = closed_loop_trace_det(cfg, t.n, t.p12, t.p22)
    # the real part of mu+ mu- written out: numpy's complex product can
    # round differently from the scalar one
    prod = mu_plus.real * mu_minus.real - mu_plus.imag * mu_minus.imag
    id_dev = np.stack([
        np.abs(mu_plus.real + mu_minus.real - tr) / np.maximum(1.0, np.abs(tr)),
        np.abs(mu_plus.imag + mu_minus.imag),
        np.abs(prod - det) / np.maximum(1.0, np.abs(det)),
    ])
    add("trace_det_identities", id_dev.max(initial=0.0), 1e-10)
    conj = tr * tr - 4.0 * det < 0
    add("mu_conjugacy", np.abs(mu_minus - mu_plus.conj())[conj].max(initial=0.0), 1e-12)

    # kernel Riccati PDE: diagonal basis coefficients of the residual fields
    if modes:
        npts = max(401, 20 * max(modes) + 1)
        if npts % 2 == 0:
            npts += 1
        grid = np.linspace(0.0, 1.0, npts)
        wq = simpson_weights(npts, grid[1] - grid[0])
        diag = pde_residual_diagonal(cfg, t, grid, wq)
        add("pde_residual_diagonal", np.abs(diag).max(), 1e-8)

    # assembled kernel symmetry at seeded random pairs, and boundary values
    rng = np.random.default_rng(rc.seed)
    pairs = rng.random((100, 2))
    kf_a = assemble_P(t, pairs[:, 0], cfg.boundary, grid_x2=pairs[:, 1])
    kf_b = assemble_P(t, pairs[:, 1], cfg.boundary, grid_x2=pairs[:, 0])
    scale = 1.0 + np.abs(P).max(initial=0.0)
    i = np.arange(len(pairs))
    sym_dev = np.abs(kf_a.values[i, i] - kf_b.values[i, i].swapaxes(1, 2)).max() / scale
    add("kernel_symmetry", sym_dev, 1e-12)

    if cfg.boundary == Boundary.DIRICHLET:
        edge = assemble_P(t, np.array([0.0, 1.0]), cfg.boundary,
                          grid_x2=np.linspace(0.0, 1.0, rc.grid_points))
        add("kernel_boundary_values", float(np.max(np.abs(edge.values))) / scale, 1e-12)

    # the other quadratic branch must not be nonnegative definite
    d = t[t.q11 * t.q22 - np.float_power(t.q12, 2) > 0]
    Pm = negative_root_matrices(cfg, d.n, d.q11, d.q12, d.q22)
    finite = np.isfinite(Pm).all(axis=(1, 2))
    neg_ok = bool((np.linalg.eigvalsh(Pm[finite]).min(axis=1) < 0).all())
    checks.append(
        {"name": "negative_root_not_psd", "measured": 0.0 if neg_ok else 1.0,
         "tolerance": 0.5, "passed": neg_ok}
    )

    return {
        "boundary": cfg.boundary.value,
        "N": rc.N,
        "checks": checks,
        "warnings": list(summability_warnings(rc.family)),
        "passed": all(c["passed"] for c in checks),
    }


def cmd_verify(rc: RunConfig, out: Path) -> int:
    report = _verify_checks(rc)
    write_json(out / "verify.json", report)
    return 0 if report["passed"] else 1


def cmd_spectrum(rc: RunConfig, out: Path) -> int:
    t = solve_family(rc.wave, rc.family, rc.N)
    lam = open_loop_spectrum(rc.wave, t.n)
    mu, _ = closed_loop_spectrum(rc.wave, t.n, t.k1, t.k2)
    write_csv(
        out / "spectrum.csv",
        ["n", "re_lambda_plus", "im_lambda_plus", "re_lambda_minus", "im_lambda_minus",
         "re_mu_plus", "im_mu_plus", "re_mu_minus", "im_mu_minus", "class"],
        [t.n, lam[:, 0].real, lam[:, 0].imag, lam[:, 1].real, lam[:, 1].imag,
         mu[:, 0].real, mu[:, 0].imag, mu[:, 1].real, mu[:, 1].imag,
         [classify(m).value for m in mu.real.max(axis=1)]],
    )
    return 0


def _grid_columns(x1, x2, *planes):
    """CSV columns of (len(x1), len(x2)) value planes, x2 varying fastest.

    The grid columns are gathered: write_csv formats each grid value once.
    """
    i1, i2 = np.arange(len(x1)), np.arange(len(x2))
    return [(x1, np.repeat(i1, len(x2))), (x2, np.tile(i2, len(x1))),
            *(p.ravel() for p in planes)]


def _kernel_columns(field):
    planes = (field.values[..., a, b] for a, b in ((0, 0), (0, 1), (1, 0), (1, 1)))
    return _grid_columns(field.grid_x1, field.grid_x2, *planes)


def cmd_kernels(rc: RunConfig, out: Path) -> int:
    cfg = rc.wave
    grid = np.linspace(0.0, 1.0, rc.grid_points)
    sols = solve_family(cfg, rc.family, rc.N)
    kp = assemble_P(sols, grid, cfg.boundary)
    kq = assemble_Q(rc.family, grid, cfg.boundary, rc.N)
    kg = assemble_K(sols, cfg, grid)
    fields = pde_residual(cfg, sols, grid)

    write_csv(out / "kernel_P.csv", ["x1", "x2", "P11", "P12", "P21", "P22"], _kernel_columns(kp))
    write_csv(out / "kernel_Q.csv", ["x1", "x2", "Q11", "Q12", "Q21", "Q22"], _kernel_columns(kq))
    write_csv(out / "gain.csv", ["x", "K1", "K2"], [grid, kg.values[:, 0], kg.values[:, 1]])
    write_csv(
        out / "pde_residual.csv",
        ["x1", "x2", "r11", "r12", "r21", "r22"],
        _grid_columns(grid, grid, fields.r11, fields.r12, fields.r21, fields.r22),
    )
    write_json(
        out / "kernels_summary.json",
        {
            "N": rc.N,
            "grid_points": rc.grid_points,
            "P_max_abs": float(np.max(np.abs(kp.values))),
            "K_max_abs": float(np.max(np.abs(kg.values))),
            "Q_warnings": list(summability_warnings(rc.family)),
            "pde_residual_max_abs": fields.max_abs(),
        },
    )
    return 0


def _initial_state(rc: RunConfig, sols: ModalTable) -> ModalState:
    modes = tuple(sols.n.tolist())
    if rc.sim.initial_modes is not None:
        given = np.reshape(rc.sim.initial_modes[: len(modes)], (-1, 2))
        a = np.zeros((len(modes), 2))
        a[: len(given)] = given
    else:
        # deterministic default: amplitude falling off quadratically in n
        inv_sq = 1.0 / np.arange(1, len(modes) + 1) ** 2
        a = np.stack([inv_sq, 0.5 * inv_sq], axis=1)
    return ModalState(rc.wave.boundary, modes, a)


def cmd_simulate(rc: RunConfig, out: Path) -> int:
    cfg = rc.wave
    sols = solve_family(cfg, rc.family, rc.N)
    if not len(sols):
        raise ConfigError("simulate needs at least one mode; increase N")
    if rc.sim.M < MIN_FD_INTERVALS:
        raise ConfigError(f"sim.M must be >= {MIN_FD_INTERVALS}, got {rc.sim.M}")
    if not 0 < rc.sim.cfl <= 1:
        raise ConfigError(f"sim.cfl must lie in (0, 1], got {rc.sim.cfl}")
    state0 = _initial_state(rc, sols)

    dec = simulate_decoupled(cfg, sols, state0, rc.sim.T, rc.sim.dt)
    cou = simulate_coupled_modal(cfg, sols, state0, rc.sim.T, rc.sim.dt)

    x = np.linspace(0.0, 1.0, rc.sim.M + 1)
    prof = assemble_K(sols, cfg, x)
    z1, z2 = reconstruct_field(state0, x)
    fd = simulate_fd(
        cfg, prof, lambda xx: np.interp(xx, x, z1), lambda xx: np.interp(xx, x, z2),
        rc.sim.M, rc.sim.T, cfl=rc.sim.cfl, family=rc.family, N=rc.N,
    )

    stride = rc.sim.csv_stride
    for name, res in (("decoupled", dec), ("coupled", cou)):
        u = res.u_record[::stride]
        if u.ndim > 1:  # one control per mode: the row records their sum
            u = u.sum(axis=1)
        states = res.states[::stride].reshape(len(u), -1)
        header = ["t", "u"]
        for n in state0.modes:
            header += [f"a{n}_1", f"a{n}_2"]
        header += ["cost"]
        write_csv(out / f"sim_{name}.csv", header,
                  [res.times[::stride], u, *states.T, res.cost[::stride]])

    write_csv(
        out / "sim_fd.csv",
        ["t", "u"] + [f"z1_{i}" for i in range(rc.sim.M + 1)] + ["cost"],
        [fd.times[::stride], fd.u_record[::stride], *fd.states[::stride, :, 0].T,
         fd.cost[::stride]],
    )

    pred = predicted_cost(state0, sols)
    final_modal = ModalState(cfg.boundary, state0.modes, cou.states[-1])
    summary = {
        "predicted_cost_per_mode": pred.per_mode,
        "predicted_cost_field": pred.field,
        "decoupled_cost": dec.total_cost,
        "coupled_cost": cou.total_cost,
        "fd_cost": fd.total_cost,
        "coupled_over_field_prediction": cou.total_cost / pred.field if pred.field else None,
        "fd_over_field_prediction": fd.total_cost / pred.field if pred.field else None,
        "initial_energy": modal_energy(state0),
        "terminal_energy_coupled": modal_energy(final_modal),
        "terminal_energy_fd": field_energy(x, fd.states[-1][:, 0], fd.states[-1][:, 1]),
    }
    write_json(out / "simulate_summary.json", summary)
    return 0


def cmd_converge(rc: RunConfig, out: Path) -> int:
    if not isinstance(rc.family, PowerLawWeights):
        raise ConfigError("converge requires a power-law weight family")
    rep = convergence_report(
        rc.wave, rc.family, rc.converge.N_list,
        fit_window=(rc.converge.fit_lo, rc.converge.fit_hi),
    )
    write_json(out / "converge.json", rep.as_dict())
    return 0


def cmd_compare_boundary(rc: RunConfig, out: Path) -> int:
    """Same power-law family under both actuation types, side by side."""
    if not isinstance(rc.family, PowerLawWeights):
        raise ConfigError("compare-boundary requires a power-law weight family")
    result = {}
    names, modes, abs_re_mu = [], [], []
    for boundary in (Boundary.DIRICHLET, Boundary.NEUMANN):
        cfg = WaveConfig(boundary, alpha=rc.wave.alpha, beta=rc.wave.beta, R=rc.wave.R)
        rep = convergence_report(
            cfg, rc.family, rc.converge.N_list,
            fit_window=(rc.converge.fit_lo, rc.converge.fit_hi),
        )
        result[boundary.value] = {
            "fitted_exponents": {
                "P11": rep["P11"].fitted_exponent,
                "P12": decay_fit(rep.fit.n, rep.fit.p12),
                "P22": decay_fit(rep.fit.n, rep.fit.p22),
            },
            "thresholds": series_thresholds(boundary),
            "series": rep.as_dict()["series"],
        }
        t = solve_family(cfg, rc.family, rc.N)
        mu, _ = closed_loop_spectrum(cfg, t.n, t.k1, t.k2)
        names += [boundary.value] * len(t)
        modes.append(t.n)
        abs_re_mu.append(np.abs(mu.real.max(axis=1)))
    write_json(out / "compare_boundary.json", result)
    write_csv(out / "damping_profiles.csv", ["boundary", "n", "abs_re_mu"],
              [names, np.concatenate(modes), np.concatenate(abs_re_mu)])
    return 0


COMMANDS = {
    "synth": cmd_synth,
    "verify": cmd_verify,
    "spectrum": cmd_spectrum,
    "kernels": cmd_kernels,
    "simulate": cmd_simulate,
    "converge": cmd_converge,
    "compare-boundary": cmd_compare_boundary,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="wavelqr",
        description="LQR boundary control synthesis and verification for the 1D wave equation",
    )
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("--config", required=True, help="path to a JSON run configuration")
    parser.add_argument("--out", default=None, help="output directory (default: config out_dir)")
    args = parser.parse_args(argv)

    try:
        rc = load_config(args.config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    out = Path(args.out if args.out is not None else rc.out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
        return COMMANDS[args.command](rc, out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:  # --out names a file, or a directory that cannot be written
        print(f"config error: cannot write output: {exc}", file=sys.stderr)
        return 2
    except (
        OracleError, SimulationError, ArithmeticError, ValueError, np.linalg.LinAlgError,
        MemoryError,
    ) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
