"""Batch front door: config ingestion, command dispatch, file emission.

Exit codes: 0 success, 1 verification failure, 2 config error (including an
output directory that cannot be written), 3 numerical failure.  Output files
are byte-deterministic for a fixed config: CSV floats are written with 17
significant digits, JSON floats as their shortest round-trip repr, JSON keys
are sorted, and nothing is random: verify's kernel symmetry check samples
points of a low-discrepancy sequence offset by the config's seed.
"""

import argparse
import gc
import json
import os
import sys
from pathlib import Path
from typing import NamedTuple

import numpy as np

# read at call time: each of these executes on a command's first use of it
from . import digits, kernels, sim, spectrum
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
from .riccati import (
    TOL_RES,
    ModalTable,
    OracleError,
    negative_root_matrices,
    oracle_solve_modes,
    solve_family,
)


class ConfigError(ValueError):
    """Malformed or invalid run configuration."""


class SimParams(NamedTuple):
    T: float = 5.0
    dt: float = 0.002
    M: int = 400
    cfl: float = 0.9
    csv_stride: int = 10
    initial_modes: tuple | None = None


class ConvergeParams(NamedTuple):
    N_list: tuple[int, ...] = (16, 32, 64, 128)
    fit_lo: int = 50
    fit_hi: int = 500


class RunConfig(NamedTuple):
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


def _params(cls, doc: dict, where: str, **convert):
    """cls from the keys of doc that are present; the defaults of the named
    tuple cls supply the rest.

    The keys allowed are the fields of cls.  The fields named in convert
    are converted first, each by its own function; every other field is a
    float or an int, as annotated, converted by finite_value or integer_value.
    """
    if not isinstance(doc, dict):
        raise ConfigError(f"{where} must be an object")
    _check_keys(doc, set(cls._fields), where)
    values = {name: fn(doc[name]) for name, fn in convert.items() if name in doc}
    for name, kind in cls.__annotations__.items():
        if name in doc and name not in convert:
            scalar = finite_value if kind is float else integer_value
            values[name] = scalar(doc[name], f"{where}.{name}")
    return cls(**values)


def _initial_modes(rows):
    """sim.initial_modes as a tuple of (a1, a2) pairs, or None."""
    if rows is None:
        return None
    init = tuple(tuple(finite_value(v, "sim.initial_modes entry") for v in row) for row in rows)
    if any(len(row) != 2 for row in init):
        raise ConfigError("sim.initial_modes must be a list of [a1, a2] pairs")
    return init


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

    sim_params = _params(SimParams, doc.get("sim", {}), "sim", initial_modes=_initial_modes)
    if sim_params.T <= 0 or sim_params.dt <= 0 or sim_params.csv_stride < 1:
        raise ConfigError("sim.T, sim.dt must be positive and sim.csv_stride >= 1")

    conv = _params(
        ConvergeParams, doc.get("converge", {}), "converge",
        N_list=lambda ns: tuple(integer_value(v, "converge.N_list entry") for v in ns),
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
        sim=sim_params,
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


# write_csv lays a block of rows out as one (bytes per row, rows) uint8
# array, in which each cell owns a fixed run of byte rows (a slot), NUL
# where its text is shorter; digits formats the numbers into their slots,
# and the block is written in row order with its NULs dropped.
_BLOCK_VALUES = 1 << 15  # cells per block: bounds the workspace


def _text_slots(values):
    """uint8 (width, len(values)) slots of str(v) for each value, NUL-padded."""
    cells = [str(v).encode() for v in values]
    if any(b"\0" in c for c in cells):
        raise ValueError("a CSV text cell contains a NUL character")
    width = max(map(len, cells), default=0) or 1
    return np.array(cells, dtype=f"S{width}").view(np.uint8).reshape(len(cells), width).T


def _number_plan(columns, numeric):
    """(full, constants, runs): how write_csv formats the numeric columns,
    the columns of the indices numeric, decided once over all their rows;
    every column holds the same number of rows, at least one.

    full lists the numeric columns of more than one bit pattern, each
    pattern once, in column order: every block formats its rows of them.
    constants holds the (NUMBER_SLOT, k) slots of the numbers of the k
    columns of one bit pattern, formatted once for the file.  runs lists
    the columns in order, a maximal run of numeric columns as one intp
    array of their cells (position j in full, or len(full) + j for
    constant j) and any other column as its index.  Bits, not float
    equality, decide: -0.0 and 0.0 print differently.  The columns are read
    a group of at most _BLOCK_VALUES numbers at a time: a group of one
    column where it lies, a group of several through one buffer, so that
    no long column is copied.  The columns are grouped all at once, by
    np.unique on a key of the sampled bits of each, and a column whose key
    an earlier one shares is confirmed in full.
    """
    rows = len(columns[0])
    pick = slice(None, None, max(1, rows // 64))  # the rows sampled, row 0 first
    numeric = np.asarray(numeric, np.intp)
    one = np.empty(len(numeric), bool)  # the columns of one bit pattern
    sample = np.empty((len(numeric), len(range(rows)[pick])), np.int64)
    group = max(1, _BLOCK_VALUES // rows)
    buffer = np.empty((min(group, len(numeric)), rows)) if group > 1 else None
    for g in range(0, len(numeric), group):
        idx = numeric[g:g + group]
        if buffer is None:
            floats = np.asarray(columns[idx[0]], float)[None]
        else:
            floats = np.stack([columns[i] for i in idx], out=buffer[:len(idx)])
        bits = floats.view(np.int64)
        one[g:g + len(idx)] = (bits == bits[:, :1]).all(axis=1)
        sample[g:g + len(idx)] = bits[:, pick]
    # the other columns grouped by a 64-bit key of their sampled bits (a sum
    # of products with odd multipliers, wrapping); a column whose key an
    # earlier one shares is confirmed in full against the earlier ones,
    # so a key that two other samples share only costs a comparison
    varied = numeric[~one]
    mult = np.arange(1, 2 * sample.shape[1], 2, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)
    key = (sample[~one].view(np.uint64) * mult).sum(axis=1, dtype=np.uint64)
    _, head, label = np.unique(key, return_index=True, return_inverse=True)
    owner = head[label]
    is_head = owner == np.arange(len(varied))

    def bits_of(p):
        return np.asarray(columns[varied[p]], float).view(np.int64)

    for p in np.flatnonzero(~is_head):
        same = np.flatnonzero(is_head[:p] & (label[:p] == label[p]))
        owner[p] = next((q for q in same if np.array_equal(bits_of(q), bits_of(p))), p)
        is_head[p] = owner[p] == p
    full = varied[is_head].tolist()
    cell = np.full(len(columns), -1, np.intp)
    cell[varied] = (np.cumsum(is_head) - 1)[owner]
    cell[numeric[one]] = len(full) + np.arange(np.count_nonzero(one))
    constants = digits.formatted(sample[one, 0].view(float))
    # runs from the mask of numeric columns: its edges bound each run
    edges = np.flatnonzero(np.diff(cell >= 0, prepend=False, append=False))
    runs, at = [], 0
    for lo, hi in zip(edges[0::2], edges[1::2]):
        runs += [*range(at, lo), cell[lo:hi]]
        at = hi
    return full, constants, runs + list(range(at, len(columns)))


def _csv_block(fh, ws, numbers, bands, start, stop):
    """Write CSV rows start to stop to fh, made in the workspace ws.

    numbers is the (k, rows) block of the columns that every block
    formats; they go through one formatted call.  The block is one
    (bytes per row, rows) array, and each entry (kind, end, data) of bands
    fills its byte rows, from where the one before ends:
    - "numbers": a run of numeric columns, data = (cells, at, slots).
      cells indexes each column's number in numbers, or a constant past
      them; the run's cells are taken with one index into the formatted
      slots, and the constants' slots (at: their places) broadcast.
    - "table": data = (slots, index), a column gathered from the slots of
      its values.
    - "text": data = the slots of a text column's values.
    """
    n, rows = numbers.shape
    slots = np.moveaxis(digits.formatted(numbers, ws), 0, 1)  # (n, NUMBER_SLOT, rows), contiguous
    block = ws.block((bands[-1][1], rows))
    begin = 0
    for kind, end, data in bands:
        band = block[begin:end]
        begin = end
        if kind == "numbers":
            cells, at, constants = data
            band = band.reshape(len(cells), digits.NUMBER_SLOT, rows)
            if n:  # a constant's cell takes other slots here and its own below
                np.take(slots, cells, axis=0, out=band, mode="clip")
            band[at] = constants
        elif kind == "table":
            np.take(data[0], data[1][start:stop], axis=1, out=band, mode="wrap")
        else:
            band[:-1] = data[:, start:stop]
            band[-1] = ord(",")
    block[-1] = ord("\n")
    text = ws.text(block.size)
    np.copyto(text.reshape(block.shape[::-1]), block.T)
    # translate drops the NULs of 64 KiB of the block at a time, so that
    # the bytes it takes and makes come from glibc's heap, below its
    # 128 KiB mmap threshold, and never fault in fresh pages
    for at in range(0, block.size, 1 << 16):
        fh.write(text[at:at + (1 << 16)].tobytes().translate(None, b"\0"))


def write_csv(path: Path, header: list[str], columns) -> None:
    """Write equal-length columns as CSV rows.

    A str or object column is written as str() of its values; any other
    column is converted to float and written as digits.fmt writes it ("%.17g").
    A column given as a tuple (values, index) is the floats values[index],
    and each of values is formatted once per call.  A 2-D numeric array
    stands for its rows, each one column.  The numbers are formatted by
    digits.formatted a block of rows at a time, and the bytes equal those
    of one fmt call per number.  Which numeric columns share bits, and which
    hold one number, is decided once for the file (_number_plan).  Every
    block is formatted in one digits.Workspace allocated for the call: a block
    copies the rows of the columns it formats into it, one copy per run
    of consecutive rows of an array given, whatever the column count.
    """
    arrays, tables, text = [], {}, []
    for c in columns:
        if isinstance(c, tuple):
            values, c = c
            tables[len(text)] = digits.formatted(np.asarray(values, float))
            c = np.asarray(c, np.intp)
            count = tables[len(text)].shape[1]
            if c.size and not -count <= c.min() <= c.max() < count:
                raise IndexError("a CSV column index is out of range")
        c = np.asarray(c)
        arrays.append(c if c.ndim == 2 else c[None])
        text += [c.dtype.kind in "OSU"] * len(arrays[-1])
    flat = [row for a in arrays for row in a]  # the columns, one view each
    origin = [(k, r) for k, a in enumerate(arrays) for r in range(len(a))]
    if len({len(c) for c in flat}) > 1:
        raise ValueError("CSV columns differ in length")
    rows = len(flat[0]) if flat else 0
    step = max(1, _BLOCK_VALUES // max(1, len(flat)))
    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\n").encode())
        if not rows:
            return
        numeric = [i for i, t in enumerate(text) if not t and i not in tables]
        full, constants, runs = _number_plan(flat, numeric)
        bands, width = [], 0
        for r in runs:
            if isinstance(r, np.ndarray):
                at = np.flatnonzero(r >= len(full))
                band = ("numbers", (r, at, constants.T[r[at] - len(full), :, None]))
                width += len(r) * digits.NUMBER_SLOT
            elif r in tables:
                band = ("table", (tables[r], flat[r]))
                width += digits.NUMBER_SLOT
            else:
                band = ("text", _text_slots(flat[r].tolist()))
                width += len(band[1]) + 1
            bands.append((band[0], width, band[1]))
        # (array, its rows, rows of numbers) for each run of consecutive
        # rows of an array in full; full is in column order, so each
        # array's columns of full are consecutive there
        copies = []
        for j, i in enumerate(full):
            k, r = origin[i]
            if copies and copies[-1][0] == k and copies[-1][1].stop == r:
                _, src, dst = copies[-1]
                copies[-1] = (k, slice(src.start, r + 1), slice(dst.start, j + 1))
            else:
                copies.append((k, slice(r, r + 1), slice(j, j + 1)))
        block_rows = min(step, rows)
        ws = digits.Workspace(len(full) * block_rows, width, block_rows)
        for start in range(0, rows, step):
            stop = min(start + step, rows)
            numbers = ws.numbers((len(full), stop - start))
            for k, src, dst in copies:
                np.copyto(numbers[dst], arrays[k][src, start:stop])
            _csv_block(fh, ws, numbers, bands, start, stop)


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
    mu = spectrum.closed_loop_spectrum(t)
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
    add("closed_form_residuals", t.rel_residual.max(initial=0.0), TOL_RES)
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
    mu = spectrum.closed_loop_spectrum(t)
    mu_plus, mu_minus = mu[:, 0], mu[:, 1]
    tr, det = spectrum.closed_loop_trace_det(t)
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
        npts = max(401, 20 * max(modes) + 1)  # odd, for Simpson weights
        diag = kernels.pde_residual_diagonal(t, npts)
        add("pde_residual_diagonal", np.abs(diag).max(), 1e-8)

    # assembled kernel symmetry at 100 pairs in [0, 1)^2, and boundary
    # values.  The pairs are the additive recurrence (R2 sequence) of the
    # powers 1/rho and 1/rho^2 of the plastic number rho, offset by the
    # seed: a formula of this module, so numpy.random is never loaded.
    k = np.arange(1, 101) + rc.seed
    pairs = np.outer(k, [0.75487766624669, 0.56984029099805]) % 1.0
    kf_a = kernels.assemble_P(t, pairs[:, 0], grid_x2=pairs[:, 1])
    kf_b = kernels.assemble_P(t, pairs[:, 1], grid_x2=pairs[:, 0])
    scale = 1.0 + np.abs(P).max(initial=0.0)
    i = np.arange(len(pairs))
    sym_dev = np.abs(kf_a.values[i, i] - kf_b.values[i, i].swapaxes(1, 2)).max() / scale
    add("kernel_symmetry", sym_dev, 1e-12)

    if cfg.boundary == Boundary.DIRICHLET:
        edge = kernels.assemble_P(
            t, np.array([0.0, 1.0]), grid_x2=np.linspace(0.0, 1.0, rc.grid_points))
        add("kernel_boundary_values", float(np.max(np.abs(edge.values))) / scale, 1e-12)

    # the other quadratic branch must not be nonnegative definite
    d = t[t.q11 * t.q22 - np.float_power(t.q12, 2) > 0]
    Pm = negative_root_matrices(cfg, d.n, d.q11, d.q12, d.q22)
    finite = np.isfinite(Pm).all(axis=(1, 2))
    neg_ok = (np.linalg.eigvalsh(Pm[finite]).min(axis=1) < 0).all()
    add("negative_root_not_psd", 0.0 if neg_ok else 1.0, 0.5)

    return {
        "boundary": cfg.boundary.value,
        "N": rc.N,
        "checks": checks,
        "warnings": list(kernels.summability_warnings(rc.family)),
        "passed": all(c["passed"] for c in checks),
    }


def cmd_verify(rc: RunConfig, out: Path) -> int:
    report = _verify_checks(rc)
    write_json(out / "verify.json", report)
    return 0 if report["passed"] else 1


def cmd_spectrum(rc: RunConfig, out: Path) -> int:
    t = solve_family(rc.wave, rc.family, rc.N)
    lam = spectrum.open_loop_spectrum(rc.wave, t.n)
    mu = spectrum.closed_loop_spectrum(t)
    write_csv(
        out / "spectrum.csv",
        ["n", "re_lambda_plus", "im_lambda_plus", "re_lambda_minus", "im_lambda_minus",
         "re_mu_plus", "im_mu_plus", "re_mu_minus", "im_mu_minus", "class"],
        [t.n, lam[:, 0].real, lam[:, 0].imag, lam[:, 1].real, lam[:, 1].imag,
         mu[:, 0].real, mu[:, 0].imag, mu[:, 1].real, mu[:, 1].imag,
         [spectrum.classify(m).value for m in mu.real.max(axis=1)]],
    )
    return 0


def _kernel_columns(field) -> list:
    """CSV columns x1, x2 and the (1, 1), (1, 2), (2, 1), (2, 2) entries of a
    kernel field, x2 varying fastest.

    The grid columns are gathered: write_csv formats each grid value once.
    """
    x1, x2 = field.grid_x1, field.grid_x2
    i1, i2 = np.arange(len(x1)), np.arange(len(x2))
    return [(x1, np.repeat(i1, len(x2))), (x2, np.tile(i2, len(x1))),
            *(field.values[..., a, b].ravel() for a, b in ((0, 0), (0, 1), (1, 0), (1, 1)))]


def _max_abs(field) -> float:
    """np.max(np.abs(field.values)), one (x1, x2) plane at a time: a maximum
    does not round, so the float is the same without a field-size temporary."""
    planes = field.values.transpose(2, 3, 0, 1).reshape(4, *field.values.shape[:2])
    scratch = np.empty(planes.shape[1:])
    return float(np.max([np.abs(plane, out=scratch).max() for plane in planes]))


def _write_kernel(path: Path, name: str, field) -> float:
    """Write a kernel field's CSV, with entry columns name11 ... name22, and
    return its largest absolute value.  The caller passes the field without
    keeping it, so it is freed when this returns."""
    entries = [f"{name}{a}{b}" for a, b in ("11", "12", "21", "22")]
    write_csv(path, ["x1", "x2", *entries], _kernel_columns(field))
    return _max_abs(field)


def cmd_kernels(rc: RunConfig, out: Path) -> int:
    cfg = rc.wave
    grid = np.linspace(0.0, 1.0, rc.grid_points)
    sols = solve_family(cfg, rc.family, rc.N)
    # one field at a time: each is written and freed before the next is assembled
    p_max = _write_kernel(out / "kernel_P.csv", "P", kernels.assemble_P(sols, grid))
    _write_kernel(out / "kernel_Q.csv", "Q",
                  kernels.assemble_Q(rc.family, grid, cfg.boundary, rc.N))
    kg = kernels.assemble_K(sols, grid)
    write_csv(out / "gain.csv", ["x", "K1", "K2"], [grid, kg.values[:, 0], kg.values[:, 1]])
    r_max = _write_kernel(out / "pde_residual.csv", "r", kernels.pde_residual(sols, grid))
    write_json(
        out / "kernels_summary.json",
        {
            "N": rc.N,
            "grid_points": rc.grid_points,
            "P_max_abs": p_max,
            "K_max_abs": float(np.max(np.abs(kg.values))),
            "Q_warnings": list(kernels.summability_warnings(rc.family)),
            "pde_residual_max_abs": r_max,
        },
    )
    return 0


def _initial_state(rc: RunConfig, sols: ModalTable) -> "sim.ModalState":
    modes = tuple(sols.n.tolist())
    if rc.sim.initial_modes is not None:
        given = np.reshape(rc.sim.initial_modes[: len(modes)], (-1, 2))
        a = np.zeros((len(modes), 2))
        a[: len(given)] = given
    else:
        # deterministic default: amplitude falling off quadratically in n
        inv_sq = 1.0 / np.arange(1, len(modes) + 1) ** 2
        a = np.stack([inv_sq, 0.5 * inv_sq], axis=1)
    return sim.ModalState(rc.wave.boundary, modes, a)


def _modal_rows(res: "sim.SimResult", stride: int) -> list:
    """The CSV columns of a modal run made with this stride: every stride-th
    row, the states read from the kept rows without a copy, as one 2-D
    array of a column per row."""
    u = res.u_record[::stride]
    states = res.states[:len(u)].reshape(len(u), -1)
    return [res.times[::stride], u, states.T, res.cost[::stride]]


def cmd_simulate(rc: RunConfig, out: Path) -> int:
    cfg = rc.wave
    sols = solve_family(cfg, rc.family, rc.N)
    if not len(sols):
        raise ConfigError("simulate needs at least one mode; increase N")
    if rc.sim.M < sim.MIN_FD_INTERVALS:
        raise ConfigError(f"sim.M must be >= {sim.MIN_FD_INTERVALS}, got {rc.sim.M}")
    if not 0 < rc.sim.cfl <= 1:
        raise ConfigError(f"sim.cfl must lie in (0, 1], got {rc.sim.cfl}")
    state0 = _initial_state(rc, sols)
    stride = rc.sim.csv_stride

    # Each run's CSV is written as soon as the run ends, and the run is
    # freed before the next one starts, so that no two runs' records are
    # alive at once.  The finite-difference run, the largest, goes first.
    x = np.linspace(0.0, 1.0, rc.sim.M + 1)
    prof = kernels.assemble_K(sols, x)
    z1, z2 = sim.reconstruct_field(state0, x)
    fd = sim.simulate_fd(
        cfg, prof, lambda _: z1, lambda _: z2,
        rc.sim.M, rc.sim.T, cfl=rc.sim.cfl, family=rc.family, N=rc.N, stride=stride,
    )
    # fd keeps every stride-th step, then the last one; the CSV takes the
    # strided rows and the terminal energy the last
    fd_rows = fd.states[: len(fd.times[::stride]), :, 0]
    write_csv(
        out / "sim_fd.csv",
        ["t", "u"] + [f"z1_{i}" for i in range(rc.sim.M + 1)] + ["cost"],
        [fd.times[::stride], fd.u_record[::stride], fd_rows.T, fd.cost[::stride]],
    )
    fd_cost = fd.total_cost
    terminal_energy_fd = sim.field_energy(x, fd.states[-1][:, 0], fd.states[-1][:, 1])
    del fd, fd_rows

    header = ["t", "u"] + [f"a{n}_{i}" for n in state0.modes for i in (1, 2)] + ["cost"]
    dec = sim.simulate_decoupled(sols, state0, rc.sim.T, rc.sim.dt, stride=stride)
    write_csv(out / "sim_decoupled.csv", header, _modal_rows(dec, stride))
    dec_cost = dec.total_cost
    del dec
    cou = sim.simulate_coupled_modal(sols, state0, rc.sim.T, rc.sim.dt, stride=stride)
    write_csv(out / "sim_coupled.csv", header, _modal_rows(cou, stride))
    cou_cost = cou.total_cost
    terminal_energy_coupled = sim.modal_energy(
        sim.ModalState(cfg.boundary, state0.modes, cou.states[-1]))
    del cou

    pred = sim.predicted_cost(state0, sols)
    summary = {
        "predicted_cost_per_mode": pred.per_mode,
        "predicted_cost_field": pred.field,
        "decoupled_cost": dec_cost,
        "coupled_cost": cou_cost,
        "fd_cost": fd_cost,
        "coupled_over_field_prediction": cou_cost / pred.field if pred.field else None,
        "fd_over_field_prediction": fd_cost / pred.field if pred.field else None,
        "initial_energy": sim.modal_energy(state0),
        "terminal_energy_coupled": terminal_energy_coupled,
        "terminal_energy_fd": terminal_energy_fd,
    }
    write_json(out / "simulate_summary.json", summary)
    return 0


def cmd_converge(rc: RunConfig, out: Path) -> int:
    if not isinstance(rc.family, PowerLawWeights):
        raise ConfigError("converge requires a power-law weight family")
    rep = kernels.convergence_report(
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
        rep = kernels.convergence_report(
            cfg, rc.family, rc.converge.N_list,
            fit_window=(rc.converge.fit_lo, rc.converge.fit_hi),
        )
        result[boundary.value] = {
            "fitted_exponents": {
                "P11": rep["P11"].fitted_exponent,
                "P12": kernels.decay_fit(rep.fit.n, rep.fit.p12),
                "P22": kernels.decay_fit(rep.fit.n, rep.fit.p22),
            },
            "thresholds": kernels.series_thresholds(boundary),
            "series": rep.as_dict()["series"],
        }
        t = solve_family(cfg, rc.family, rc.N)
        mu = spectrum.closed_loop_spectrum(t)
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
        OracleError, sim.SimulationError, ArithmeticError, ValueError, np.linalg.LinAlgError,
        MemoryError,
    ) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    # Move every object the imports made into the permanent generation, so
    # no collection during the command walks them again.  The imports are
    # this module's eager ones: numpy, model and riccati.  Only a script run
    # gets here: callers that import the library keep their collector and
    # their interpreter's exit as they are.
    gc.freeze()
    code = main()
    # Every artifact is written and closed inside main, so the interpreter's
    # teardown (module clean-up and the last collection) has nothing left to
    # do for the command: flush the standard streams and end the process.
    sys.stdout.flush()
    sys.stderr.flush()
    os._exit(code)
