"""Batch front door: config ingestion, command dispatch, file emission.

Exit codes: 0 success, 1 verification failure, 2 config error, 3 numerical
failure.  Output files are byte-deterministic for a fixed config: floats are
serialized with 17 significant digits, JSON keys are sorted, and the only
randomness (grid sampling in verify) is seeded from the config.
"""

import argparse
import json
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .kernels import (
    QUAD_WARNING,
    assemble_K,
    assemble_P,
    assemble_Q,
    basis_matrix,
    convergence_report,
    decay_fit,
    pde_residual,
    series_thresholds,
)
from .model import (
    Boundary,
    ModalWeight,
    PowerLawWeights,
    WaveConfig,
    modal_matrices,
    mode_range,
    projection_weight,
    wave_config_from_dict,
    weight_family_from_dict,
    weight_of,
)
from .quad import simpson_weights
from .riccati import (
    OracleError,
    input_gain_sq,
    modal_gain,
    negative_root_solution,
    oracle_solve_modes,
    residual_scale,
    solve_closed_form,
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
from .spectrum import closed_loop_eigs, open_loop_eigs


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
    try:
        wave = wave_config_from_dict(doc)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    N = int(doc.get("N", 64))
    if N < 0:
        raise ConfigError(f"N must be nonnegative, got {N}")
    seed = int(doc.get("seed", 0))
    if seed < 0:
        raise ConfigError(f"seed must be nonnegative, got {seed}")
    wdoc = doc["weights"]
    if not isinstance(wdoc, dict):
        raise ConfigError("weights must be an object")
    _check_keys(wdoc, {"type", "q", "r", "entries"}, "weights")
    try:
        family = weight_family_from_dict(wdoc, cutoff=N)
    except (ValueError, KeyError, TypeError) as exc:
        raise ConfigError(f"invalid weights: {exc}") from exc

    grid_points = int(doc.get("grid_points", 201))
    if grid_points < 3 or grid_points % 2 == 0:
        raise ConfigError(f"grid_points must be odd and >= 3, got {grid_points}")

    sdoc = doc.get("sim", {})
    _check_keys(sdoc, {"T", "dt", "M", "cfl", "csv_stride", "initial_modes"}, "sim")
    init = sdoc.get("initial_modes")
    if init is not None:
        init = tuple(tuple(float(v) for v in row) for row in init)
        if any(len(row) != 2 for row in init):
            raise ConfigError("sim.initial_modes must be a list of [a1, a2] pairs")
    sim = SimParams(
        T=float(sdoc.get("T", 5.0)),
        dt=float(sdoc.get("dt", 0.002)),
        M=int(sdoc.get("M", 400)),
        cfl=float(sdoc.get("cfl", 0.9)),
        csv_stride=int(sdoc.get("csv_stride", 10)),
        initial_modes=init,
    )
    if sim.T <= 0 or sim.dt <= 0 or sim.csv_stride < 1:
        raise ConfigError("sim.T, sim.dt must be positive and sim.csv_stride >= 1")

    cdoc = doc.get("converge", {})
    _check_keys(cdoc, {"N_list", "fit_lo", "fit_hi"}, "converge")
    conv = ConvergeParams(
        N_list=tuple(int(v) for v in cdoc.get("N_list", (16, 32, 64, 128))),
        fit_lo=int(cdoc.get("fit_lo", 50)),
        fit_hi=int(cdoc.get("fit_hi", 500)),
    )
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


def write_csv(path: Path, header: list[str], rows) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(v if isinstance(v, str) else fmt(v) for v in row))
    path.write_text("\n".join(lines) + "\n")


def _jsonable(obj):
    if isinstance(obj, float):
        return float(fmt(obj))
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.floating):
        return float(fmt(float(obj)))
    if isinstance(obj, np.integer):
        return int(obj)
    return obj


def write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(_jsonable(obj), sort_keys=True, indent=2) + "\n")


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def cmd_synth(rc: RunConfig, out: Path) -> int:
    """Per-mode table: Riccati entries, gains, leading closed-loop eigenvalue."""
    rows = []
    for n in mode_range(rc.wave.boundary, rc.N):
        w = weight_of(rc.family, n, rc.wave.boundary)
        sol = solve_closed_form(rc.wave, w)
        g = modal_gain(rc.wave, sol)
        pair = closed_loop_eigs(rc.wave, sol)
        rel = sol.max_residual / residual_scale(w, sol.matrix)
        rows.append(
            (n, sol.p11, sol.p12, sol.p22, g.k1, g.k2, pair.mu_plus.real, pair.mu_plus.imag, rel)
        )
    write_csv(
        out / "modes.csv",
        ["n", "P11", "P12", "P22", "K1", "K2", "ReMu", "ImMu", "residual_max"],
        rows,
    )
    return 0


def _verify_checks(rc: RunConfig, corrupt=None) -> dict:
    cfg = rc.wave
    modes = list(mode_range(cfg.boundary, rc.N))
    weights = [weight_of(rc.family, n, cfg.boundary) for n in modes]
    sols = [solve_closed_form(cfg, w) for w in weights]
    if corrupt is not None:
        sols = corrupt(sols)

    checks = []

    def add(name, measured, tolerance, larger_is_worse=True):
        passed = measured <= tolerance if larger_is_worse else measured >= tolerance
        checks.append(
            {"name": name, "measured": float(measured), "tolerance": float(tolerance),
             "passed": bool(passed)}
        )

    # modal ARE residuals and positive semidefiniteness
    rel_res = max(
        (s.max_residual / residual_scale(w, s.matrix) for s, w in zip(sols, weights)),
        default=0.0,
    )
    add("closed_form_residuals", rel_res, 1e-10)
    min_eig = min((s.min_eigenvalue for s in sols), default=0.0)
    add("psd_min_eigenvalue", min_eig, -1e-12, larger_is_worse=False)

    # gain recomputation K = -R^-1 G' P
    gain_dev = 0.0
    for s in sols:
        _, G = modal_matrices(cfg, s.n)
        k = modal_gain(cfg, s).row
        k_ref = -(G / cfg.R) @ s.matrix
        gain_dev = max(gain_dev, float(np.max(np.abs(k - k_ref)) / (1.0 + np.max(np.abs(k)))))
    add("gain_consistency", gain_dev, 1e-14)

    # oracle agreement
    if modes:
        ns = np.array(modes)
        o11, o12, o22 = oracle_solve_modes(
            cfg, ns,
            np.array([w.q11 for w in weights]),
            np.array([w.q12 for w in weights]),
            np.array([w.q22 for w in weights]),
        )
        dev = 0.0
        for i, s in enumerate(sols):
            scale = 1.0 + max(abs(s.p11), abs(s.p12), abs(s.p22))
            dev = max(
                dev,
                abs(s.p11 - o11[i]) / scale,
                abs(s.p12 - o12[i]) / scale,
                abs(s.p22 - o22[i]) / scale,
            )
        add("oracle_match", dev, 1e-8)

    # closed-loop trace/determinant identities and conjugacy
    id_dev = 0.0
    conj_dev = 0.0
    for s in sols:
        pair = closed_loop_eigs(cfg, s)
        c = float(input_gain_sq(cfg, s.n))
        tr = -(cfg.alpha + c * s.p22)
        det = (s.n * np.pi) ** 2 + c * s.p12
        id_dev = max(
            id_dev,
            abs((pair.mu_plus + pair.mu_minus).real - tr) / max(1.0, abs(tr)),
            abs(pair.mu_plus.imag + pair.mu_minus.imag),
            abs((pair.mu_plus * pair.mu_minus).real - det) / max(1.0, abs(det)),
        )
        if tr * tr - 4.0 * det < 0:
            conj_dev = max(conj_dev, abs(pair.mu_minus - pair.mu_plus.conjugate()))
    add("trace_det_identities", id_dev, 1e-10)
    add("mu_conjugacy", conj_dev, 1e-12)

    # kernel Riccati PDE: diagonal basis coefficients of the residual fields
    if modes:
        npts = max(401, 20 * max(modes) + 1)
        if npts % 2 == 0:
            npts += 1
        grid = np.linspace(0.0, 1.0, npts)
        fields = pde_residual(cfg, sols, rc.family, grid)
        wq = simpson_weights(npts, grid[1] - grid[0])
        phi = basis_matrix(cfg.boundary, modes, grid)
        pw = np.array([projection_weight(cfg.boundary, n) for n in modes])
        proj = (phi * wq) / pw[:, None]
        diag_dev = 0.0
        for f in (fields.r11, fields.r12, fields.r21, fields.r22):
            coeffs = proj @ f @ proj.T
            diag_dev = max(diag_dev, float(np.max(np.abs(np.diag(coeffs)))))
        add("pde_residual_diagonal", diag_dev, 1e-8)

    # assembled kernel symmetry at seeded random pairs, and boundary values
    rng = np.random.default_rng(rc.seed)
    pairs = rng.random((100, 2))
    kf_a = assemble_P(sols, pairs[:, 0], cfg.boundary, grid_x2=pairs[:, 1])
    kf_b = assemble_P(sols, pairs[:, 1], cfg.boundary, grid_x2=pairs[:, 0])
    sym_dev = 0.0
    scale = 1.0 + max((abs(v) for s in sols for v in (s.p11, s.p12, s.p22)), default=0.0)
    for i in range(len(pairs)):
        sym_dev = max(
            sym_dev,
            float(np.max(np.abs(kf_a.values[i, i] - kf_b.values[i, i].T))) / scale,
        )
    add("kernel_symmetry", sym_dev, 1e-12)

    if cfg.boundary == Boundary.DIRICHLET:
        edge = assemble_P(sols, np.array([0.0, 1.0]), cfg.boundary,
                          grid_x2=np.linspace(0.0, 1.0, rc.grid_points))
        add("kernel_boundary_values", float(np.max(np.abs(edge.values))) / scale, 1e-12)

    # the other quadratic branch must not be nonnegative definite
    neg_ok = True
    for w in weights:
        if w.q11 * w.q22 - w.q12**2 > 0:
            Pm = negative_root_solution(cfg, w)
            eigs = (
                np.linalg.eigvalsh(Pm) if np.all(np.isfinite(Pm)) else np.array([-1.0])
            )
            neg_ok = neg_ok and (eigs.min() < 0)
    checks.append(
        {"name": "negative_root_not_psd", "measured": 0.0 if neg_ok else 1.0,
         "tolerance": 0.5, "passed": bool(neg_ok)}
    )

    warnings = []
    if isinstance(rc.family, PowerLawWeights) and rc.family.r <= 1.0:
        warnings.append(QUAD_WARNING)

    return {
        "boundary": cfg.boundary.value,
        "N": rc.N,
        "checks": checks,
        "warnings": warnings,
        "passed": all(c["passed"] for c in checks),
    }


def cmd_verify(rc: RunConfig, out: Path, corrupt=None) -> int:
    report = _verify_checks(rc, corrupt=corrupt)
    write_json(out / "verify.json", report)
    return 0 if report["passed"] else 1


def cmd_spectrum(rc: RunConfig, out: Path) -> int:
    rows = []
    for n in mode_range(rc.wave.boundary, rc.N):
        w = weight_of(rc.family, n, rc.wave.boundary)
        sol = solve_closed_form(rc.wave, w)
        lam_p, lam_m = open_loop_eigs(rc.wave, n)
        pair = closed_loop_eigs(rc.wave, sol)
        rows.append(
            (n, lam_p.real, lam_p.imag, lam_m.real, lam_m.imag,
             pair.mu_plus.real, pair.mu_plus.imag, pair.mu_minus.real, pair.mu_minus.imag,
             pair.stability.value)
        )
    write_csv(
        out / "spectrum.csv",
        ["n", "re_lambda_plus", "im_lambda_plus", "re_lambda_minus", "im_lambda_minus",
         "re_mu_plus", "im_mu_plus", "re_mu_minus", "im_mu_minus", "class"],
        rows,
    )
    return 0


def _kernel_rows(field):
    rows = []
    for i, x1 in enumerate(field.grid_x1):
        for j, x2 in enumerate(field.grid_x2):
            v = field.values[i, j]
            rows.append((x1, x2, v[0, 0], v[0, 1], v[1, 0], v[1, 1]))
    return rows


def cmd_kernels(rc: RunConfig, out: Path) -> int:
    cfg = rc.wave
    grid = np.linspace(0.0, 1.0, rc.grid_points)
    sols = solve_family(cfg, rc.family, rc.N)
    kp = assemble_P(sols, grid, cfg.boundary)
    kq = assemble_Q(rc.family, grid, cfg.boundary, rc.N)
    kg = assemble_K(sols, cfg, grid)
    fields = pde_residual(cfg, sols, rc.family, grid)

    write_csv(out / "kernel_P.csv", ["x1", "x2", "P11", "P12", "P21", "P22"], _kernel_rows(kp))
    write_csv(out / "kernel_Q.csv", ["x1", "x2", "Q11", "Q12", "Q21", "Q22"], _kernel_rows(kq))
    write_csv(out / "gain.csv", ["x", "K1", "K2"],
              [(x, kg.values[i, 0], kg.values[i, 1]) for i, x in enumerate(grid)])
    write_csv(
        out / "pde_residual.csv",
        ["x1", "x2", "r11", "r12", "r21", "r22"],
        [
            (x1, x2, fields.r11[i, j], fields.r12[i, j], fields.r21[i, j], fields.r22[i, j])
            for i, x1 in enumerate(grid)
            for j, x2 in enumerate(grid)
        ],
    )
    write_json(
        out / "kernels_summary.json",
        {
            "N": rc.N,
            "grid_points": rc.grid_points,
            "P_max_abs": float(np.max(np.abs(kp.values))),
            "K_max_abs": float(np.max(np.abs(kg.values))),
            "Q_warnings": list(kq.warnings),
            "pde_residual_max_abs": fields.max_abs(),
        },
    )
    return 0


def _initial_state(rc: RunConfig) -> ModalState:
    modes = tuple(mode_range(rc.wave.boundary, rc.N))
    if rc.sim.initial_modes is not None:
        a = np.zeros((len(modes), 2))
        for i, row in enumerate(rc.sim.initial_modes[: len(modes)]):
            a[i] = row
    else:
        # deterministic default: amplitude falling off quadratically in n
        a = np.zeros((len(modes), 2))
        for i, n in enumerate(modes):
            a[i, 0] = 1.0 / (i + 1) ** 2
            a[i, 1] = 0.5 / (i + 1) ** 2
    return ModalState(rc.wave.boundary, modes, a)


def cmd_simulate(rc: RunConfig, out: Path) -> int:
    cfg = rc.wave
    if not list(mode_range(cfg.boundary, rc.N)):
        raise ConfigError("simulate needs at least one mode; increase N")
    if rc.sim.M < MIN_FD_INTERVALS:
        raise ConfigError(f"sim.M must be >= {MIN_FD_INTERVALS}, got {rc.sim.M}")
    if not 0 < rc.sim.cfl <= 1:
        raise ConfigError(f"sim.cfl must lie in (0, 1], got {rc.sim.cfl}")
    sols = solve_family(cfg, rc.family, rc.N)
    gains = [modal_gain(cfg, s) for s in sols]
    state0 = _initial_state(rc)

    dec = simulate_decoupled(cfg, rc.family, sols, state0, rc.sim.T, rc.sim.dt)
    cou = simulate_coupled_modal(cfg, rc.family, gains, state0, rc.N, rc.sim.T, rc.sim.dt)

    x = np.linspace(0.0, 1.0, rc.sim.M + 1)
    prof = assemble_K(sols, cfg, x)
    f0 = reconstruct_field(state0, x)
    fd = simulate_fd(
        cfg, prof, lambda xx: np.interp(xx, x, f0.z1), lambda xx: np.interp(xx, x, f0.z2),
        rc.sim.M, rc.sim.T, cfl=rc.sim.cfl, family=rc.family, N=rc.N,
    )

    stride = rc.sim.csv_stride
    for name, res in (("decoupled", dec), ("coupled", cou)):
        rows = []
        for k in range(0, len(res.times), stride):
            u = res.u_record[k]
            uval = float(np.sum(u)) if np.ndim(u) else float(u)
            rows.append((res.times[k], uval, *res.states[k].reshape(-1), res.cost[k]))
        header = ["t", "u"]
        for n in state0.modes:
            header += [f"a{n}_1", f"a{n}_2"]
        header += ["cost"]
        write_csv(out / f"sim_{name}.csv", header, rows)

    rows = []
    for k in range(0, len(fd.times), stride):
        rows.append((fd.times[k], fd.u_record[k], *fd.states[k, :, 0], fd.cost[k]))
    write_csv(
        out / "sim_fd.csv",
        ["t", "u"] + [f"z1_{i}" for i in range(rc.sim.M + 1)] + ["cost"],
        rows,
    )

    pred = predicted_cost(state0, sols)
    final_modal = ModalState(cfg.boundary, state0.modes, cou.states[-1], t=cou.times[-1])
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
    damping_rows = []
    for boundary in (Boundary.DIRICHLET, Boundary.NEUMANN):
        cfg = WaveConfig(boundary, alpha=rc.wave.alpha, beta=rc.wave.beta, R=rc.wave.R)
        rep = convergence_report(
            cfg, rc.family, rc.converge.N_list,
            fit_window=(rc.converge.fit_lo, rc.converge.fit_hi),
        )
        ns = np.arange(rc.converge.fit_lo, rc.converge.fit_hi + 1)
        comp = {"P12": [], "P22": [], "P11": []}
        for n in ns:
            amp = rc.family.q / float(n) ** rc.family.r
            s = solve_closed_form(cfg, ModalWeight(int(n), amp, 0.0, amp))
            comp["P12"].append(s.p12)
            comp["P22"].append(s.p22)
            comp["P11"].append(s.p11)
        exps = {k: decay_fit(ns, v) for k, v in comp.items()}
        result[boundary.value] = {
            "fitted_exponents": exps,
            "thresholds": series_thresholds(boundary),
            "series": rep.as_dict()["series"],
        }
        for n in mode_range(boundary, rc.N):
            w = weight_of(rc.family, n, boundary)
            pair = closed_loop_eigs(cfg, solve_closed_form(cfg, w))
            damping_rows.append((boundary.value, n, abs(pair.abscissa)))
    write_json(out / "compare_boundary.json", result)
    write_csv(out / "damping_profiles.csv", ["boundary", "n", "abs_re_mu"], damping_rows)
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
    except (
        OracleError, SimulationError, ArithmeticError, ValueError, np.linalg.LinAlgError,
        MemoryError,
    ) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
