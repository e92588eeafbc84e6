"""Artifact checks made from outside the program, and artifact hashing.

Each check reads the files one command wrote and returns a list of
problems; an empty list means the artifact is correct.
"""

import csv
import hashlib
import json
import math
from pathlib import Path

ARTIFACTS = {
    "synth": ("modes.csv",),
    "verify": ("verify.json",),
    "spectrum": ("spectrum.csv",),
    "kernels": ("kernel_P.csv", "kernel_Q.csv", "gain.csv", "pde_residual.csv", "kernels_summary.json"),
    "simulate": ("sim_decoupled.csv", "sim_coupled.csv", "sim_fd.csv", "simulate_summary.json"),
    "converge": ("converge.json",),
    "compare-boundary": ("compare_boundary.json", "damping_profiles.csv"),
}

RESIDUAL_MAX = 1e-10
EXPONENT_TOL = 1e-9
# the test suite's tolerance between FD and coupled-modal cost
FD_COST_RTOL = 1e-3


def _rows(path: Path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _numbers(obj):
    """Every number in a JSON document, at any depth."""
    if isinstance(obj, bool) or obj is None or isinstance(obj, str):
        return
    if isinstance(obj, (int, float)):
        yield obj
    elif isinstance(obj, dict):
        for v in obj.values():
            yield from _numbers(v)
    elif isinstance(obj, list):
        for v in obj:
            yield from _numbers(v)


def _all_finite(doc, what):
    return [] if all(math.isfinite(v) for v in _numbers(doc)) else [f"{what} holds a non-finite value"]


def check_synth(out: Path):
    problems = []
    for row in _rows(out / "modes.csv"):
        if not float(row["residual_max"]) <= RESIDUAL_MAX:
            problems.append(f"mode {row['n']}: residual_max {row['residual_max']} > {RESIDUAL_MAX}")
        if not float(row["ReMu"]) < 0:
            problems.append(f"mode {row['n']}: ReMu {row['ReMu']} is not negative")
    return problems


def check_verify(out: Path):
    doc = json.loads((out / "verify.json").read_text())
    failed = [c["name"] for c in doc["checks"] if not c["passed"]]
    return [] if doc["passed"] is True else [f"verify.json not passed: {failed}"]


def check_spectrum(out: Path):
    return [f"mode {r['n']}: class {r['class']}" for r in _rows(out / "spectrum.csv") if r["class"] != "stable"]


def check_kernels(out: Path):
    return _all_finite(json.loads((out / "kernels_summary.json").read_text()), "kernels_summary.json")


def check_simulate(out: Path):
    doc = json.loads((out / "simulate_summary.json").read_text())
    problems = _all_finite(doc, "simulate_summary.json")
    if any(v is None for v in doc.values()):
        problems.append("simulate_summary.json holds a null value")
    fd, coupled = doc["fd_cost"], doc["coupled_cost"]
    if not abs(fd - coupled) <= FD_COST_RTOL * abs(coupled):
        problems.append(f"fd_cost {fd} differs from coupled_cost {coupled} by more than {FD_COST_RTOL:g} relative")
    return problems


def check_converge(out: Path):
    doc = json.loads((out / "converge.json").read_text())
    r = doc["r"]
    problems = []
    for s in doc["series"]:
        if s["name"] == "Q" and not abs(s["fitted_exponent"] + r) <= EXPONENT_TOL:
            problems.append(f"Q exponent {s['fitted_exponent']} is not -r = {-r}")
        expect = "convergent" if r > s["threshold"] else "divergent"
        if s["verdict"] != expect:
            problems.append(f"{s['name']}: verdict {s['verdict']}, r={r} against threshold {s['threshold']}")
    return problems


def check_compare_boundary(out: Path):
    doc = json.loads((out / "compare_boundary.json").read_text())
    problems = _all_finite(doc, "compare_boundary.json")
    if sorted(doc) != ["dirichlet", "neumann"]:
        problems.append(f"compare_boundary.json covers {sorted(doc)}")
    return problems


CHECKS = {
    "synth": check_synth,
    "verify": check_verify,
    "spectrum": check_spectrum,
    "kernels": check_kernels,
    "simulate": check_simulate,
    "converge": check_converge,
    "compare-boundary": check_compare_boundary,
}


def check(command: str, out: Path) -> list:
    missing = [name for name in ARTIFACTS[command] if not (out / name).is_file()]
    if missing:
        return [f"missing artifacts {missing}"]
    try:
        return CHECKS[command](out)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return [f"unreadable artifact: {exc!r}"]


def hashes(command: str, out: Path) -> dict:
    """sha256 of every artifact the command writes."""
    result = {}
    for name in ARTIFACTS[command]:
        h = hashlib.sha256()
        with open(out / name, "rb") as fh:
            for block in iter(lambda: fh.read(1 << 20), b""):
                h.update(block)
        result[name] = h.hexdigest()
    return result
