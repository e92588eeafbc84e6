"""Workload table and seeded config generation.

Every workload runs all seven CLI commands, so every end-to-end metric
exists on every workload; what differs is where each workload puts its size.
Each command gets its own generated config file, so a workload can cap one
command (``verify``) or run two commands at other sizes (``kernels`` and
``simulate`` on ``modal-sweep``) without touching the others.
"""

import json
import random
from dataclasses import dataclass, field
from pathlib import Path

COMMANDS = ("synth", "verify", "spectrum", "kernels", "simulate", "converge", "compare-boundary")

# verify builds four residual fields on a (20N+1)^2 grid: 0.2 GB at N=128,
# 0.8 GB at N=256, 3.4 GB at N=512, and a MemoryError (exit 1) long before
# the N the CLI accepts.  The benchmark reports that limit instead of
# probing it, and keeps verify near a second so a run holds several samples.
VERIFY_N_CAP = 128

# Dirichlet, alpha=0, beta=R=1, power-law q=1, r=5, T=5; the sizes of
# demos/config_example.json.
BASE = {
    "boundary": "dirichlet",
    "alpha": 0.0,
    "beta": 1.0,
    "R": 1.0,
    "weights": {"type": "power", "q": 1.0, "r": 5.0},
    "N": 32,
    "grid_points": 201,
    "sim": {"T": 5.0, "dt": 0.002, "M": 400, "cfl": 0.9, "csv_stride": 10},
    "converge": {"N_list": [16, 32, 64, 128], "fit_lo": 50, "fit_hi": 500},
}

# kernels and simulate on modal-sweep: small, since that workload is their
# predicted-no-change control, and each of its passes should stay short
SIDE_SIZES = {"N": 16, "grid_points": 101, "sim": {"M": 400}}


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    doc: dict  # merged over BASE
    per_command: dict = field(default_factory=dict)  # command -> doc merged over `doc`


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "reference",
            "example-config sizes; cold start is most of each command, so it shows "
            "start-up changes and no change from assembly or FD-cost rewrites",
            {},
        ),
        Workload(
            "fine-grid",
            "N=208 > grid_points=201 and M=800: einsum assembly off its factored path, "
            "kernel CSV output and the dense O(steps*M^2) FD cost",
            {"N": 208, "grid_points": 201, "sim": {"M": 800}},
        ),
        Workload(
            "modal-sweep",
            "Neumann, alpha=0.2, N=2048, fit window to 2000: per-mode scalar Python "
            "in the modal commands; kernels and simulate run small (N=16)",
            {
                "boundary": "neumann",
                "alpha": 0.2,
                "N": 2048,
                "converge": {"fit_lo": 50, "fit_hi": 2000},
            },
            {"kernels": SIDE_SIZES, "simulate": SIDE_SIZES},
        ),
    )
}


def merge(base: dict, over: dict) -> dict:
    """Recursive dict merge; `over` wins."""
    out = dict(base)
    for key, val in over.items():
        out[key] = merge(out[key], val) if isinstance(val, dict) and isinstance(out.get(key), dict) else val
    return out


def initial_modes(seed: int, count: int) -> list:
    """Seeded factors in [0.5, 1.5) on the CLI's default 1/(i+1)^2 envelope."""
    rng = random.Random(seed)
    return [
        [rng.uniform(0.5, 1.5) / (i + 1) ** 2, 0.5 * rng.uniform(0.5, 1.5) / (i + 1) ** 2]
        for i in range(count)
    ]


# small enough that every command runs in about a second, with the workload's
# boundary and damping kept.  The simulation keeps T=5 and M=400: on shorter
# horizons or coarser grids fd_cost and coupled_cost differ by more than the
# 1e-3 the simulate check allows.
TINY = {
    "N": 8,
    "grid_points": 21,
    "sim": {"M": 400},
    "converge": {"N_list": [4, 8], "fit_lo": 5, "fit_hi": 50},
}


def command_config(workload: Workload, command: str, seed: int, tiny: bool = False) -> dict:
    doc = merge(merge(BASE, workload.doc), workload.per_command.get(command, {}))
    if tiny:
        doc = merge(doc, TINY)
    doc["seed"] = seed
    if command == "verify":
        doc["N"] = min(doc["N"], VERIFY_N_CAP)
    if command == "simulate":
        count = doc["N"] + (1 if doc["boundary"] == "neumann" else 0)
        doc["sim"] = dict(doc["sim"], initial_modes=initial_modes(seed, count))
    return doc


def write_configs(workload: Workload, seed: int, dest: Path, tiny: bool = False) -> dict:
    """Write one config per command into `dest`; return command -> path."""
    dest.mkdir(parents=True, exist_ok=True)
    paths = {}
    for command in COMMANDS:
        path = dest / f"{command}.json"
        doc = command_config(workload, command, seed, tiny)
        path.write_text(json.dumps(doc, indent=1, sort_keys=True))
        paths[command] = path
    return paths
