"""Span and counter records, and the per-layer metrics derived from them.

One traced command process writes one record file.  A span record is

    name     "<layer>.<function>", the layer being the wavelqr module
             (cli, riccati, spectrum, model, kernels, sim, quad)
    start    time.perf_counter() seconds at entry
    end      the same clock at exit
    parent   index of the enclosing span in the same file, -1 at the root
    command  command id "<workload>/<index>/<command>", shared by the file
    error    true when the call raised

and a counter record is (name, value, command).  On disk a file is a
numpy .npz of columns: ``name`` (an index into ``names``), ``start``,
``end``, ``parent``, ``error`` (one entry per span), ``names``, ``command``
(a scalar), ``counter_name`` and ``counter_value``.

This module imports only the standard library at import time, so the traced
child can load it before timing ``import wavelqr``.
"""

import time
from array import array

LAYERS = ("cli", "riccati", "spectrum", "model", "kernels", "sim", "quad")

# (metric, unit) in output order; BENCHMARK.json's per_layer list matches it
PER_LAYER = [
    ("import.wavelqr_s", "s"),
    ("cli.write_csv_s", "s"),
    ("cli.write_json_s", "s"),
    ("cli.bytes_written", "count"),
    ("cli.self_s", "s"),
    ("riccati.solve_closed_form_calls", "count"),
    ("riccati.solve_closed_form_s", "s"),
    ("riccati.modal_gain_calls", "count"),
    ("riccati.modal_gain_s", "s"),
    ("model.weight_of_calls", "count"),
    ("model.weight_of_s", "s"),
    ("spectrum.closed_loop_eigs_calls", "count"),
    ("spectrum.closed_loop_eigs_s", "s"),
    ("spectrum.open_loop_eigs_s", "s"),
    ("riccati.solve_family_s", "s"),
    ("spectrum.coupled_loop_parts_s", "s"),
    ("riccati.oracle_solve_modes_s", "s"),
    ("riccati.negative_root_solution_s", "s"),
    ("kernels.pde_residual_s", "s"),
    ("kernels.assemble_P_s", "s"),
    ("kernels.assemble_Q_s", "s"),
    ("kernels.assemble_gflop", "GFLOP"),
    ("kernels.assemble_gflops", "GFLOP/s"),
    ("kernels.assemble_K_s", "s"),
    ("kernels.basis_matrix_s", "s"),
    ("kernels.convergence_report_s", "s"),
    ("kernels.decay_fit_s", "s"),
    ("sim.simulate_decoupled_s", "s"),
    ("sim.simulate_coupled_modal_s", "s"),
    ("sim.simulate_fd_s", "s"),
    ("sim.fd_stepping_s", "s"),
    ("sim.fd_cost_s", "s"),
    ("sim.fd_steps", "count"),
    ("sim.fd_traj_mb", "MiB"),
    ("sim.reconstruct_field_s", "s"),
    ("sim.predicted_cost_s", "s"),
    ("quad.running_quadrature_s", "s"),
] + [(f"{layer}.errors", "count") for layer in LAYERS] + [("trace.overhead_s", "s")]


class Recorder:
    """In-memory spans and counters of one command process.

    Spans are kept in typed columns rather than one object per span: the
    garbage collector does not scan them, which keeps the cost of a span
    flat over the hundreds of thousands one modal command records.
    """

    def __init__(self, command: str):
        self.command = command
        self.names = []
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.error = array("b")
        self.stack = [-1]
        self.counters = {}
        self.muted = False

    def name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def enter(self, name_id: int) -> int:
        idx = len(self.name)
        self.name.append(name_id)
        self.parent.append(self.stack[-1])
        self.end.append(0.0)
        self.error.append(0)
        self.stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def leave(self, idx: int, error: bool) -> None:
        self.end[idx] = time.perf_counter()
        self.error[idx] = error
        self.stack.pop()

    def count(self, name: str, value: float) -> None:
        self.counters[name] = self.counters.get(name, 0.0) + value

    def save(self, path) -> None:
        import numpy as np

        np.savez(
            path,
            name=np.frombuffer(self.name, dtype=np.intc),
            names=np.array(self.names, dtype=str),
            start=np.frombuffer(self.start, dtype=float),
            end=np.frombuffer(self.end, dtype=float),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            error=np.frombuffer(self.error, dtype=np.int8).astype(bool),
            command=np.array(self.command),
            counter_name=np.array(list(self.counters), dtype=str),
            counter_value=np.array(list(self.counters.values()), dtype=float),
        )


def self_times(start, end, parent, ids) -> dict:
    """Self time of each span in `ids`: its duration minus the part of its
    interval covered by its child spans (overlapping children count once)."""
    wanted = set(ids)
    children = {i: [] for i in wanted}
    for j, p in enumerate(parent):
        if p in wanted:
            children[p].append((max(start[j], start[p]), min(end[j], end[p])))
    out = {}
    for i in wanted:
        covered, reach = 0.0, start[i]
        for s, e in sorted(children[i]):
            s = max(s, reach)
            if e > s:
                covered += e - s
                reach = e
        out[i] = (end[i] - start[i]) - covered
    return out


def command_totals(rec) -> dict:
    """Per-name call counts and inclusive seconds, per-layer errors, cli self
    time and the counters of one record file (a mapping of its columns)."""
    table = rec["names"].tolist()
    names = [table[i] for i in rec["name"].tolist()]
    start, end, parent = rec["start"].tolist(), rec["end"].tolist(), rec["parent"].tolist()
    totals = {}
    for name, s, e, err in zip(names, start, end, rec["error"].tolist()):
        t = totals.setdefault(name, [0, 0.0, 0])
        t[0] += 1
        t[1] += e - s
        t[2] += err
    out = {}
    for name, (calls, secs, errors) in totals.items():
        out[f"{name}_calls"] = calls
        out[f"{name}_s"] = secs
        layer = name.split(".", 1)[0]
        out[f"{layer}.errors"] = out.get(f"{layer}.errors", 0) + errors
    cmd_ids = [i for i, n in enumerate(names) if n.startswith("cli.cmd_")]
    out["cli.self_s"] = sum(self_times(start, end, parent, cmd_ids).values())
    for name, value in zip(rec["counter_name"].tolist(), rec["counter_value"].tolist()):
        out[name] = out.get(name, 0.0) + value
    return out


def load(path) -> dict:
    import numpy as np

    with np.load(path) as z:
        return {k: z[k] for k in z.files}


def layer_metrics(command_totals_list, overhead_s: float) -> dict:
    """PER_LAYER metric values of one traced pass, from the command_totals
    of its commands."""
    totals = {}
    for one in command_totals_list:
        for key, val in one.items():
            totals[key] = totals.get(key, 0.0) + val

    def get(key):
        return float(totals.get(key, 0.0))

    assemble_s = get("kernels.assemble_P_s") + get("kernels.assemble_Q_s")
    gflop = get("kernels.assemble_flop") / 1e9
    derived = {
        "kernels.assemble_gflop": gflop,
        "kernels.assemble_gflops": gflop / assemble_s if assemble_s > 0 else 0.0,
        "sim.fd_cost_s": get("sim.simulate_fd_s") - get("sim.fd_stepping_s"),
        "sim.fd_traj_mb": get("sim.fd_traj_bytes") / 2**20,
        "trace.overhead_s": overhead_s,
    }
    return {name: derived[name] if name in derived else get(name) for name, _ in PER_LAYER}
