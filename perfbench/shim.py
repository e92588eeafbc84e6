"""Run one wavelqr CLI command with every public function traced.

Usage: python shim.py RECORD_FILE COMMAND_ID -- <wavelqr cli arguments>

The shim times ``import wavelqr.cli``, then wraps each public function
defined in cli, riccati, spectrum, model, kernels, sim and quad.  The
wrapper replaces the function in its defining module, in every wavelqr
namespace that imported it by name and in module-level dispatch tables
(cli.COMMANDS), so calls between modules and within a module are both
seen.  Nothing under src/ changes.  The records go to RECORD_FILE when the
command returns (format: spans.py).
"""

import functools
import os
import sys
import time

# only small stdlib modules load before the timed import; inspect, which
# wavelqr's own imports pull in, is imported after it
from spans import LAYERS, Recorder

# The per-float formatter runs once per CSV value (millions of calls on
# fine-grid); a span per float would cost more than the work it times, so
# its time stays inside the write_csv span.
UNTRACED = {"cli.fmt"}


def _wrap(rec: Recorder, name: str, fn, after=None):
    import inspect

    bind = inspect.signature(fn).bind if after else None
    name_id = rec.name_id(name)

    def traced(*args, **kwargs):
        if rec.muted:
            return fn(*args, **kwargs)
        idx = rec.enter(name_id)
        error = True
        try:
            result = fn(*args, **kwargs)
            error = False
        finally:
            rec.leave(idx, error)
        if after is not None:
            after(rec, bind(*args, **kwargs).arguments, result, fn)
        return result

    return functools.wraps(fn)(traced)


def _after_write(rec, args, result, fn):
    rec.count("cli.bytes_written", os.path.getsize(args["path"]))


def _after_assemble_P(rec, args, result, fn):
    g1, g2 = result.values.shape[:2]
    rec.count("kernels.assemble_flop", 8.0 * len(args["sols"]) * g1 * g2)


def _after_assemble_Q(rec, args, result, fn):
    from wavelqr.model import mode_range

    g1, g2 = result.values.shape[:2]
    k = len(mode_range.__wrapped__(args["boundary"], args["N"]))
    rec.count("kernels.assemble_flop", 8.0 * k * g1 * g2)


def _after_simulate_fd(rec, args, result, fn):
    steps = len(result.times) - 1
    rec.count("sim.fd_steps", steps)
    rec.count("sim.fd_traj_bytes", 2.0 * (steps + 1) * (args["M"] + 1) * 8)
    if args.get("family") is None:
        return
    # stepping alone: the same call without the cost quadrature; the calls
    # it makes are not recorded, so no layer counts them twice
    probe = dict(args, family=None)
    idx = rec.enter(rec.name_id("sim.fd_stepping"))
    rec.muted = True
    try:
        fn(**probe)
    finally:
        rec.muted = False
        rec.leave(idx, False)


AFTER = {
    "cli.write_csv": _after_write,
    "cli.write_json": _after_write,
    "kernels.assemble_P": _after_assemble_P,
    "kernels.assemble_Q": _after_assemble_Q,
    "sim.simulate_fd": _after_simulate_fd,
}


def install(rec: Recorder) -> int:
    """Wrap the public functions of every layer; return how many."""
    import inspect

    wrapped = {}
    for layer in LAYERS:
        mod = sys.modules[f"wavelqr.{layer}"]
        for attr, obj in list(vars(mod).items()):
            name = f"{layer}.{attr}"
            if (
                inspect.isfunction(obj)
                and obj.__module__ == mod.__name__
                and not attr.startswith("_")
                and name not in UNTRACED
            ):
                wrapped[obj] = _wrap(rec, name, obj, AFTER.get(name))
    for modname, mod in list(sys.modules.items()):
        if modname != "wavelqr" and not modname.startswith("wavelqr."):
            continue
        for attr, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj in wrapped:
                setattr(mod, attr, wrapped[obj])
            elif isinstance(obj, dict):
                for key, val in list(obj.items()):
                    if inspect.isfunction(val) and val in wrapped:
                        obj[key] = wrapped[val]
    return len(wrapped)


def main(argv) -> int:
    record_file, command_id, sep, *cli_args = argv
    if sep != "--":
        raise SystemExit("usage: shim.py RECORD_FILE COMMAND_ID -- <cli arguments>")
    rec = Recorder(command_id)
    t0 = time.perf_counter()
    import wavelqr.cli

    rec.count("import.wavelqr_s", time.perf_counter() - t0)
    install(rec)
    try:
        return wavelqr.cli.main(cli_args)
    finally:
        rec.save(record_file)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
