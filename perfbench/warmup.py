"""Warm-up pass and environment probe, run once per set-up in a fresh process.

Usage: python warmup.py OUT_DIR CONFIG...

Runs every command at the tiny sizes of the given configs in this one
process, which compiles wavelqr's bytecode and pulls the interpreter,
numpy, scipy and wavelqr into the file cache, then prints one JSON line
describing what the command processes import.
"""

import ctypes
import glob
import json
import os
import platform
import sys
from pathlib import Path


def _blas():
    import numpy as np

    deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    blas = dict(deps.get("blas", {}))
    threads = None
    libdir = Path(np.__file__).parent.parent / "numpy.libs"
    for lib in glob.glob(str(libdir / "*openblas*.so*")):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                threads = int(fn())
                break
    return {"name": blas.get("name"), "version": blas.get("version"), "threads": threads}


def main(argv) -> int:
    out, *configs = argv
    import numpy
    import scipy
    import wavelqr
    import wavelqr.cli

    for cfg in configs:
        command = Path(cfg).stem
        rc = wavelqr.cli.main([command, "--config", cfg, "--out", out])
        if rc != 0:
            print(f"warm-up {command} exited {rc}", file=sys.stderr)
            return 1
    print(json.dumps({
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": _blas(),
        "wavelqr_file": wavelqr.__file__,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
    }, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
