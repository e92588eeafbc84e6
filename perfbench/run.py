"""Closed-loop benchmark of the wavelqr CLI.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One client runs the workload's seven commands one at a time, each as a fresh
``python -m wavelqr.cli`` process against this checkout's ``src/``, for about
S seconds.  Every artifact is checked and hashed.  With ``--trace 0`` the
last stdout line carries the end-to-end metrics (per-command means); with
``--trace 1`` untraced and traced passes alternate (traced commands run
through shim.py) and it carries the per-layer metrics.  See README.md.
"""

import argparse
import json
import os
import statistics
import shutil
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import checks
import spans
from workloads import COMMANDS, WORKLOADS, write_configs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

SETUP_REPEATS = 5
# calibrate.py's wall time on a host of nominal speed: every timing is
# reported at that speed (README.md, "Host-speed calibration")
CALIBRATION_NOMINAL_S = 0.33
# an untraced pass runs calibrate.py after these commands
CALIBRATE_AFTER = ("kernels", "compare-boundary")
# every run must end within 180 s; no command starts after this
RUN_BUDGET_S = 165.0

END_TO_END = [("wall_s", "s")] + [
    (f"{c.replace('-', '_')}_s", "s") for c in COMMANDS
] + [("peak_rss_mb", "MiB"), ("setup_s", "s")]


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def run_child(argv, deadline: float, log) -> tuple:
    """Run one process to completion; return (exit code, wall s, peak RSS MiB).

    The peak RSS is this child's own (os.wait4), not the cumulative maximum
    over all children.  A child still running at `deadline` is killed.
    """
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdout=subprocess.DEVNULL, stderr=log)
    timer = threading.Timer(max(deadline - time.monotonic(), 0.0), proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
        timer.join()
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


@dataclass
class Sample:
    """One command execution and what its artifacts showed."""

    command: str
    traced: bool
    wall: float  # s
    rss: float  # MiB
    problems: list
    hashes: dict  # file -> sha256, when the artifacts are correct
    layers: dict  # spans.command_totals of a traced run, else empty


def run_command(workload: str, configs: dict, command: str, tag: str, traced: bool,
                deadline: float, work: Path) -> Sample:
    out = work / "out"
    out.mkdir(parents=True, exist_ok=True)
    for name in checks.ARTIFACTS[command]:
        (out / name).unlink(missing_ok=True)
    record = work / "record.npz"
    record.unlink(missing_ok=True)
    cli = [command, "--config", str(configs[command]), "--out", str(out)]
    if traced:
        argv = [sys.executable, str(HERE / "shim.py"), str(record), f"{workload}/{tag}", "--", *cli]
    else:
        argv = [sys.executable, "-m", "wavelqr.cli", *cli]
    with open(work / "stderr.log", "ab") as log:
        rc, wall, rss = run_child(argv, deadline, log)
    problems = checks.check(command, out) if rc == 0 else [f"exit code {rc}"]
    hashes = {} if problems else checks.hashes(command, out)
    layers = spans.command_totals(spans.load(record)) if traced and record.is_file() else {}
    return Sample(command, traced, wall, rss, problems, hashes, layers)


def run_pass(workload: str, configs: dict, index: int, traced: bool, deadline: float, work: Path) -> list:
    """The workload's seven commands once, in order."""
    return [run_command(workload, configs, c, f"{index}/{c}", traced, deadline, work)
            for c in COMMANDS if time.monotonic() < deadline]


def calibrate(deadline: float, work: Path) -> float:
    """Wall seconds of one calibrate.py process."""
    argv = [sys.executable, str(HERE / "calibrate.py")]
    with open(work / "stderr.log", "ab") as log:
        rc, wall, _ = run_child(argv, deadline, log)
    if rc != 0:
        raise RuntimeError(f"calibrate.py exited {rc}")
    return wall


def calibrated_pass(workload: str, configs: dict, index: int, deadline: float, work: Path) -> tuple:
    """One untraced pass, with calibrate.py run within it; return
    (samples, calibration wall times)."""
    samples, calibration = [], []
    for c in COMMANDS:
        if time.monotonic() >= deadline:
            break
        samples.append(run_command(workload, configs, c, f"{index}/{c}", False, deadline, work))
        if c in CALIBRATE_AFTER:
            calibration.append(calibrate(deadline, work))
    return samples, calibration


def rounds_within(seconds: float, deadline: float, one_round) -> list:
    """Call one_round(i) for i = 0, 1, ... and return the results.

    After the first round, a round starts only if a round of the mean length
    so far still ends within `seconds` and before `deadline`.
    """
    rounds = []
    t0 = time.perf_counter()
    while True:
        rounds.append(one_round(len(rounds)))
        elapsed = time.perf_counter() - t0
        mean = elapsed / len(rounds)
        if elapsed + mean > seconds or time.monotonic() + mean > deadline:
            return rounds


def setup(workload: str, seed: int, deadline: float, work: Path) -> tuple:
    """Generate the configs and make one untimed warm-up pass at tiny sizes;
    return (configs, seconds, environment probe)."""
    t0 = time.perf_counter()
    wl = WORKLOADS[workload]
    configs = write_configs(wl, seed, work / "config")
    tiny = write_configs(wl, seed, work / "config-tiny", tiny=True)
    warm_out = work / "warm-out"
    shutil.rmtree(warm_out, ignore_errors=True)
    argv = [sys.executable, str(HERE / "warmup.py"), str(warm_out), *map(str, tiny.values())]
    proc = subprocess.run(argv, cwd=ROOT, env=child_env(), capture_output=True, text=True,
                          timeout=max(deadline - time.monotonic(), 1.0))
    if proc.returncode != 0:
        raise RuntimeError(f"warm-up failed (exit {proc.returncode}): {proc.stderr.strip()[-2000:]}")
    probe = json.loads(proc.stdout.strip().splitlines()[-1])
    return configs, time.perf_counter() - t0, probe


def git_sha():
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() or None


def median(values):
    return statistics.median(values) if values else 0.0


def mean(values):
    return statistics.mean(values) if values else 0.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + RUN_BUDGET_S

    if not (SRC / "wavelqr" / "cli.py").is_file():
        print(f"no wavelqr sources under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2

    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)

    setups = []
    for _ in range(SETUP_REPEATS):
        configs, secs, probe = setup(args.workload, args.seed, deadline, work)
        setups.append(secs)
    expected = SRC / "wavelqr" / "__init__.py"
    if Path(probe["wavelqr_file"]).resolve() != expected.resolve():
        print(f"children imported {probe['wavelqr_file']}, not {expected}", file=sys.stderr)
        return 2

    calibration = []
    if args.trace:
        # Untraced and traced passes alternate, so the tracing overhead is
        # measured within the run.
        rounds = rounds_within(args.seconds, deadline, lambda i: [
            run_pass(args.workload, configs, 2 * i + k, bool(k), deadline, work) for k in (0, 1)])
        plain = [r[0] for r in rounds if len(r[0]) == len(COMMANDS)]
        traced = [r[1] for r in rounds if len(r[1]) == len(COMMANDS)]
        samples = [s for r in rounds for p in r for s in p]
        overhead = (median([sum(s.wall for s in p) for p in traced])
                    - median([sum(s.wall for s in p) for p in plain]))
        per_pass = [spans.layer_metrics([s.layers for s in p], overhead) for p in traced]
        table = spans.PER_LAYER
        values = {name: median([m[name] for m in per_pass]) for name, _ in table}
        counts = {name: f"{len(per_pass)} traced passes" for name, _ in table}
        complete = bool(plain and traced)
    else:
        rounds = rounds_within(args.seconds, deadline,
                               lambda i: calibrated_pass(args.workload, configs, i, deadline, work))
        passes = [p for p, _ in rounds]
        calibration = [c for _, cal in rounds for c in cal]
        scale = CALIBRATION_NOMINAL_S / mean(calibration)
        samples = [s for p in passes for s in p]
        walls = {c: [s.wall for s in samples if s.command == c] for c in COMMANDS}
        # The mean, not the median: this host switches between a fast and a
        # slow state every few seconds, and the median of a handful of
        # samples jumps between the two where the mean moves smoothly
        # (README.md, "Steadiness").
        names = {c: f"{c.replace('-', '_')}_s" for c in COMMANDS}
        raw = {names[c]: mean(walls[c]) for c in COMMANDS}
        # one pass is one run of each command: its mean wall time is the sum
        # of the per-command means, its peak the largest median peak
        raw["wall_s"] = sum(raw[names[c]] for c in COMMANDS)
        raw["setup_s"] = median(setups)
        values = {name: secs * scale for name, secs in raw.items()}
        values["peak_rss_mb"] = max(median([s.rss for s in samples if s.command == c]) for c in COMMANDS)
        counts = {names[c]: f"mean of {len(walls[c])} samples" for c in COMMANDS}
        counts["wall_s"] = f"{len(passes)} passes"
        counts["setup_s"] = f"median of {SETUP_REPEATS} set-ups"
        counts = {name: f"{raw[name]:.4g} s unscaled, {how}" for name, how in counts.items()}
        counts["peak_rss_mb"] = "command medians"
        table = END_TO_END
        complete = all(walls.values())

    first_hashes = {}  # command -> hashes of its first correct run
    failures = []
    for i, s in enumerate(samples):
        if not s.problems and first_hashes.setdefault(s.command, s.hashes) != s.hashes:
            s.problems.append("artifact bytes differ from the first repetition")
        if s.problems:
            failures.append(f"sample {i} {'traced ' if s.traced else ''}{s.command}: {'; '.join(s.problems)}")

    for name, unit in table:
        print(f"{args.workload:12s} {name:34s} {values[name]:14.6g} {unit:8s} from {counts[name]}")
    for line in failures:
        print(f"FAILED {line}")
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "samples": {c: [round(s.wall, 4) for s in samples if s.command == c and not s.traced]
                    for c in COMMANDS},
        "setup_repeats": SETUP_REPEATS,
        "setup_s": setups,
        "calibration_s": calibration,
        "git_sha": git_sha(),
        "environment": probe,
        "hashes": first_hashes,
    }
    print(json.dumps({"record": record}, sort_keys=True))
    shutil.rmtree(work / "out", ignore_errors=True)
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in table}
    print(json.dumps({"correct": not failures and complete, "attempted": len(samples),
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
