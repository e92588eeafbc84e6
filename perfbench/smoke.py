"""Smoke test of the benchmark itself.

Run from the repository root:  python3 -m pytest -q perfbench/smoke.py

Every workload runs once untraced and once traced at tiny sizes through the
same pass, artifact checks and hashing as a benchmark run.  The self-time
and record-file code is checked on a synthetic span tree, and the pass
loop on a fake clock.
"""

import json
from pathlib import Path

import pytest

import run
import spans
from workloads import COMMANDS, WORKLOADS, write_configs

HERE = Path(__file__).resolve().parent


def test_self_times_on_synthetic_tree():
    #   0 root   [0, 10]
    #   1  a     [1, 3]      children of root overlap, and the last one
    #   2   a1   [1.5, 2.5]  runs past the root's end
    #   3  b     [2, 5]
    #   4  c     [9, 12]
    start = [0.0, 1.0, 1.5, 2.0, 9.0]
    end = [10.0, 3.0, 2.5, 5.0, 12.0]
    parent = [-1, 0, 1, 0, 0]
    got = spans.self_times(start, end, parent, [0, 1, 3, 4])
    assert got == {0: 10.0 - 4.0 - 1.0, 1: 2.0 - 1.0, 3: 3.0, 4: 3.0}


def test_record_file_round_trip(tmp_path):
    rec = spans.Recorder("w/0/synth")
    cmd = rec.enter(rec.name_id("cli.cmd_synth"))
    for _ in range(3):
        rec.leave(rec.enter(rec.name_id("riccati.solve_closed_form")), False)
    rec.leave(rec.enter(rec.name_id("model.validate_mode")), True)
    rec.leave(cmd, False)
    rec.count("cli.bytes_written", 123)
    rec.save(tmp_path / "r.npz")

    loaded = spans.load(tmp_path / "r.npz")
    assert str(loaded["command"]) == "w/0/synth"
    assert loaded["parent"].tolist() == [-1, 0, 0, 0, 0]
    totals = spans.command_totals(loaded)
    assert totals["riccati.solve_closed_form_calls"] == 3
    assert totals["model.errors"] == 1 and totals["cli.errors"] == 0
    assert totals["cli.bytes_written"] == 123
    children = sum(loaded["end"][1:] - loaded["start"][1:])
    assert totals["cli.self_s"] == pytest.approx(totals["cli.cmd_synth_s"] - children)


def test_benchmark_json_matches_the_harness():
    doc = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(WORKLOADS)
    assert [w["why"] for w in doc["workloads"]] == [w.why for w in WORKLOADS.values()]
    assert [(m["name"], m["unit"]) for m in doc["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in doc["per_layer"]] == spans.PER_LAYER


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_workload_at_tiny_sizes(workload, tmp_path):
    configs = write_configs(WORKLOADS[workload], 7, tmp_path / "config", tiny=True)
    deadline = run.time.monotonic() + 120
    plain, calibration = run.calibrated_pass(workload, configs, 0, deadline, tmp_path)
    assert len(calibration) == len(run.CALIBRATE_AFTER) and min(calibration) > 0
    traced = run.run_pass(workload, configs, 1, True, deadline, tmp_path)
    assert [s.command for s in plain] == [s.command for s in traced] == list(COMMANDS)
    for s in plain + traced:
        assert s.problems == [], (s.command, s.problems)
    assert [s.hashes for s in traced] == [s.hashes for s in plain]
    metrics = spans.layer_metrics([s.layers for s in traced], 0.0)
    assert set(metrics) == {name for name, _ in spans.PER_LAYER}
    for name in ("import.wavelqr_s", "cli.write_csv_s", "cli.self_s", "kernels.assemble_P_s",
                 "sim.fd_stepping_s", "riccati.solve_closed_form_calls", "cli.bytes_written"):
        assert metrics[name] > 0, name
    assert all(metrics[f"{layer}.errors"] == 0 for layer in spans.LAYERS)


def test_rounds_end_within_the_time_given(monkeypatch):
    """Rounds repeat while one of the mean length so far still fits, so
    nothing starts that would end past the time given."""
    clock = [0.0]

    def one_round(i):
        clock[0] += 3.0 if i == 0 else 2.0
        return i

    monkeypatch.setattr(run.time, "perf_counter", lambda: clock[0])
    monkeypatch.setattr(run.time, "monotonic", lambda: clock[0])
    assert run.rounds_within(15.0, 1e9, one_round) == [0, 1, 2, 3, 4, 5]
    assert clock[0] == 13.0
    clock[0] = 0.0
    assert run.rounds_within(15.0, 4.0, one_round) == [0]
