import json
import math
import os
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import wavelqr
from wavelqr import cli, digits, sim, spectrum
from wavelqr.cli import (
    COMMANDS,
    ConfigError,
    ConvergeParams,
    SimParams,
    cmd_verify,
    load_config,
    main,
    parse_config,
    write_csv,
)
from wavelqr.digits import fmt
from wavelqr.riccati import OracleError


def base_config(**overrides):
    doc = {
        "boundary": "dirichlet",
        "alpha": 0.0,
        "beta": 1.0,
        "R": 1.0,
        "weights": {"type": "power", "q": 1.0, "r": 5.0},
        "N": 12,
        "grid_points": 101,
        "seed": 3,
        "sim": {"T": 1.0, "dt": 0.005, "M": 100, "cfl": 0.9, "csv_stride": 25},
        "converge": {"N_list": [8, 16, 32], "fit_lo": 50, "fit_hi": 120},
    }
    doc.update(overrides)
    return doc


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


def read_csv(path):
    lines = path.read_text().strip().split("\n")
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


class TestConfigParsing:
    def test_valid_config(self, tmp_path):
        rc = load_config(write_config(tmp_path, base_config()))
        assert rc.N == 12 and rc.wave.boundary.value == "dirichlet"
        assert rc.sim.M == 100 and rc.converge.N_list == (8, 16, 32)

    def test_unknown_top_level_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown keys"):
            parse_config(base_config(extra=1))

    def test_unknown_sim_key_rejected(self):
        doc = base_config()
        doc["sim"]["typo"] = 2
        with pytest.raises(ConfigError, match="unknown keys in sim"):
            parse_config(doc)

    @pytest.mark.parametrize("section", ["sim", "converge"])
    @pytest.mark.parametrize("value", [None, 5, 2.5, True, [1], ["T"], [], "T", ""],
                             ids=repr)
    def test_section_that_is_not_an_object_rejected(self, tmp_path, capsys, section, value):
        # the type is checked before the keys: a list is not read as key
        # names, and null or a number does not fail on iteration
        with pytest.raises(ConfigError, match=f"^{section} must be an object$"):
            parse_config(base_config(**{section: value}))
        path = write_config(tmp_path, base_config(**{section: value}))
        assert main(["synth", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == f"config error: {section} must be an object\n"

    def test_defaults_come_from_the_records(self):
        doc = base_config()
        del doc["sim"], doc["converge"]
        rc = parse_config(doc)
        assert (rc.sim, rc.converge) == (SimParams(), ConvergeParams())

    def test_unknown_weights_key_rejected(self):
        doc = base_config()
        doc["weights"]["shape"] = "flat"
        with pytest.raises(ConfigError, match="unknown keys in weights"):
            parse_config(doc)

    def test_unknown_weights_entry_key_rejected(self):
        doc = base_config(
            weights={"type": "list",
                     "entries": [{"n": 1, "Q11": 1.0, "Q22": 1.0, "Q33": 1.0}]}
        )
        with pytest.raises(ConfigError, match="unknown keys in weights entry"):
            parse_config(doc)

    def test_missing_required(self):
        doc = base_config()
        del doc["weights"]
        with pytest.raises(ConfigError, match="weights"):
            parse_config(doc)

    def test_bad_boundary(self):
        with pytest.raises(ConfigError, match="boundary"):
            parse_config(base_config(boundary="robin"))

    def test_bad_grid_points(self):
        with pytest.raises(ConfigError, match="grid_points"):
            parse_config(base_config(grid_points=100))

    def test_negative_seed_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="seed"):
            parse_config(base_config(seed=-1))
        path = write_config(tmp_path, base_config(seed=-1))
        assert main(["verify", "--config", str(path), "--out", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize("path,value", [
        (("N",), "abc"),
        (("N",), None),
        (("sim", "initial_modes"), [["a", 1.0]]),
        (("sim", "initial_modes"), [[1.0, 2.0], 3.0]),
        (("converge", "N_list"), [8, -1]),
        (("N",), 2.7),
        (("N",), float("inf")),
        (("grid_points",), 21.9),
        (("seed",), 1.5),
        (("sim", "M"), 400.5),
        (("sim", "csv_stride"), 2.5),
        (("converge", "N_list"), [8, 16.5]),
        (("converge", "fit_lo"), 50.5),
        (("converge", "fit_hi"), 120.25),
        (("weights",), {"type": "list", "entries": [{"n": 1.5, "Q11": 1.0, "Q22": 1.0}]}),
        (("N",), True),
        (("N",), False),
        (("alpha",), True),
        (("alpha",), False),
        (("seed",), True),
        (("seed",), False),
        (("weights", "q"), True),
        (("weights", "q"), False),
    ], ids=["N-abc", "N-null", "initial_modes-str", "initial_modes-scalar", "N_list-negative",
            "N-fractional", "N-inf", "grid_points-fractional", "seed-fractional", "M-fractional",
            "csv_stride-fractional", "N_list-fractional", "fit_lo-fractional",
            "fit_hi-fractional", "entry_n-fractional", "N-true", "N-false", "alpha-true",
            "alpha-false", "seed-true", "seed-false", "q-true", "q-false"])
    def test_bad_field_value_is_config_error(self, tmp_path, path, value):
        doc = base_config()
        *parents, key = path
        target = doc
        for p in parents:
            target = target[p]
        target[key] = value
        with pytest.raises(ConfigError):
            parse_config(doc)
        cfg = write_config(tmp_path, doc)
        assert main(["converge", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity", "1e999"])
    @pytest.mark.parametrize("path", [
        ("alpha",), ("beta",), ("R",), ("weights", "q"), ("weights", "r"),
        ("weights", "entries", 0, "Q11"), ("sim", "T"), ("sim", "dt"),
    ], ids=["alpha", "beta", "R", "weights.q", "weights.r", "entry_Q11", "sim.T", "sim.dt"])
    def test_non_finite_number_is_config_error(self, tmp_path, capsys, path, literal):
        """json accepts NaN, Infinity and -Infinity, and reads 1e999 as inf."""
        doc = base_config()
        if "entries" in path:
            doc["weights"] = {"type": "list", "entries": [{"n": 1, "Q11": 1.0, "Q22": 1.0}]}
        *parents, key = path
        target = doc
        for p in parents:
            target = target[p]
        target[key] = "VALUE"
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(doc).replace('"VALUE"', literal))
        for command in ("synth", "verify", "kernels"):
            assert main([command, "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
            assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("boundary,entries", [
        ("dirichlet", [{"n": 0, "Q11": 1.0, "Q22": 1.0}]),
        ("neumann", [{"n": -2, "Q11": 1.0, "Q22": 1.0}]),
        ("neumann", [{"n": 2, "Q11": 1.0, "Q22": 1.0}, {"n": 2, "Q11": 3.0, "Q22": 1.0}]),
    ], ids=["dirichlet-n0", "negative-n", "duplicate-n"])
    def test_inapplicable_weight_entry_is_config_error(self, tmp_path, capsys, boundary, entries):
        doc = base_config(boundary=boundary, weights={"type": "list", "entries": entries})
        with pytest.raises(ConfigError):
            parse_config(doc)
        cfg = write_config(tmp_path, doc)
        assert main(["synth", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert "config error" in capsys.readouterr().err

    def test_weight_entry_above_cutoff_is_kept(self, tmp_path):
        # README documents entries above N as legal: they weigh nothing
        entries = [{"n": 1, "Q11": 1.0, "Q22": 1.0}, {"n": 40, "Q11": 1.0, "Q22": 1.0}]
        doc = base_config(weights={"type": "list", "entries": entries})
        assert sorted(parse_config(doc).family.entries) == [1, 40]
        cfg = write_config(tmp_path, doc)
        assert main(["synth", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0

    def test_integral_floats_accepted(self):
        doc = base_config(
            N=12.0, grid_points=101.0, seed=3.0,
            sim={"T": 1.0, "dt": 0.005, "M": 100.0, "cfl": 0.9, "csv_stride": 25.0},
            converge={"N_list": [8.0, 16, 32], "fit_lo": 50.0, "fit_hi": 120.0},
        )
        rc = parse_config(doc)
        assert rc == parse_config(base_config())
        ints = (rc.N, rc.grid_points, rc.seed, rc.sim.M, rc.sim.csv_stride, *rc.converge.N_list)
        assert all(type(v) is int for v in ints)
        listed = parse_config(base_config(
            weights={"type": "list", "entries": [{"n": 2.0, "Q11": 1.0, "Q22": 1.0}]}
        ))
        assert list(listed.family.entries) == [2]

    def test_bad_beta(self):
        with pytest.raises(ConfigError, match="beta"):
            parse_config(base_config(beta=0.0))

    def test_list_weights(self):
        doc = base_config(
            weights={"type": "list",
                     "entries": [{"n": 1, "Q11": 1.0, "Q12": 0.1, "Q22": 2.0}]}
        )
        rc = parse_config(doc)
        from wavelqr.model import weight_arrays

        q11, q12, q22 = weight_arrays(rc.family, [1])
        assert (q11[0], q12[0], q22[0]) == (1.0, 0.1, 2.0)

    def test_malformed_json_file(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        with pytest.raises(ConfigError, match="JSON"):
            load_config(path)

    def test_main_maps_config_error_to_2(self, tmp_path):
        path = write_config(tmp_path, base_config(extra=1))
        assert main(["synth", "--config", str(path)]) == 2

    def test_main_missing_file_is_2(self, tmp_path):
        assert main(["synth", "--config", str(tmp_path / "absent.json")]) == 2

    def test_unwritable_out_is_2(self, tmp_path, capsys):
        path = write_config(tmp_path, base_config())
        not_a_dir = tmp_path / "file"
        not_a_dir.write_text("")
        (tmp_path / "o" / "modes.csv").mkdir(parents=True)  # an artifact path taken
        for out in (not_a_dir, tmp_path / "o"):
            assert main(["synth", "--config", str(path), "--out", str(out)]) == 2
            err = capsys.readouterr().err
            assert err.startswith("config error: cannot write output: ") and "Traceback" not in err


class TestSynth:
    def test_row_count_and_residuals(self, tmp_path):
        path = write_config(tmp_path, base_config())
        assert main(["synth", "--config", str(path), "--out", str(tmp_path / "o")]) == 0
        header, rows = read_csv(tmp_path / "o" / "modes.csv")
        assert header == ["n", "P11", "P12", "P22", "K1", "K2", "ReMu", "ImMu", "residual_max"]
        assert len(rows) == 12
        assert all(float(r[-1]) <= 1e-10 for r in rows)

    def test_default_cutoff_sixty_four_rows(self, tmp_path):
        path = write_config(tmp_path, base_config(N=64))
        assert main(["synth", "--config", str(path), "--out", str(tmp_path / "o")]) == 0
        _, rows = read_csv(tmp_path / "o" / "modes.csv")
        assert len(rows) == 64
        assert all(float(r[-1]) <= 1e-10 for r in rows)

    def test_neumann_includes_mean_mode(self, tmp_path):
        path = write_config(tmp_path, base_config(boundary="neumann", N=4))
        main(["synth", "--config", str(path), "--out", str(tmp_path / "o")])
        _, rows = read_csv(tmp_path / "o" / "modes.csv")
        assert [r[0] for r in rows] == ["0", "1", "2", "3", "4"]

    def test_empty_table_for_zero_cutoff(self, tmp_path):
        path = write_config(tmp_path, base_config(N=0))
        assert main(["synth", "--config", str(path), "--out", str(tmp_path / "o")]) == 0
        _, rows = read_csv(tmp_path / "o" / "modes.csv")
        assert rows == []

    def test_zero_weights_give_zero_columns(self, tmp_path):
        doc = base_config(weights={"type": "list", "entries": []}, N=5)
        path = write_config(tmp_path, doc)
        main(["synth", "--config", str(path), "--out", str(tmp_path / "o")])
        _, rows = read_csv(tmp_path / "o" / "modes.csv")
        assert len(rows) == 5
        for r in rows:
            assert all(float(v) == 0.0 for v in r[1:6])


class TestVerify:
    def test_reference_config_passes(self, tmp_path):
        path = write_config(tmp_path, base_config())
        assert main(["verify", "--config", str(path), "--out", str(tmp_path / "o")]) == 0
        report = json.loads((tmp_path / "o" / "verify.json").read_text())
        assert report["passed"] is True
        assert all(c["passed"] for c in report["checks"])

    def test_corrupted_solution_fails_residual_check(self, tmp_path, monkeypatch):
        rc = load_config(write_config(tmp_path, base_config()))
        (tmp_path / "o").mkdir()
        solve = cli.solve_family

        def corrupted(*args):
            table = solve(*args)
            p11 = table.p11.copy()
            p11[0] += 0.5
            return table._replace(p11=p11)

        monkeypatch.setattr(cli, "solve_family", corrupted)
        code = cmd_verify(rc, tmp_path / "o")
        assert code == 1
        report = json.loads((tmp_path / "o" / "verify.json").read_text())
        assert report["passed"] is False
        failed = {c["name"] for c in report["checks"] if not c["passed"]}
        assert "oracle_match" in failed or "closed_form_residuals" in failed
        assert "pde_residual_diagonal" in failed

    def test_residual_tolerance_is_riccati_bound(self, tmp_path, monkeypatch):
        # the closed_form_residuals check takes its tolerance from riccati.TOL_RES
        rc = load_config(write_config(tmp_path, base_config()))
        (tmp_path / "o").mkdir()
        monkeypatch.setattr(cli, "TOL_RES", 0.0)
        assert cmd_verify(rc, tmp_path / "o") == 1
        report = json.loads((tmp_path / "o" / "verify.json").read_text())
        check = next(c for c in report["checks"] if c["name"] == "closed_form_residuals")
        assert (check["tolerance"], check["passed"]) == (0.0, False)

    def test_unobserved_undamped_modes_are_numerical_failure(self, tmp_path, capsys):
        # no weights at alpha = 0: no mode has a stabilizing solution
        doc = base_config(weights={"type": "list", "entries": []})
        path = write_config(tmp_path, doc)
        assert main(["verify", "--config", str(path), "--out", str(tmp_path / "o")]) == 3
        assert "no stabilizing solution for mode 1" in capsys.readouterr().err

    def test_large_N_runs_in_bounded_memory(self, tmp_path):
        # the residual check used to build four (20N + 1)^2 fields: 3.4 GB here
        path = write_config(tmp_path, base_config(N=512))
        tracemalloc.start()
        try:
            code = main(["verify", "--config", str(path), "--out", str(tmp_path / "o")])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 0
        assert peak < 150 * 2**20

    def test_non_summable_family_warns(self, tmp_path):
        doc = base_config(weights={"type": "power", "q": 1.0, "r": 1.0})
        path = write_config(tmp_path, doc)
        assert main(["verify", "--config", str(path), "--out", str(tmp_path / "o")]) == 0
        report = json.loads((tmp_path / "o" / "verify.json").read_text())
        assert any("summable" in w for w in report["warnings"])

    def test_neumann_reference_passes(self, tmp_path):
        path = write_config(tmp_path, base_config(boundary="neumann", alpha=0.2))
        assert main(["verify", "--config", str(path), "--out", str(tmp_path / "o")]) == 0


def small_configs():
    """Three configs on which every command runs in a fraction of a second."""
    sizes = dict(
        sim={"T": 0.5, "dt": 0.01, "M": 50, "cfl": 0.9, "csv_stride": 10},
        converge={"N_list": [8, 16], "fit_lo": 50, "fit_hi": 80},
    )
    return {
        "dirichlet": base_config(N=6, grid_points=21, **sizes),
        # more modes than grid points, and the str columns of spectrum.csv
        # and damping_profiles.csv
        "neumann": base_config(boundary="neumann", alpha=0.2, N=24, grid_points=21, **sizes),
        # a finite-difference run of 890 steps, several blocks, whose last
        # step is not a multiple of the CSV stride
        "neumann-long": base_config(
            boundary="neumann", alpha=0.1, N=4, grid_points=21,
            sim={"T": 25.0, "dt": 0.05, "M": 32, "cfl": 0.9, "csv_stride": 7},
            converge=sizes["converge"],
        ),
    }


def run_python(*args):
    """A fresh interpreter that imports wavelqr from the tree under test."""
    src = str(Path(wavelqr.__file__).resolve().parents[1])
    return subprocess.run(
        [sys.executable, *args], env=dict(os.environ, PYTHONPATH=src),
        capture_output=True, text=True, timeout=300,
    )


class TestDeterminism:
    def test_all_commands_byte_identical(self, tmp_path):
        for label, doc in small_configs().items():
            path = write_config(tmp_path, doc, name=f"{label}.json")
            a, b = tmp_path / label / "a", tmp_path / label / "b"
            for cmd in COMMANDS:
                assert main([cmd, "--config", str(path), "--out", str(a)]) == 0
                assert main([cmd, "--config", str(path), "--out", str(b)]) == 0
            names = [p.name for p in sorted(a.iterdir())]
            assert len(names) >= 10
            for name in names:
                assert (a / name).read_bytes() == (b / name).read_bytes(), (label, name)


@pytest.mark.parametrize("boundary", ["dirichlet", "neumann"])
def test_simulate_stride_one_holds_the_strided_rows(tmp_path, boundary):
    """simulate at csv_stride 1 writes every step: each 7th row of its CSVs
    is, byte for byte, the row csv_stride 7 writes, and the summaries are
    the same.  Both modal runs take two blocks of steps, the FD run four,
    and neither step count is a multiple of 7."""
    doc = dict(small_configs()["neumann-long"], boundary=boundary)
    doc["sim"] = dict(doc["sim"], dt=0.04)
    outs = {}
    for stride in (1, 7):
        doc["sim"]["csv_stride"] = stride
        path = write_config(tmp_path, doc, name=f"stride{stride}.json")
        outs[stride] = tmp_path / f"stride{stride}"
        assert main(["simulate", "--config", str(path), "--out", str(outs[stride])]) == 0
    for name in ("sim_fd.csv", "sim_decoupled.csv", "sim_coupled.csv"):
        every = (outs[1] / name).read_bytes().splitlines(keepends=True)
        strided = (outs[7] / name).read_bytes().splitlines(keepends=True)
        assert len(every) - 1 in (627, 891)
        assert strided == every[:1] + every[1::7], name
    summary = "simulate_summary.json"
    assert (outs[1] / summary).read_bytes() == (outs[7] / summary).read_bytes()


class TestOtherCommands:
    def test_spectrum_round_trip(self, tmp_path):
        path = write_config(tmp_path, base_config())
        assert main(["spectrum", "--config", str(path), "--out", str(tmp_path / "o")]) == 0
        header, rows = read_csv(tmp_path / "o" / "spectrum.csv")
        assert header[0] == "n" and header[-1] == "class"
        assert len(rows) == 12
        for r in rows:
            float_vals = [float(v) for v in r[1:-1]]
            assert all(np.isfinite(float_vals))
            assert r[-1] in {"stable", "marginal", "unstable"}

    def test_kernels_files_parse(self, tmp_path):
        path = write_config(tmp_path, base_config(grid_points=41, N=6))
        assert main(["kernels", "--config", str(path), "--out", str(tmp_path / "o")]) == 0
        for name, cols in (("kernel_P.csv", 6), ("kernel_Q.csv", 6),
                           ("gain.csv", 3), ("pde_residual.csv", 6)):
            header, rows = read_csv(tmp_path / "o" / name)
            assert len(header) == cols
            assert all(len(r) == cols for r in rows)
            np.array([[float(v) for v in r] for r in rows])
        summary = json.loads((tmp_path / "o" / "kernels_summary.json").read_text())
        assert summary["N"] == 6

    def test_kernel_csv_symmetry(self, tmp_path):
        path = write_config(tmp_path, base_config(grid_points=21, N=4))
        main(["kernels", "--config", str(path), "--out", str(tmp_path / "o")])
        _, rows = read_csv(tmp_path / "o" / "kernel_P.csv")
        vals = {(r[0], r[1]): [float(v) for v in r[2:]] for r in rows}
        for (x1, x2), v in vals.items():
            vt = vals[(x2, x1)]
            assert abs(v[0] - vt[0]) < 1e-12 and abs(v[1] - vt[2]) < 1e-12

    def test_kernels_holds_one_field_at_a_time(self, tmp_path):
        """kernels writes and frees each field before it assembles the next:
        its traced peak is one (g, g, 2, 2) field, the two gathered grid
        columns of its CSV and the writer's workspace, allocated once per
        file (at most 5.5 MiB, test_formatter_scratch_is_bounded), well
        below the three fields the command used to hold at once."""
        g = 401
        path = write_config(tmp_path, base_config(grid_points=g, N=32))
        argv = ["kernels", "--config", str(path), "--out", str(tmp_path / "o")]
        assert main(argv) == 0  # fills the formatter's cache of powers of ten
        tracemalloc.start()
        try:
            code = main(argv)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 0
        field_nbytes = g * g * 4 * 8
        assert peak < field_nbytes + 2 * g * g * 8 + 5.5 * 2**20

    def test_unverified_coupled_roots_are_numerical_failure(self, tmp_path, capsys, monkeypatch):
        # a root iteration that never converges: the coupled run names the
        # failed check, and no floating-point warning escapes (pyproject
        # turns them into errors)
        monkeypatch.setattr(spectrum, "_NEWTON_CAP", 0)
        path = write_config(tmp_path, base_config())
        assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "o")]) == 3
        err = capsys.readouterr().err
        assert err == ("numerical failure: coupled modal run: "
                       "the secular roots did not converge within 0 steps\n")

    def test_simulate_summary_and_series(self, tmp_path):
        path = write_config(tmp_path, base_config(N=6))
        assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "o")]) == 0
        summary = json.loads((tmp_path / "o" / "simulate_summary.json").read_text())
        assert summary["decoupled_cost"] > 0
        assert 0.9 < summary["coupled_over_field_prediction"] < 1.2
        for name in ("sim_decoupled.csv", "sim_coupled.csv"):
            header, rows = read_csv(tmp_path / "o" / name)
            assert header[:2] == ["t", "u"] and header[-1] == "cost"
            assert len(header) == 2 + 2 * 6 + 1
            cost = [float(r[-1]) for r in rows]
            assert all(b >= a for a, b in zip(cost, cost[1:]))
        header_fd, rows_fd = read_csv(tmp_path / "o" / "sim_fd.csv")
        assert len(header_fd) == 2 + 101 + 1
        np.array([[float(v) for v in r] for r in rows_fd])

    def test_modal_trajectories_freed_before_fd_run(self, tmp_path, monkeypatch):
        """simulate keeps only the strided CSV rows and the totals of its two
        modal runs: when the finite-difference run starts, less than one modal
        state trajectory is traced."""
        doc = base_config(N=64, sim={"T": 1.0, "dt": 0.001, "M": 100, "cfl": 0.9,
                                     "csv_stride": 10})
        path = write_config(tmp_path, doc)
        at_start = []
        simulate_fd = sim.simulate_fd

        def traced_fd(*args, **kwargs):
            at_start.append(tracemalloc.get_traced_memory()[0])
            return simulate_fd(*args, **kwargs)

        monkeypatch.setattr(sim, "simulate_fd", traced_fd)
        tracemalloc.start()
        try:
            code = main(["simulate", "--config", str(path), "--out", str(tmp_path / "o")])
        finally:
            tracemalloc.stop()
        assert code == 0
        modal_states_nbytes = (1000 + 1) * 64 * 2 * 8  # (T / dt + 1) x N x 2 floats
        assert at_start[0] < modal_states_nbytes

    def test_fd_run_keeps_strided_rows_only(self, tmp_path, monkeypatch):
        """simulate asks the finite-difference run for the CSV rows only:
        during that run, traced memory stays well below one full trajectory."""
        doc = base_config(sim={"T": 10.0, "dt": 0.005, "M": 200, "cfl": 0.9,
                               "csv_stride": 10})
        path = write_config(tmp_path, doc)
        growth = []
        simulate_fd = sim.simulate_fd

        def traced_fd(*args, **kwargs):
            at_start = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            res = simulate_fd(*args, **kwargs)
            growth.append(tracemalloc.get_traced_memory()[1] - at_start)
            return res

        monkeypatch.setattr(sim, "simulate_fd", traced_fd)
        tracemalloc.start()
        try:
            code = main(["simulate", "--config", str(path), "--out", str(tmp_path / "o")])
        finally:
            tracemalloc.stop()
        assert code == 0
        trajectory_nbytes = (2224 + 1) * 2 * (200 + 1) * 8  # T / (cfl / M) steps
        assert growth[0] < 0.4 * trajectory_nbytes
        _, rows = read_csv(tmp_path / "o" / "sim_fd.csv")
        assert len(rows) == 2224 // 10 + 1

    def test_modal_runs_keep_strided_rows_only(self, tmp_path, monkeypatch):
        """simulate asks both modal runs for the CSV rows only: each run's
        traced growth stays well below its state trajectory, plus, for the
        decoupled run, its per-mode controls of every step.  Each run starts
        with the runs before it freed."""
        doc = base_config(N=32, sim={"T": 20.0, "dt": 0.002, "M": 64, "cfl": 0.9,
                                     "csv_stride": 10})
        path = write_config(tmp_path, doc)
        growth, at_start = {}, {}

        def traced(name):
            run = getattr(sim, name)

            def wrapper(*args, **kwargs):
                at_start[name] = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
                res = run(*args, **kwargs)
                growth[name] = tracemalloc.get_traced_memory()[1] - at_start[name]
                return res

            monkeypatch.setattr(sim, name, wrapper)

        traced("simulate_decoupled")
        traced("simulate_coupled_modal")
        tracemalloc.start()
        try:
            code = main(["simulate", "--config", str(path), "--out", str(tmp_path / "o")])
        finally:
            tracemalloc.stop()
        assert code == 0
        rows = 10000 + 1  # T / dt steps
        states_nbytes = rows * 32 * 2 * 8
        assert growth["simulate_decoupled"] < 0.4 * states_nbytes + rows * 32 * 8
        assert growth["simulate_coupled_modal"] < 0.4 * states_nbytes
        assert max(at_start.values()) < 0.1 * states_nbytes
        for name in ("sim_decoupled.csv", "sim_coupled.csv"):
            _, csv_rows = read_csv(tmp_path / "o" / name)
            assert len(csv_rows) == 10000 // 10 + 1

    def test_converge_json(self, tmp_path):
        path = write_config(tmp_path, base_config())
        assert main(["converge", "--config", str(path), "--out", str(tmp_path / "o")]) == 0
        rep = json.loads((tmp_path / "o" / "converge.json").read_text())
        verdicts = {s["name"]: s["verdict"] for s in rep["series"]}
        assert verdicts == {"Q": "convergent", "K": "convergent", "P11": "convergent"}

    @pytest.mark.parametrize("key,value", [
        ("N", 0), ("M", 0), ("M", 31), ("cfl", 0.0), ("cfl", 1.5),
    ])
    def test_simulate_config_error_is_2(self, tmp_path, key, value):
        doc = base_config()
        (doc if key == "N" else doc["sim"])[key] = value
        path = write_config(tmp_path, doc)
        assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "o")]) == 2

    def test_converge_requires_power_family(self, tmp_path):
        doc = base_config(weights={"type": "list", "entries": []})
        path = write_config(tmp_path, doc)
        assert main(["converge", "--config", str(path), "--out", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize("r,dir_p11,neu_p11", [
        (3.0, "divergent", "divergent"),
        (5.0, "convergent", "divergent"),
    ])
    def test_compare_boundary_verdicts(self, tmp_path, r, dir_p11, neu_p11):
        doc = base_config(weights={"type": "power", "q": 1.0, "r": r}, N=8)
        doc["converge"] = {"N_list": [8, 16, 32], "fit_lo": 50, "fit_hi": 120}
        path = write_config(tmp_path, doc)
        assert main(["compare-boundary", "--config", str(path), "--out", str(tmp_path / "o")]) == 0
        rep = json.loads((tmp_path / "o" / "compare_boundary.json").read_text())
        for side, expect in (("dirichlet", dir_p11), ("neumann", neu_p11)):
            verdicts = {s["name"]: s["verdict"] for s in rep[side]["series"]}
            assert verdicts["P11"] == expect
            if r > 2:
                assert verdicts["K"] == "convergent"
        header, rows = read_csv(tmp_path / "o" / "damping_profiles.csv")
        assert header == ["boundary", "n", "abs_re_mu"]
        assert len(rows) == 8 + 9  # Dirichlet modes 1..8, Neumann modes 0..8

    def test_p11_exponent_reported_once(self, tmp_path):
        # compare-boundary reports the P11 decay exponent twice; both must
        # come from the same fit, and converge must report the same number
        doc = base_config(boundary="neumann", N=8)
        doc["converge"] = {"N_list": [4, 8], "fit_lo": 50, "fit_hi": 2000}
        path = write_config(tmp_path, doc)
        for cmd in ("converge", "compare-boundary"):
            assert main([cmd, "--config", str(path), "--out", str(tmp_path / "o")]) == 0
        rep = json.loads((tmp_path / "o" / "compare_boundary.json").read_text())
        conv = json.loads((tmp_path / "o" / "converge.json").read_text())
        series = {s["name"]: s["fitted_exponent"] for s in rep["neumann"]["series"]}
        assert rep["neumann"]["fitted_exponents"]["P11"] == series["P11"]
        assert {s["name"]: s["fitted_exponent"] for s in conv["series"]}["P11"] == series["P11"]

    @pytest.mark.parametrize("error", [OracleError, MemoryError], ids=lambda e: e.__name__)
    def test_numerical_failure_maps_to_3(self, tmp_path, monkeypatch, error):
        from wavelqr import cli

        def boom(rc, out):
            raise error("synthetic failure")

        monkeypatch.setitem(cli.COMMANDS, "synth", boom)
        path = write_config(tmp_path, base_config())
        assert main(["synth", "--config", str(path), "--out", str(tmp_path / "o")]) == 3


_COLD_START_SCRIPT = """
import importlib.abc, json, sys

BLOCKED = ("scipy", "numpy.ma")


class Block(importlib.abc.MetaPathFinder):
    def find_spec(self, name, path=None, target=None):
        if any(name == b or name.startswith(b + ".") for b in BLOCKED):
            raise ImportError(f"{name} is blocked")
        return None


sys.meta_path.insert(0, Block())
blocked = {}
for name in BLOCKED:
    try:
        importlib.import_module(name)
        blocked[name] = False
    except ImportError:
        blocked[name] = True
import wavelqr.cli
config, out = sys.argv[1:]
codes, fft, random, dataclasses = {}, {}, {}, {}
# verify last: numpy.fft, once loaded, stays in sys.modules
for cmd in sorted(wavelqr.cli.COMMANDS, key=lambda cmd: cmd == "verify"):
    codes[cmd] = wavelqr.cli.main([cmd, "--config", config, "--out", out])
    fft[cmd] = "numpy.fft" in sys.modules
    random[cmd] = "numpy.random" in sys.modules
    dataclasses[cmd] = "dataclasses" in sys.modules
print(json.dumps({"blocked": blocked, "codes": codes, "fft": fft, "random": random,
                  "dataclasses": dataclasses}))
"""


class TestColdStart:
    def test_no_command_needs_scipy(self, tmp_path):
        # a fresh interpreter in which importing scipy or numpy.ma raises
        # ImportError: numpy.ma costs every command that loads it 12-15 ms,
        # and np.unique is one way to load it
        path = write_config(tmp_path, base_config())
        proc = run_python("-c", _COLD_START_SCRIPT, str(path), str(tmp_path / "o"))
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert result["blocked"] == {"scipy": True, "numpy.ma": True}
        assert result["codes"] == {cmd: 0 for cmd in COMMANDS}

    def test_only_verify_loads_numpy_fft(self, tmp_path):
        # numpy loads numpy.fft on first use, about 2 ms and 0.4 MiB with
        # the first transform; only verify's residual check needs it
        path = write_config(tmp_path, base_config())
        proc = run_python("-c", _COLD_START_SCRIPT, str(path), str(tmp_path / "o"))
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert result["fft"] == {cmd: cmd == "verify" for cmd in COMMANDS}

    def test_no_command_loads_numpy_random(self, tmp_path):
        # verify's symmetry pairs come from a formula of its own: loading
        # numpy.random cost it about 15 ms and 6 MiB of peak RSS
        path = write_config(tmp_path, base_config())
        proc = run_python("-c", _COLD_START_SCRIPT, str(path), str(tmp_path / "o"))
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert result["random"] == {cmd: False for cmd in COMMANDS}

    def test_no_command_loads_dataclasses(self, tmp_path):
        # the records are named tuples: a frozen dataclass writes and
        # compiles its methods when its module executes, 5-9 ms a command
        path = write_config(tmp_path, base_config())
        proc = run_python("-c", _COLD_START_SCRIPT, str(path), str(tmp_path / "o"))
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert result["dataclasses"] == {cmd: False for cmd in COMMANDS}


# The entry point ends its process with os._exit, which would end this
# script before it reports: it makes os._exit raise SystemExit instead.
_RUN_AS_SCRIPT = """
import gc, json, os, runpy, sys


def exit_run(code):
    raise SystemExit(code)


os._exit = exit_run
before = gc.get_freeze_count()
sys.argv = ["wavelqr", *sys.argv[1:]]
try:
    runpy.run_module("wavelqr.cli", run_name="__main__")
except SystemExit as exc:
    code = exc.code
print(json.dumps([before, gc.get_freeze_count(), code]))
"""

# python -m wavelqr.cli with a root iteration that never converges
_NUMERICAL_FAILURE_SCRIPT = """
import runpy, sys

from wavelqr import spectrum

spectrum._NEWTON_CAP = 0
sys.argv = ["wavelqr", *sys.argv[1:]]
runpy.run_module("wavelqr.cli", run_name="__main__", alter_sys=True)
"""


class TestScriptPath:
    """python -m wavelqr.cli, the entry point that freezes the collector and
    ends its process without the interpreter's teardown."""

    def test_artifacts_match_main(self, tmp_path):
        for label, doc in small_configs().items():
            path = write_config(tmp_path, doc, name=f"{label}.json")
            a, b = tmp_path / label / "main", tmp_path / label / "script"
            for cmd in COMMANDS:
                code = main([cmd, "--config", str(path), "--out", str(a)])
                proc = run_python("-m", "wavelqr.cli", cmd, "--config", str(path), "--out", str(b))
                assert (proc.returncode, proc.stderr) == (code, ""), (label, cmd)
            names = [p.name for p in sorted(a.iterdir())]
            assert names == [p.name for p in sorted(b.iterdir())]
            for name in names:
                assert (a / name).read_bytes() == (b / name).read_bytes(), (label, name)

    def test_config_error_exit_code(self, tmp_path, capsys):
        path = write_config(tmp_path, base_config(N=-3))
        assert main(["synth", "--config", str(path)]) == 2
        proc = run_python("-m", "wavelqr.cli", "synth", "--config", str(path))
        assert proc.returncode == 2
        assert proc.stderr == capsys.readouterr().err
        assert proc.stderr == "config error: N must be nonnegative, got -3\n"

    def test_numerical_failure_exit_code(self, tmp_path):
        # the message reaches the piped stderr before os._exit ends the process
        path = write_config(tmp_path, base_config())
        proc = run_python("-c", _NUMERICAL_FAILURE_SCRIPT, "simulate", "--config", str(path),
                          "--out", str(tmp_path / "o"))
        assert proc.returncode == 3
        assert proc.stderr == ("numerical failure: coupled modal run: "
                               "the secular roots did not converge within 0 steps\n")

    def test_entry_point_freezes_import_time_objects(self, tmp_path):
        path = write_config(tmp_path, base_config())
        proc = run_python("-c", _RUN_AS_SCRIPT, "synth", "--config", str(path),
                          "--out", str(tmp_path / "o"))
        assert proc.returncode == 0, proc.stderr
        before, after, code = json.loads(proc.stdout)
        assert (before, code) == (0, 0)
        assert after > 0


_FAULT_SCRIPT = """
import json, resource, tempfile
from pathlib import Path

import numpy as np

from wavelqr import cli, digits

g = 201  # a kernel file at grid_points = 201: 40401 rows, in 8 blocks
x, i, k = np.linspace(0.0, 1.0, g), np.arange(g), np.arange(g * g)
p = [np.sin(0.37 * k + a) * 10.0**-a for a in range(3)]
columns = [(x, np.repeat(i, g)), (x, np.tile(i, g)), p[0], p[1], p[1], p[2]]
path = Path(tempfile.mkdtemp()) / "kernel_P.csv"
faults = []
for _ in range(2):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    cli.write_csv(path, ["x1", "x2", "P11", "P12", "P21", "P22"], columns)
    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
# the workspace of that file: 3 formatted columns, 6 slots a row
step = cli._BLOCK_VALUES // 6
ws = digits.Workspace(3 * step, 6 * digits.NUMBER_SLOT, step)
nbytes = sum(b.nbytes for b in vars(ws).values())
print(json.dumps({"faults": faults, "blocks": -(-g * g // step), "pages": nbytes // 4096}))
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="minor faults as Linux counts them")
def test_rewriting_a_file_faults_in_one_workspace_at_most(tmp_path):
    """A second write of the same kernel-shaped file, in the same process,
    faults in no more pages than one workspace and a margin of 256 pages
    (1 MiB): its blocks reuse the workspace instead of allocating scratch.
    Measured on a 2-core x86-64 Linux host: 576 faults for a workspace of
    655 pages.  The writer that allocated every block's scratch afresh
    took 5,107 faults for this second write, as glibc handed those pages
    back to the kernel block after block."""
    proc = run_python("-c", _FAULT_SCRIPT)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert result["blocks"] >= 8
    assert result["faults"][1] <= result["pages"] + 256, result


class TestFormatting:
    @staticmethod
    def per_float_join(header, columns):
        """The writer the column writer replaced: one fmt call per number."""
        lines = [",".join(header)]
        for row in zip(*columns):
            lines.append(",".join(v if isinstance(v, str) else fmt(v) for v in row))
        return "\n".join(lines) + "\n"

    def test_column_writer_matches_per_float_join(self, tmp_path, rng):
        special = np.array([0.0, -0.0, 5e-324, -2.5e-310, 0.1, 1.0 / 3.0, 1e16, 1e-5,
                            np.inf, -np.inf, np.nan, 2.0**53 + 2.0, -7.0])
        random = rng.standard_normal(200) * 10.0 ** rng.integers(-300, 300, 200)
        # one row, and more rows than one block of write_csv holds
        long = np.resize(np.concatenate([special, random]), 3 * cli._BLOCK_VALUES // 5 + 7)
        for floats in (special, random, special[-1:], long):
            k = len(floats)
            columns = [
                floats,
                np.arange(k, dtype=np.int64) - 3,
                np.array(["stable", "marginal", "unstable"] * k)[:k],
                np.array(["dirichlet", "neumann"] * k, dtype=object)[:k],
                floats[::-1].copy(),
            ]
            header = ["x", "n", "class", "boundary", "y"]
            path = tmp_path / "t.csv"
            write_csv(path, header, columns)
            assert path.read_text() == self.per_float_join(header, columns)

    def test_column_writer_zero_rows(self, tmp_path):
        columns = [np.array([]), np.array([], dtype=np.int64), np.array([], dtype=object)]
        write_csv(tmp_path / "t.csv", ["x", "n", "boundary"], columns)
        assert (tmp_path / "t.csv").read_text() == "x,n,boundary\n"
        assert self.per_float_join(["x", "n", "boundary"], columns) == "x,n,boundary\n"

    def test_gathered_shared_and_constant_columns(self, tmp_path, rng):
        """Each reuse rule of write_csv against one fmt call per number."""
        # 2**-25 = 2.98023223876953125e-8 and its multiple by 3 end in an
        # exact tie at the 18th digit, which _number_slots leaves to fmt
        ties = np.array([2.0**-25, 3.0 * 2.0**-25, 0.1, -(2.0**-25), -0.0, 0.0])
        out = np.zeros((digits.NUMBER_SLOT - 1, len(ties)), np.uint8)
        assert len(digits._number_slots(ties, out, digits.Workspace(len(ties)))) == 3
        grid = np.linspace(0.0, 1.0, 13)
        header = ["x", "tie", "y", "y_again", "neg_zero", "zero", "nan", "inf", "tag", "y_last"]
        step = cli._BLOCK_VALUES // len(header)
        for rows in (0, 1, 2, 3 * step + 7):  # the last crosses three block boundaries
            gi = rng.permutation(rows) % len(grid)
            ti = np.arange(rows)[::-1] % len(ties)
            y = rng.standard_normal(rows)
            columns = [
                (grid, gi),
                (ties, ti),
                y,
                y.copy(),
                np.full(rows, -0.0),
                np.zeros(rows),
                np.full(rows, np.nan),
                np.full(rows, -np.inf),
                np.array(["stable", "marginal"] * rows, dtype=object)[:rows],
                y,
            ]
            path = tmp_path / "t.csv"
            write_csv(path, header, columns)
            plain = [c[0][c[1]] if isinstance(c, tuple) else c for c in columns]
            assert path.read_text() == self.per_float_join(header, plain)

    def test_many_columns_of_two_dimensional_arrays(self, tmp_path, rng):
        """A 2-D array stands for its rows, one column each, among other
        columns: 2 x 900 columns of strided views, as simulate passes its
        states, holding rows equal to a 1-D column, rows equal to earlier
        rows and constant rows, with gathered, integer and text columns,
        against one fmt call per number."""
        grid = np.linspace(0.0, 1.0, 7)
        ncols = 1 + 900 + 1 + 1 + 2 + 900 + 1
        # the last row count crosses three block boundaries
        for rows in (1, 2, 3 * (cli._BLOCK_VALUES // ncols) + 7):
            y = rng.standard_normal(rows)
            wide = (rng.standard_normal((rows, 900)) * 10.0 ** rng.integers(-300, 300, 900)).T
            wide[[5, 17]] = y
            wide[40] = wide[3]
            wide[[100, 101, 899]] = np.array([-0.0, 0.0, np.nan])[:, None]
            other = rng.standard_normal((900, rows))
            other[0] = wide[40]
            columns = [y, wide, (grid, np.arange(rows) % 7),
                       np.array(["stable", "marginal"] * rows, dtype=object)[:rows],
                       np.arange(2 * rows).reshape(2, rows) - 3, other, y]
            plain = [y, *wide, grid[np.arange(rows) % 7], columns[3], *columns[4], *other, y]
            header = [f"c{i}" for i in range(ncols)]
            path = tmp_path / "t.csv"
            write_csv(path, header, columns)
            assert path.read_text() == self.per_float_join(header, plain)

    def test_formatter_scratch_is_bounded(self, rng):
        """digits.formatted of a block of 2^15 numbers, in a workspace made for
        them, traces at most 5.5 MiB, the workspace and its 0.94 MiB of
        slots included: the scratch arrays share its buffers stage by
        stage."""
        x = rng.standard_normal(cli._BLOCK_VALUES) * 10.0 ** rng.integers(-300, 300, cli._BLOCK_VALUES)
        digits.formatted(x)  # fills the cache of powers of ten
        tracemalloc.start()
        try:
            slots = digits.formatted(x)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert slots.shape == (digits.NUMBER_SLOT, cli._BLOCK_VALUES)
        assert peak <= 5.5 * 2**20

    def test_workspace_holds_nothing_from_a_block_before(self, tmp_path):
        """Files written back to back, each through the reuse of one
        workspace by all of its blocks, against one fmt call per number:
        column counts that differ from file to file, a last block shorter
        than the others, a 1-row file, and numbers that _number_slots leaves
        to fmt (ties, inf, nan) or that print short (-0.0, 0.0) in slots
        that the next block fills with 17-digit numbers, and back."""
        special = np.array([2.0**-25, np.inf, -np.inf, np.nan, -0.0, 0.0, 3.0 * 2.0**-25, 1e300])
        for ncols in (5, 1, 17, 2):
            step = cli._BLOCK_VALUES // ncols
            for rows in (2 * step + 3, 1, step + step // 2):
                k = np.arange(rows * ncols).reshape(ncols, rows)
                # each block alternates special and 17-digit numbers, so
                # every slot of the workspace holds both kinds in turn
                x = np.where((k // step + k) % 2 == 0, special[k % len(special)],
                             np.sqrt(k + 2.0) * 10.0 ** (k % 37 - 18))
                header = [f"c{i}" for i in range(ncols)]
                path = tmp_path / f"t{ncols}_{rows}.csv"
                write_csv(path, header, list(x))
                same = path.read_text() == self.per_float_join(header, list(x))
                assert same, (ncols, rows)  # not the diff of two multi-MB strings

    def test_seventeen_significant_digits(self):
        x = 1.0 / 3.0
        assert fmt(x) == "0.33333333333333331"
        assert float(fmt(x)) == x

    def test_round_trip_exactness(self, rng):
        for _ in range(200):
            x = float(rng.standard_normal() * 10.0 ** rng.integers(-12, 12))
            assert float(fmt(x)) == x


def csv_fields(x):
    """The fields write_csv writes for the floats x, one row each."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "t.csv"
        write_csv(path, ["x"], [np.asarray(x, dtype=float)])
        return path.read_text().splitlines()[1:]


class TestBlockFormatter:
    """The vectorized "%.17g" of write_csv against fmt, one number at a time."""

    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(st.lists(st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
                    min_size=1, max_size=40))
    def test_any_float(self, values):
        assert csv_fields(values) == [fmt(v) for v in values]

    def test_powers_of_ten_and_neighbours(self):
        p = np.array([float(f"1e{k}") for k in range(-323, 309)])
        x = np.concatenate([p, np.nextafter(p, 0.0), np.nextafter(p, np.inf)])
        x = np.concatenate([x, -x])
        assert csv_fields(x) == [fmt(v) for v in x]
        # the decade of 1e-304's lower neighbour comes from the unrounded
        # product, not from its rounded 17 digits (which carry to 1e16)
        assert csv_fields([9.9999999999999997e-305]) == ["9.9999999999999997e-305"]

    def test_random_bit_patterns(self, tmp_path, rng):
        x = rng.integers(0, 2**64, 10**6, dtype=np.uint64, endpoint=False).view(np.float64)
        write_csv(tmp_path / "t.csv", ["x"], [x])
        expect = "x\n" + ("%.17g\n" * len(x)) % tuple(x.tolist())  # fmt, in one call
        assert (tmp_path / "t.csv").read_text() == expect

    def test_integers_near_two_to_the_53(self):
        x = 2.0**53 + np.arange(-2000.0, 2001.0)
        x = np.concatenate([x, -x, 2.0 * x, 10.0 * x, x / 16.0])
        assert csv_fields(x) == [fmt(v) for v in x]

    def test_powers_of_ten_accuracy(self):
        from fractions import Fraction

        for E in range(-325, 310):  # one decade past each end of the doubles
            h, h1, h2, l, e = digits._pow10(E)
            exact = Fraction(10) ** (16 - E)
            approx = (Fraction(h) + Fraction(l)) * Fraction(2) ** int(e)
            assert 1.0 <= h < 2.0 and abs(l) <= 2.0**-52
            # Dekker's split: exact halves of at most 26 significant bits
            assert Fraction(h1) + Fraction(h2) == Fraction(h)
            assert all(v == 0 or math.frexp(v)[0] * 2**26 % 1 == 0 for v in (h1, h2))
            assert abs(approx / exact - 1) < Fraction(1, 2**104), E

    def test_text_only_columns(self, tmp_path):
        write_csv(tmp_path / "t.csv", ["a", "b"], [["x", "yy"], np.array([b"z", b""])])
        assert (tmp_path / "t.csv").read_text() == "a,b\nx,b'z'\nyy,b''\n"

    def test_unequal_columns_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="length"):
            write_csv(tmp_path / "t.csv", ["a", "b"], [np.zeros(3), np.zeros(2)])


EXPLICIT_WEIGHTS = {"type": "list", "entries": [
    {"n": n, "Q11": 1.0 / n**2, "Q12": 0.3 / n**3, "Q22": 2.0 / n**4} for n in range(1, 7)]}


@pytest.mark.parametrize("boundary", ["dirichlet", "neumann"])
@pytest.mark.parametrize("weights", ["power", "explicit"])
def test_kernel_files_match_per_row_rendering(tmp_path, boundary, weights):
    """kernels' grid-shaped files equal one fmt call per number of the assembled fields.

    Under the power law Q12 is one bit pattern and Q22 equals Q11; the
    explicit weights make Q12 vary and Q22 differ, so no Q column is shared.
    """
    from wavelqr.kernels import assemble_P, assemble_Q, pde_residual
    from wavelqr.riccati import solve_family

    doc = base_config(boundary=boundary, N=6, grid_points=21)
    if weights == "explicit":
        doc["weights"] = EXPLICIT_WEIGHTS
    path = write_config(tmp_path, doc)
    assert main(["kernels", "--config", str(path), "--out", str(tmp_path / "o")]) == 0
    rc = load_config(path)
    grid = np.linspace(0.0, 1.0, 21)
    sols = solve_family(rc.wave, rc.family, rc.N)
    q = assemble_Q(rc.family, grid, rc.wave.boundary, rc.N).values
    same_q = np.array_equal(q[..., 0, 0].view(np.int64), q[..., 1, 1].view(np.int64))
    assert same_q == (weights == "power")
    assert (len(np.unique(q[..., 0, 1].view(np.int64))) == 1) == (weights == "power")
    fields = pde_residual(sols, grid)
    planes = {
        "kernel_P.csv": assemble_P(sols, grid).values.reshape(21, 21, 4),
        "kernel_Q.csv": q.reshape(21, 21, 4),
        "pde_residual.csv": fields.values.reshape(21, 21, 4),
    }
    for name, values in planes.items():
        text = (tmp_path / "o" / name).read_text()
        columns = [np.repeat(grid, 21), np.tile(grid, 21), *values.reshape(-1, 4).T]
        assert text == TestFormatting.per_float_join(text.split("\n", 1)[0].split(","), columns)


@pytest.mark.parametrize("boundary", ["dirichlet", "neumann"])
def test_every_artifact_field_is_fmt_of_its_value(tmp_path, boundary):
    """Every numeric CSV field of every command is fmt of the float it reads as."""
    doc = json.loads((Path(__file__).parent.parent / "demos" / "config_example.json").read_text())
    doc["boundary"] = boundary
    path = write_config(tmp_path, doc)
    out = tmp_path / "out"
    for cmd in COMMANDS:
        assert main([cmd, "--config", str(path), "--out", str(out)]) == 0, cmd
    csvs = sorted(out.glob("*.csv"))
    assert len(csvs) == 10
    for csv in csvs:
        fields = set(csv.read_text().replace("\n", ",").split(",")[:-1])
        numeric = []
        for field in fields:
            try:
                numeric.append((field, float(field)))
            except ValueError:  # header and text columns
                pass
        assert numeric, csv.name
        bad = [field for field, value in numeric if fmt(value) != field]
        assert not bad, (csv.name, bad[:5])
