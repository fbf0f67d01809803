import json
import os
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

import dremnet
import dremnet.cli
from dremnet.cli import main


class TestRun:
    def test_smoke(self, capsys):
        assert main(["run", "--steps", "5", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "horizon 5" in out
        assert "sensor 4" in out

    def test_export(self, tmp_path, capsys):
        p = tmp_path / "run.csv"
        assert main(["run", "--steps", "4", "--out", str(p)]) == 0
        lines = p.read_text().splitlines()
        assert lines[0].startswith("k,i,error_norm")
        assert len(lines) == 1 + 5 * 4

    def test_unknown_scenario(self, capsys):
        assert main(["run", "--scenario", "bogus"]) == 1
        err = capsys.readouterr().err
        assert "error:" in err and "sec5" in err

    def test_unreadable_scenario(self, tmp_path, capsys):
        assert main(["run", "--scenario", str(tmp_path)]) == 2
        assert capsys.readouterr().err == f"error: cannot read {tmp_path}: Is a directory\n"

    def test_unwritable_out(self, capsys):
        assert main(["run", "--steps", "2", "--out", "/nonexistent/x.csv"]) == 2
        assert "/nonexistent/x.csv" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("theta_hat0", [[0.0, 1.0], [2.0]], "error: theta_hat0 must be a number, got [0.0, 1.0]"),
            ("angle_step", 1e308, "error: angle_step 1e+308 times step 2 overflows float64"),
        ],
        ids=["ragged-theta_hat0", "angle_step-overflow"],
    )
    def test_input_errors_name_the_field(self, tmp_path, capsys, key, value, message):
        cfg = {
            "model": {
                "theta": [1.0, 2.0],
                "generators": [
                    {"kind": "constant", "vector": [1.0, 1.0]},
                    {"kind": "recursive-cosine", "base": [0.0, 1.0], "slot": 0, "initial": 1.0, "angle_step": 0.5},
                ],
                "noise": [1.0, 1.0],
            },
            "graph": {"kind": "ring", "n": 2},
            "estimator": {"mu": [0.1, 0.1], "step": {"kind": "harmonic", "c": 0.7}},
            "run": {"horizon": 10},
        }
        if key == "theta_hat0":
            cfg["estimator"][key] = value
        else:
            cfg["model"]["generators"][1][key] = value
        p = tmp_path / "scenario.json"
        p.write_text(json.dumps(cfg))
        assert main(["run", "--scenario", str(p)]) == 1
        assert capsys.readouterr().err.strip() == message

    def test_negative_steps(self, capsys):
        assert main(["run", "--steps", "-1"]) == 1
        assert "error: --steps: must be at least 0, got -1" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["run", "mc", "check-pe", "oracle", "compare"])
    def test_counts_checked_before_the_scenario_loads(self, tmp_path, capsys, command):
        # a missing scenario file would be the error if the scenario loaded first
        missing = str(tmp_path / "missing.json")
        assert main([command, "--scenario", missing, "--steps", "-1"]) == 1
        least = 1 if command == "check-pe" else 0  # check-pe needs a step to scan
        assert capsys.readouterr().err == f"error: --steps: must be at least {least}, got -1\n"


class TestMc:
    def test_smoke_and_export(self, tmp_path, capsys):
        p = tmp_path / "agg.csv"
        rc = main(["mc", "--runs", "6", "--steps", "8", "--seed", "5", "--out", str(p)])
        assert rc == 0
        assert "6 runs" in capsys.readouterr().out
        assert p.read_text().splitlines()[0].startswith("k,i,mean_error_norm")

    def test_bad_runs(self, capsys):
        assert main(["mc", "--runs", "0", "--steps", "4"]) == 1
        assert "error: --runs: must be at least 1, got 0" in capsys.readouterr().err

    @pytest.mark.parametrize("workers", ["0", "-2"])
    def test_bad_workers(self, workers, capsys):
        assert main(["mc", "--runs", "4", "--steps", "4", "--workers", workers]) == 1
        assert f"error: --workers: must be at least 1, got {workers}" in capsys.readouterr().err


class TestOverflow:
    @pytest.mark.parametrize("case", ["1e160", "1e80", "estimate"])
    @pytest.mark.parametrize("command", [["run"], ["mc", "--runs", "3"]])
    def test_overflowing_window_refused(self, tmp_path, capsys, command, case):
        # at d = 2 a window of 1e160 entries has a determinant past float64
        # range, and one of 1e80 entries a squared determinant past it;
        # either would make the estimates NaN
        cfg = {
            "model": {
                "theta": [1.0, 2.0],
                "generators": [
                    {"kind": "periodic-list", "vectors": [["X", 0.0], [0.0, "X"]]},
                    {"kind": "periodic-list", "vectors": [[1.0, 0.0], [0.0, 1.0]]},
                ],
                "noise": [1.0, 1.0],
            },
            "graph": {"kind": "ring", "n": 2},
            "estimator": {"mu": [0.1, 0.1], "step": {"kind": "harmonic", "c": 0.7}},
            "run": {"horizon": 20},
        }
        want = "error: sensor 1, step 1: the measurement or DREM message overflows float64"
        if case == "estimate":
            # finite windows and messages, but sensor 1's first update, at step 2,
            # multiplies a delta_bar of 1e144 by a measurement near 1e154
            big = {"kind": "periodic-list", "vectors": [[1e154, 0.0], [0.0, 1e-10]]}
            cfg["model"] = {"theta": [0.0, 0.0], "generators": [big, big], "noise": [1.7e308, 1.7e308]}
            want = "error: sensor 1, step 2: the estimate overflows float64"
        p = tmp_path / "big.json"
        p.write_text(json.dumps(cfg).replace('"X"', case))
        assert main([*command, "--scenario", str(p)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(want)
        assert "mean error" not in captured.out


class TestCheckPe:
    def test_passing_scenario(self, capsys):
        assert main(["check-pe", "--steps", "120"]) == 0
        out = capsys.readouterr().out
        lines = out.splitlines()
        assert lines[0] == "sensor,bound,local_H,local_margin,local_satisfied,single_H"
        assert len(lines) == 5
        # sensor 4 certifies through its neighborhood, alone it never does
        row4 = lines[4].split(",")
        assert row4[0] == "4" and row4[4] == "True" and row4[5] == ""

    def test_failing_scenario(self, tmp_path, capsys):
        cfg = {
            "model": {
                "theta": [1.0, 2.0],
                "generators": [
                    {"kind": "constant", "vector": [1, 1]},
                    {"kind": "constant", "vector": [1, 1]},
                ],
                "noise": [1.0, 1.0],
            },
            "graph": {"kind": "ring", "n": 2},
            "estimator": {"mu": [0.1, 0.1], "step": {"kind": "harmonic", "c": 0.7}},
            "run": {"horizon": 40},
        }
        p = tmp_path / "flat.json"
        p.write_text(json.dumps(cfg))
        assert main(["check-pe", "--scenario", str(p)]) == 1
        captured = capsys.readouterr()
        assert "violation:" in captured.err

    def test_wrongly_typed_field(self, tmp_path, capsys):
        cfg = {
            "model": {
                "theta": [1.0, 2.0],
                "generators": [{"kind": "constant", "vector": [1, 1]}],
                "noise": [1.0],
            },
            "graph": {"kind": "static", "n": 1, "edges": []},
            "estimator": {"mu": 5, "step": {"kind": "harmonic", "c": 0.7}},
            "run": {"horizon": 40},
        }
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(cfg))
        assert main(["check-pe", "--scenario", str(p)]) == 1
        assert "error: estimator.mu: expected a list of numbers, got 5" in capsys.readouterr().err

    def test_out_file(self, tmp_path, capsys):
        p = tmp_path / "pe.csv"
        assert main(["check-pe", "--steps", "120", "--out", str(p)]) == 0
        assert p.read_text().startswith("sensor,bound")


    def test_horizon_shorter_than_h_max(self, capsys):
        assert main(["check-pe", "--steps", "5"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [row.split(",")[2] for row in lines[1:]] == ["1", "1", "2", "2"]

    def test_horizon_shorter_than_every_certificate(self, capsys):
        assert main(["check-pe", "--steps", "1"]) == 1
        err = capsys.readouterr().err
        assert "no neighborhood excitation certificate with H <= 1" in err
        assert "at H = 1)" in err

    @pytest.mark.parametrize("h_max", ["0", "-3"])
    def test_bad_h_max(self, h_max, capsys):
        assert main(["check-pe", "--steps", "20", "--h-max", h_max]) == 1
        assert capsys.readouterr().err == f"error: --h-max: must be at least 1, got {h_max}\n"

    @pytest.mark.parametrize("option, value", [("--steps", "0"), ("--h-max", "0"), ("--h-max", "-3")])
    def test_counts_refused_before_the_scenario_loads(self, tmp_path, capsys, option, value):
        # a missing scenario file would be the error if the scenario loaded first
        missing = str(tmp_path / "missing.json")
        assert main(["check-pe", "--scenario", missing, option, value]) == 1
        assert capsys.readouterr().err == f"error: {option}: must be at least 1, got {value}\n"

    @pytest.mark.parametrize("c", ["1e999", '"nan"', '"0.7"'])
    def test_step_coefficient_checked(self, tmp_path, capsys, c):
        # 1e999 parses as inf, which once made every alpha(k) equal 1 and passed the audit
        cfg = {
            "model": {
                "theta": [1.0, 2.0],
                "generators": [{"kind": "periodic-list", "vectors": [[1, 0], [0, 1]]}],
                "noise": [1.0],
            },
            "graph": {"kind": "static", "n": 1, "edges": []},
            "estimator": {"mu": [0.1], "step": {"kind": "harmonic", "c": "C"}},
            "run": {"horizon": 40},
        }
        p = tmp_path / "step.json"
        p.write_text(json.dumps(cfg).replace('"C"', c))
        assert main(["check-pe", "--scenario", str(p)]) == 1
        assert "error: estimator.step" in capsys.readouterr().err

    @pytest.mark.parametrize("first, second", [("1e999", "1"), ("1", "1e999")])
    def test_duplicate_key_rejected(self, tmp_path, capsys, first, second):
        # json keeps the last of two equal keys, so either order once loaded
        # a different scenario
        cfg = {
            "model": {
                "theta": [1.0, 2.0],
                "generators": [{"kind": "periodic-list", "vectors": [[1, 0], [0, 1]]}],
                "noise": [1.0],
            },
            "graph": {"kind": "static", "n": 1, "edges": []},
            "estimator": {"mu": [0.1], "step": {"kind": "harmonic", "c": "C"}},
            "run": {"horizon": 40},
        }
        p = tmp_path / "dup.json"
        p.write_text(json.dumps(cfg).replace('"c": "C"', f'"c": {first}, "c": {second}'))
        assert main(["check-pe", "--scenario", str(p)]) == 1
        assert f'error: {p}: duplicate key "c"' in capsys.readouterr().err

    def test_bad_edge_named(self, tmp_path, capsys):
        cfg = {
            "model": {
                "theta": [1.0],
                "generators": [{"kind": "constant", "vector": [1]}] * 4,
                "noise": [1.0] * 4,
            },
            "graph": {"kind": "static", "n": 4, "edges": [[5, 1]]},
            "estimator": {"mu": [0.1] * 4, "step": {"kind": "harmonic", "c": 0.7}},
            "run": {"horizon": 40},
        }
        p = tmp_path / "edge.json"
        p.write_text(json.dumps(cfg))
        assert main(["check-pe", "--scenario", str(p)]) == 1
        assert "error: graph: static edge set: edge (5, 1) out of range for n=4" in capsys.readouterr().err

    @pytest.mark.parametrize("omega", ["nan", "inf", "-1"])
    def test_bad_omega(self, omega, capsys):
        assert main(["check-pe", "--steps", "20", "--omega", omega]) == 1
        assert capsys.readouterr().err == f"error: --omega: must be finite and positive, got {float(omega)}\n"

    @pytest.mark.parametrize("omega", ["nan", "inf", "0", "-1"])
    def test_bad_omega_refused_before_the_scenario_loads(self, tmp_path, capsys, omega):
        # a missing scenario file would be the error if the scenario loaded first
        missing = str(tmp_path / "missing.json")
        assert main(["check-pe", "--scenario", missing, "--omega", omega]) == 1
        assert capsys.readouterr().err == f"error: --omega: must be finite and positive, got {float(omega)}\n"


class TestOracle:
    def test_stdout(self, capsys):
        assert main(["oracle", "--steps", "2"]) == 0
        out = capsys.readouterr().out
        lines = out.splitlines()
        assert lines[0] == "k,i,l,mean,cov_exact,cov_bound"
        assert len(lines) == 1 + 3 * 4 * 2

    def test_out_file(self, tmp_path, capsys):
        p = tmp_path / "oracle.csv"
        assert main(["oracle", "--steps", "2", "--out", str(p)]) == 0
        assert len(p.read_text().splitlines()) == 1 + 3 * 4 * 2


class TestCompare:
    def test_checkpoints(self, capsys):
        assert main(["compare", "--runs", "8", "--steps", "30", "--at", "10,30"]) == 0
        out = capsys.readouterr().out
        assert "k=10:" in out and "k=30:" in out
        assert "standard errors" in out

    def test_full_csv(self, tmp_path, capsys):
        p = tmp_path / "cmp.csv"
        rc = main(["compare", "--runs", "4", "--steps", "3", "--at", "3", "--out", str(p)])
        assert rc == 0
        lines = p.read_text().splitlines()
        assert lines[0] == "k,i,l,mc_mean,oracle_mean,mc_var,oracle_var_exact,oracle_var_bound"
        assert len(lines) == 1 + 4 * 4 * 2

    def test_single_run_has_no_standard_error(self, capsys):
        # one run has no sample variance, so a z-score would be meaningless
        assert main(["compare", "--runs", "1", "--steps", "3", "--at", "3"]) == 1
        captured = capsys.readouterr()
        assert "--runs" in captured.err
        assert "standard errors" not in captured.out

    @pytest.mark.parametrize(
        "steps, want",
        [(60, [10, 60]), (10, [10]), (5, [5]), (0, [0]), (500, [10, 100, 500]), (501, [10, 100, 500])],
    )
    def test_default_checkpoints_clip_to_the_horizon(self, capsys, steps, want):
        # 10, 100 and 500, each clipped to the horizon, once each
        assert main(["compare", "--runs", "2", "--steps", str(steps)]) == 0
        lines = capsys.readouterr().out.splitlines()[1:]
        assert [int(line.split(":")[0][2:]) for line in lines] == want

    def test_bad_checkpoint(self, capsys):
        assert main(["compare", "--runs", "4", "--steps", "5", "--at", "99"]) == 1
        assert "checkpoint" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "at, message",
        [
            ("ten", "--at: expected comma-separated integers, got 'ten'"),
            ("9999", "--at: checkpoint 9999 outside 0..500"),
        ],
    )
    def test_checkpoints_checked_before_simulating(self, monkeypatch, capsys, at, message):
        def no_simulation(*args, **kwargs):
            raise AssertionError("run_monte_carlo called before --at was checked")

        monkeypatch.setattr(dremnet.cli, "run_monte_carlo", no_simulation)
        assert main(["compare", "--at", at]) == 1
        assert message in capsys.readouterr().err


def test_module_entry_point_in_process(monkeypatch, capsys):
    # dremnet/__main__.py as `python -m dremnet` runs it, guard included
    monkeypatch.setattr(sys, "argv", ["dremnet", "run", "--steps", "5"])
    with pytest.raises(SystemExit) as stop:
        runpy.run_module("dremnet", run_name="__main__")
    assert stop.value.code == 0
    assert "horizon 5" in capsys.readouterr().out


def test_module_entry_point():
    # the child imports the same dremnet as the test session, installed or not
    src = str(Path(dremnet.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "dremnet", "run", "--steps", "5"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    assert "horizon 5" in proc.stdout
