"""CLI tests: flag parsing, output schemas, determinism, exit codes."""
import argparse
import contextlib
import hashlib
import json
import math
import os
import subprocess
import sys
import time
import warnings

import numpy as np
import pytest
from scipy import special

from hyperbessel import cli
from hyperbessel import kernels as kn
from hyperbessel import sampling as sp
from hyperbessel import verify as vf
from hyperbessel.hypergroup import (BesselKingmanParams, ContinuousPoint, DiscretePoint,
                                    HeisPoint, LaguerreParams, bk_character, bk_fourier,
                                    lag_character)
from hyperbessel.quadrature import QuadratureSpec


def run_cli(args, capsys):
    code = cli.main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestStateAndGridParsing:
    def test_discrete_state(self):
        assert cli.parse_state("tau=-2,k=0") == DiscretePoint(-2.0, 0)

    def test_continuous_state(self):
        assert cli.parse_state("y1=0.7") == ContinuousPoint(0.7)

    def test_bad_state(self):
        for bad in ["tau=1", "k=2", "y1=-1", "tau=0,k=1", "nonsense"]:
            with pytest.raises(cli.CliError):
                cli.parse_state(bad)

    @pytest.mark.parametrize("argv, state, key", [
        # ran from tau = -5, its atoms at tau = -4
        (["qbes-kernel", "--delta", "1", "--t", "1", "--state"], "tau=-2,k=0,tau=-5", "tau"),
        (["qbes-sim", "--delta", "2", "--t-grid", "1", "--start"], "tau=1,k=0,k=3", "k"),
        # evaluated at y1 = 4
        (["char-eval", "--family", "laguerre", "--alpha", "1", "--x-grid", "1", "--w-grid", "0",
          "--state"], "y1=1,y1=4", "y1"),
    ])
    def test_repeated_state_component(self, argv, state, key, capsys):
        # the last repeated component won, with exit 0
        code, out, err = run_cli(argv + [state], capsys)
        assert (code, out, err) == (
            1, "", f"hyperbessel: error: repeated state component {key!r} in {state!r}\n")

    def test_grids(self):
        assert cli.parse_grid("0.5,1.0") == [0.5, 1.0]
        assert cli.parse_grid("0:1:3") == [0.0, 0.5, 1.0]


class TestQbesKernel:
    # sha256 of stdout and stderr of the per-atom law code: the nine qbes-kernel
    # laws of the tabulate benchmark at their design points, and the README law
    @pytest.mark.parametrize("delta, state, t, code, out_sha, err_sha", [
        pytest.param("1.3", "tau=-1,k=4", "0.996", 0,
                     "0a6997f7336fd1dfc95f56b8f62b1327eef532f12991942d1a8fdf64bc13db96",
                     "", marks=pytest.mark.dispatch_pinned),
        pytest.param("2", "tau=-1,k=0", "0.992", 0,
                     "cab600a979f21721302bcf35cfc4aa9052f7a67802c14367d565765ed6841040",
                     "", marks=pytest.mark.dispatch_pinned),
        ("0.9", "tau=-1.5,k=8", "1.496", 1,
         "",
         "04fe52608f74d28ca14b63c8b2ed32039d0406177b78f365a2d02c19d6ce9d80"),
        pytest.param("2.5", "y1=2000", "1", 0,
                     "33cc0c8af78401ac6299907138123b0d75c30563069b2faa674a3c96721a384e",
                     "", marks=pytest.mark.dispatch_pinned),
        ("2.5", "y1=2003.09", "1", 1,
         "",
         "d6ed1fa3bc786322586c23268336a436f4360ccd6346d443ef523e5551ebb921"),
        pytest.param("1", "y1=700", "1", 0,
                     "67957fbd258ace81f92a0825cb5d495033fcae9d39b7b22bed176b56718b76b4",
                     "", marks=pytest.mark.dispatch_pinned),
        pytest.param("1.5", "tau=-0.5,k=200", "1.5", 0,
                     "36cdcfde8eedc63adf2f72e3922c0bdb160927cc27f26d5a0a84e83c9ff3fa43",
                     "", marks=pytest.mark.dispatch_pinned),
        pytest.param("3", "tau=2,k=300", "0.5", 0,
                     "31b025dd58946510f7f865920a37fc638c15f1b3ccf01c1854f0122cd128315d",
                     "", marks=pytest.mark.dispatch_pinned),
        ("0.7", "tau=-2,k=5", "0.5", 0,
         "d4524726085ed2242e19006f17136cd9dc97bb5fde8211eae25010d5b3961525",
         ""),
        ("1", "tau=-2,k=0", "1", 0,
         "5f22e69129db9b71d2a3aa5db02e8e6497accbb6e6b334cd5dfae91acfc01b56",
         ""),
    ])
    def test_golden_bytes(self, capsys, delta, state, t, code, out_sha, err_sha):
        got, out, err = run_cli(["qbes-kernel", "--delta", delta, "--state", state, "--t", t],
                                capsys)
        digest = [hashlib.sha256(s.encode()).hexdigest() if s else "" for s in (out, err)]
        assert (got, *digest) == (code, out_sha, err_sha)

    def test_case5_start_ray_past_1e16_t(self, capsys):
        # s / u rounds to 1.0 here; this exited 1 with "math domain error"
        code, out, err = run_cli(["qbes-kernel", "--delta", "1", "--state", "tau=1e16,k=2",
                                  "--t", "1"], capsys)
        assert (code, err) == (0, "")
        law = json.loads(out)
        assert law["case"] == 5
        assert [a["k"] for a in law["atoms"]] == [0, 1, 2]
        assert all(a["tau"] == 1e16 for a in law["atoms"])
        assert [a["prob"] for a in law["atoms"]] == pytest.approx([1e-32, 2e-16, 1.0],
                                                                  rel=1e-12)

    def test_case1_time_below_1e16_of_the_start_ray(self, capsys):
        # u / s rounds to 1.0 here; this exited 1 with "math domain error"
        code, out, err = run_cli(["qbes-kernel", "--delta", "1.4", "--state", "tau=-1,k=0",
                                  "--t", "1e-17"], capsys)
        assert (code, err) == (0, "")
        assert json.loads(out) == {"case": 1, "gamma": None, "tail_mass": 0.0, "atoms": [
            {"tau": -1.0, "k": 0, "y1": None, "prob": 1.0}]}

    def test_ray_coordinate_overflow_names_it_and_t(self, capsys):
        # u = tau + t = inf; this exited 1 with "math domain error"
        code, out, err = run_cli(["qbes-kernel", "--delta", "1", "--state", "tau=1e308,k=2",
                                  "--t", "1e308"], capsys)
        assert (code, out, err) == (1, "", "hyperbessel: error: the ray coordinate tau + t "
                                           "overflows at t = 1e+308; it must be finite\n")

    def test_geometric_example(self, capsys):
        code, out, _ = run_cli(["qbes-kernel", "--delta", "1",
                                "--state", "tau=-2,k=0", "--t", "1"], capsys)
        assert code == 0
        law = json.loads(out)
        assert law["case"] == 1
        for atom in law["atoms"][:10]:
            assert atom["tau"] == -1.0
            assert atom["prob"] == pytest.approx(2.0 ** -(atom["k"] + 1), rel=1e-12)

    def test_readme_example(self, capsys):
        # the README kernel example: a law whose atoms and tail hold mass 1
        code, out, err = run_cli(["qbes-kernel", "--delta", "1", "--state", "tau=-2,k=0",
                                  "--t", "1"], capsys)
        assert (code, err) == (0, "")
        law = json.loads(out)
        assert list(law) == ["case", "atoms", "gamma", "tail_mass"]
        assert abs(math.fsum([a["prob"] for a in law["atoms"]] + [law["tail_mass"]]) - 1.0) \
            <= 1e-12

    def test_json_round_trip(self, capsys):
        code, out, _ = run_cli(["qbes-kernel", "--delta", "1.5",
                                "--state", "tau=-1,k=0", "--t", "1"], capsys)
        assert code == 0
        data = json.loads(out)
        law = kn.qbes_transition(DiscretePoint(-1.0, 0), 1.0, 1.5)
        assert data == {"case": law.case, "atoms": [], "gamma": {"shape": 1.5, "scale": 1.0},
                        "tail_mass": 0.0}
        assert kn.GammaRay(**data["gamma"]) == law.gamma_ray

    def test_csv_rejected(self, capsys):
        code, _, err = run_cli(["qbes-kernel", "--delta", "1", "--state", "tau=1,k=0",
                                "--t", "1", "--format", "csv"], capsys)
        assert code == 1
        assert "error" in err

    def test_invalid_delta(self, capsys):
        code, _, err = run_cli(["qbes-kernel", "--delta", "0",
                                "--state", "tau=1,k=0", "--t", "1"], capsys)
        assert code == 1
        assert err.count("\n") == 1


HUGE_LEVEL_ROWS = """\
path_id,time,coord0,coord1,branch,k
0,0.5,-0.5,4944,discrete,9888
0,0.99999999999999989,-1.1102230246251565e-16,4881.4263361893882,discrete,43967979657398109856
0,1.5,0.5,4948.5,discrete,9897
1,0.5,-0.5,4976,discrete,9952
1,0.99999999999999989,-1.1102230246251565e-16,4943.1096688534954,discrete,44523573725400196832
1,1.5,0.5,4934,discrete,9868
2,0.5,-0.5,4989.5,discrete,9979
2,0.99999999999999989,-1.1102230246251565e-16,5019.7603701069092,discrete,45213981864605320955
2,1.5,0.5,5052.5,discrete,10105
"""


class TestSim:
    def test_deterministic_absorbing_paths(self, capsys, tmp_path):
        out_file = tmp_path / "paths.csv"
        code, _, _ = run_cli(["qbes-sim", "--delta", "2", "--start", "tau=1,k=0",
                              "--t-grid", "0.5,1.0", "--paths", "3", "--seed", "7",
                              "--out", str(out_file)], capsys)
        assert code == 0
        lines = out_file.read_text().splitlines()
        assert lines[0] == "path_id,time,coord0,coord1,branch,k"
        assert lines[1] == "0,0.5,1.5,0,discrete,0"
        # three identical deterministic paths at level 0
        body = [line.split(",", 1)[1] for line in lines[1:]]
        assert body[0:2] == body[2:4] == body[4:6]

    def test_batch_size_invariance(self, capsys, tmp_path):
        # each path has its own stream: path i's rows do not depend on --paths
        outputs = {}
        for paths in (16, 32):
            out_file = tmp_path / f"paths_{paths}.csv"
            code, _, _ = run_cli(["qbes-sim", "--delta", "1.5", "--start", "tau=-1,k=1",
                                  "--t-grid", "0.5,1.0,1.5", "--paths", str(paths),
                                  "--seed", "42", "--out", str(out_file)], capsys)
            assert code == 0
            outputs[paths] = out_file.read_bytes().splitlines(keepends=True)
        assert len(outputs[16]) == 1 + 16 * 3
        assert outputs[32][:len(outputs[16])] == outputs[16]

    def test_continuous_rows_schema(self, capsys):
        code, out, _ = run_cli(["qbes-sim", "--delta", "1.5", "--start", "tau=-1,k=0",
                                "--t-grid", "1.0,2.0", "--paths", "1", "--seed", "3"], capsys)
        assert code == 0
        lines = out.splitlines()
        first = lines[1].split(",")
        assert first[4] == "continuous" and first[5] == "-1" and first[2] == "0"
        second = lines[2].split(",")
        assert second[4] == "discrete" and second[2] == "1"

    def test_huge_levels_stay_exact(self, capsys):
        # one ulp short of the crossing: case 1 lands on levels above 2^63
        code, out, err = run_cli(["qbes-sim", "--delta", "1.5", "--start", "tau=-1,k=5000",
                                  "--t-grid", "0.5,0.9999999999999999,1.5", "--paths", "3",
                                  "--seed", "1"], capsys)
        assert (code, err) == (0, "")
        assert out == HUGE_LEVEL_ROWS

    def test_bes_sim(self, capsys):
        code, out, _ = run_cli(["bes-sim", "--delta", "2", "--x0", "1.0",
                                "--t-grid", "0.5,1.0", "--paths", "2", "--seed", "1"], capsys)
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "path_id,time,coord0,coord1,branch,k"
        assert len(lines) == 5
        assert all(float(line.split(",")[2]) >= 0.0 for line in lines[1:])

    def test_bad_grid(self, capsys):
        code, _, err = run_cli(["qbes-sim", "--delta", "2", "--start", "tau=1,k=0",
                                "--t-grid", "1.0,0.5", "--paths", "1"], capsys)
        assert code == 1

    GRID_ERROR = "hyperbessel: error: --t-grid must be finite, strictly increasing " \
                 "and start after 0\n"

    @pytest.mark.parametrize("grid", ["0.5,inf", "0.5,nan", "0.5,nan,1.0", "nan", "inf"])
    @pytest.mark.parametrize("argv", [
        ["qbes-sim", "--delta", "2", "--start", "tau=1,k=2"],
        ["bes-sim", "--delta", "2", "--x0", "1"],
    ])
    def test_non_finite_grid(self, argv, grid, capsys):
        code, out, err = run_cli(argv + ["--t-grid", grid], capsys)
        assert (code, out, err) == (1, "", self.GRID_ERROR)

    @pytest.mark.parametrize("argv", [
        ["qbes-sim", "--delta", "2", "--start", "tau=1,k=2", "--t-grid", "0.5"],
        ["bes-sim", "--delta", "2", "--x0", "1", "--t-grid", "0.5"],
    ])
    def test_path_count(self, argv, capsys):
        code, out, err = run_cli(argv + ["--paths", "-3"], capsys)
        assert (code, out, err) == (1, "", "hyperbessel: error: --paths must be >= 0\n")
        code, out, _ = run_cli(argv + ["--paths", "0"], capsys)
        assert (code, out) == (0, "path_id,time,coord0,coord1,branch,k\n")

    @pytest.mark.parametrize("argv, message", [
        # the three qbes-sim cases named qbes_transition, which the command never calls
        (["qbes-sim", "--delta", "-1", "--start", "tau=-1,k=2"],
         "sample_qbes_lanes requires delta > 0"),
        (["qbes-sim", "--delta", "nan", "--start", "tau=1,k=2"],
         "sample_qbes_lanes requires delta > 0"),
        (["qbes-sim", "--delta", "inf", "--start", "y1=1"],
         "sample_qbes_lanes requires delta > 0"),
        (["bes-sim", "--delta", "nan", "--x0", "1"],
         "sample_bes_lanes requires finite t > 0 and delta > 0"),
        (["bes-sim", "--delta", "inf", "--x0", "1"],
         "sample_bes_lanes requires finite t > 0 and delta > 0"),
        (["bes-sim", "--delta", "-1", "--x0", "0"],
         "sample_bes_lanes requires finite t > 0 and delta > 0"),
        (["bes-sim", "--delta", "2", "--x0", "inf"], "--x0 must be finite and >= 0"),
        (["bes-sim", "--delta", "2", "--x0", "nan"], "--x0 must be finite and >= 0"),
        (["bes-sim", "--delta", "2", "--x0=-1"], "--x0 must be finite and >= 0"),
    ])
    def test_invalid_parameters(self, argv, message, capsys):
        code, out, err = run_cli(argv + ["--t-grid", "0.5"], capsys)
        assert (code, out, err) == (1, "", f"hyperbessel: error: {message}\n")

    @pytest.mark.parametrize("argv, message", [
        (["bes-sim", "--delta", "2", "--x0", "1e200", "--t-grid", "1"],
         "x0^2/(2t) overflows on the step to grid time 1.0"),
        (["bes-sim", "--delta", "2", "--x0", "1", "--t-grid", "1e-320,1"],
         "x0^2/(2t) overflows on the step to grid time 1e-320"),
        # the first step's rate is 5e299; the second step is 1e-116 long
        (["bes-sim", "--delta", "2", "--x0", "1e100",
          "--t-grid", "1e-100,1.0000000000000001e-100"],
         "x0^2/(2t) overflows on the step to grid time 1.0000000000000001e-100"),
        (["qbes-sim", "--delta", "2", "--start", "y1=1e300", "--t-grid", "1e-10"],
         "y1/t overflows on the step to grid time 1e-10"),
        (["qbes-sim", "--delta", "1", "--start", f"tau=-1,k={10 ** 300}",
          "--t-grid", "1.0000000000000002"],
         "the negative-binomial rate Gamma(delta + k) (1-p)/p overflows on the step to "
         "grid time 1.0000000000000002"),
        # the last three reported "sample_gamma requires finite positive shape and scale",
        # "DiscretePoint requires nonzero finite tau" and "ContinuousPoint requires y1 >= 0"
        (["bes-sim", "--delta", "2", "--x0", "1", "--t-grid", "1e-300,1.7e308"],
         "the gamma scale 2t overflows on the step to grid time 1.7e+308"),
        (["qbes-sim", "--delta", "1", "--start", "tau=1e308,k=1", "--t-grid", "1e308"],
         "the ray coordinate tau + t overflows on the step to grid time 1e+308"),
        (["qbes-sim", "--delta", "2", "--start", "tau=-1e308,k=0", "--t-grid", "1e308"],
         "the continuous coordinate y1 overflows on the step to grid time 1e+308"),
    ])
    def test_step_rate_overflow_names_its_input_and_grid_time(self, argv, message, capsys):
        # the rates once reported "sample_poisson requires a finite rate >= 0"
        code, out, err = run_cli(argv + ["--paths", "3"], capsys)
        assert (code, out, err) == (1, "", f"hyperbessel: error: {message}; it must be finite\n")


class TestTables:
    def test_bes_density_csv(self, capsys):
        code, out, _ = run_cli(["bes-density", "--delta", "1", "--t", "0.7",
                                "--x", "1.3", "--y-grid", "0.0,1.3"], capsys)
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "y,density"
        got = float(lines[2].split(",")[1])
        want = (1.0 + math.exp(-(2.0 * 1.3) ** 2 / 1.4)) / math.sqrt(2.0 * math.pi * 0.7)
        assert got == pytest.approx(want, rel=1e-12)

    def test_char_eval_bk(self, capsys):
        code, out, _ = run_cli(["char-eval", "--family", "bk", "--alpha", "1",
                                "--u-grid", "1.0", "--x-grid", "0.5"], capsys)
        assert code == 0
        val = float(out.splitlines()[1].split(",")[2])
        assert val == pytest.approx(math.cos(0.5), rel=1e-12)

    def test_char_eval_laguerre_json(self, capsys):
        code, out, _ = run_cli(["char-eval", "--family", "laguerre", "--alpha", "0.5",
                                "--state", "tau=1,k=0", "--x-grid", "1.0",
                                "--w-grid", "0.0", "--format", "json"], capsys)
        assert code == 0
        row = json.loads(out)[0]
        assert row["re"] == pytest.approx(math.exp(-0.5), rel=1e-12)
        assert row["im"] == 0.0

    def test_char_eval_missing_flags(self, capsys):
        code, _, err = run_cli(["char-eval", "--family", "laguerre", "--alpha", "0.5",
                                "--x-grid", "1.0"], capsys)
        assert code == 1

    @pytest.mark.parametrize("argv,header", [
        (["--family", "bk", "--alpha", "2", "--u-grid=", "--x-grid", "0:2:5"], "u,x,value"),
        (["--family", "bk", "--alpha", "2", "--u-grid", "0:1:0", "--x-grid", "1"], "u,x,value"),
        (["--family", "laguerre", "--alpha", "0.5", "--state", "tau=1,k=2",
          "--x-grid", "1", "--w-grid="], "x,w,re,im"),
        (["--family", "laguerre", "--alpha", "0.5", "--state", "y1=1",
          "--x-grid", "1", "--w-grid", "0:1:0"], "x,w,re,im"),
    ])
    def test_char_eval_empty_grid_is_a_header(self, argv, header, capsys):
        # an empty --u-grid or --w-grid exited 1 as if the option were missing
        assert run_cli(["char-eval"] + argv, capsys) == (0, header + "\n", "")
        assert run_cli(["char-eval"] + argv + ["--format", "json"], capsys) == (0, "[]\n", "")

    @pytest.mark.parametrize("argv,message", [
        (["--family", "bk", "--alpha", "2", "--x-grid", "1"],
         "char-eval --family bk requires --u-grid"),
        (["--family", "laguerre", "--alpha", "0.5", "--x-grid", "1", "--w-grid", "0"],
         "char-eval --family laguerre requires --state and --w-grid"),
        (["--family", "laguerre", "--alpha", "0.5", "--x-grid", "1", "--state", "y1=1"],
         "char-eval --family laguerre requires --state and --w-grid"),
    ])
    def test_char_eval_missing_option(self, argv, message, capsys):
        assert run_cli(["char-eval"] + argv, capsys) == (1, "", f"hyperbessel: error: {message}\n")

    @pytest.mark.parametrize("argv,message", [
        (["--family", "bk", "--alpha", "2", "--u-grid", "1", "--x-grid", "1",
          "--state", "garbage"], "char-eval --family bk takes no --state or --w-grid"),
        (["--family", "bk", "--alpha", "2", "--u-grid", "1", "--x-grid", "1", "--w-grid", "0"],
         "char-eval --family bk takes no --state or --w-grid"),
        (["--family", "bk", "--alpha", "2", "--u-grid", "1", "--x-grid", "1", "--w-grid="],
         "char-eval --family bk takes no --state or --w-grid"),
        (["--family", "laguerre", "--alpha", "0.5", "--state", "tau=1,k=2", "--x-grid", "1",
          "--w-grid", "0", "--u-grid", "5"], "char-eval --family laguerre takes no --u-grid"),
        (["--family", "laguerre", "--alpha", "0.5", "--state", "tau=1,k=2", "--x-grid", "1",
          "--w-grid", "0", "--u-grid="], "char-eval --family laguerre takes no --u-grid"),
    ])
    def test_char_eval_other_family_option(self, argv, message, capsys):
        # each exited 0 with the option silently ignored
        assert run_cli(["char-eval"] + argv, capsys) == (1, "", f"hyperbessel: error: {message}\n")

    def test_hankel_gaussian(self, capsys):
        code, out, _ = run_cli(["hankel", "--alpha", "1", "--function", "gaussian",
                                "--u-grid", "0.0,1.0", "--cutoff", "12"], capsys)
        assert code == 0
        rows = [line.split(",") for line in out.splitlines()[1:]]
        for u_str, val_str in rows:
            want = math.sqrt(math.pi / 2.0) * math.exp(-0.5 * float(u_str) ** 2)
            assert float(val_str) == pytest.approx(want, abs=1e-9)

    @pytest.mark.dispatch_pinned
    def test_hankel_readme_example_bytes(self, capsys):
        # sha256 of stdout when the alpha = 1 Haar weight was a separate np.ones_like
        code, out, err = run_cli(["hankel", "--alpha", "1", "--function", "gaussian",
                                  "--u-grid", "0:3:31", "--cutoff", "12"], capsys)
        assert (code, hashlib.sha256(out.encode()).hexdigest(), err) == (
            0, "5d24093b89892d06693c2614ea093bed74ff4863c7e85b1a669bbb4cdde4c8d6", "")

    def test_hankel_indicator(self, capsys):
        # alpha = 1, f = 1_[0,1]: transform(u) = sin(u)/u
        code, out, _ = run_cli(["hankel", "--alpha", "1", "--function", "indicator",
                                "--u-grid", "0.5,2.0"], capsys)
        assert code == 0
        for line in out.splitlines()[1:]:
            u, val = (float(v) for v in line.split(","))
            assert val == pytest.approx(math.sin(u) / u, abs=1e-9)

    @pytest.mark.parametrize("flag,value,message", [
        ("--tol", "inf", "QuadratureSpec.abs_tol must be finite and positive"),
        ("--cutoff", "inf", "bk_fourier requires a finite positive cutoff"),
        ("--cutoff", "nan", "bk_fourier requires a finite positive cutoff"),
    ])
    def test_hankel_non_finite_controls(self, flag, value, message, capsys):
        # one diagnostic line on stderr, no numpy warning and no table
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(["hankel", "--alpha", "2", "--function", "gaussian",
                                      "--u-grid", "1", flag, value], capsys)
        assert code == 1
        assert out == ""
        assert err == f"hyperbessel: error: {message}\n"


    @pytest.mark.parametrize("argv,message", [
        (["--alpha", "1.1", "--u-grid", "0,-1"], "bk_fourier requires u >= 0"),
        (["--alpha", "2", "--u-grid", "1,nan,2"], "z must not be NaN"),
        (["--alpha", "2", "--u-grid", "1,-1,2"], "bk_fourier requires u >= 0"),
        (["--alpha", "2", "--u-grid", "1,inf"], "bessel_j_norm requires finite z >= 0"),
    ])
    def test_hankel_u_grid_errors(self, argv, message, capsys):
        # the error of the first u that fails, as a loop over the grid gives it
        code, out, err = run_cli(["hankel", "--function", "gaussian"] + argv, capsys)
        assert code == 1
        assert out == ""
        assert err == f"hyperbessel: error: {message}\n"

    @pytest.mark.parametrize("alpha,function,u_grid,cutoff", [
        # the two rows that exhausted toward 0 while x^(alpha-1) met Legendre panels alone
        ("1.1", "gaussian", "0:4:16", "12"),
        ("1.05", "gaussian", "0:3:4", "30"),
        *[(alpha, "gaussian", "0:4:16", "12")
          for alpha in ("1.01", "1.2", "1.5", "1.9", "2.5", "2.95")],
        ("1.5", "indicator", "0:25:30", "30"),
        ("4.1", "indicator", "0:25:30", "30"),
    ])
    def test_hankel_non_integer_alpha_matches_closed_form(self, alpha, function, u_grid,
                                                          cutoff, capsys):
        # Gaussian: 2^(alpha/2-1) Gamma(alpha/2) e^(-u^2/2); indicator of [0, 1]:
        # j_(alpha/2)(u) / alpha = Gamma(alpha/2+1) (2/u)^(alpha/2) J_(alpha/2)(u) / alpha
        code, out, err = run_cli(["hankel", "--alpha", alpha, "--function", function,
                                  "--u-grid", u_grid, "--cutoff", cutoff], capsys)
        assert (code, err) == (0, "")
        u, value = np.array([[float(v) for v in line.split(",")]
                             for line in out.splitlines()[1:]]).T
        assert u.size == int(u_grid.split(":")[2])
        a = float(alpha)
        if function == "gaussian":
            want = 2.0 ** (a / 2 - 1) * special.gamma(a / 2) * np.exp(-0.5 * u * u)
        else:
            with np.errstate(divide="ignore", invalid="ignore"):
                want = np.where(u > 0.0, special.gamma(a / 2 + 1) * (2.0 / u) ** (a / 2)
                                * special.jv(a / 2, u), 1.0) / a
        assert np.max(np.abs(value - want)) <= 1e-12

    def test_hankel_json_rows_match_csv(self, capsys):
        argv = ["hankel", "--alpha", "2.5", "--function", "gaussian", "--u-grid", "0:6:13"]
        code, csv_out, _ = run_cli(argv, capsys)
        assert code == 0
        code, json_out, _ = run_cli(argv + ["--format", "json"], capsys)
        assert code == 0
        rows = [[float(v) for v in line.split(",")] for line in csv_out.splitlines()[1:]]
        assert [[r["u"], r["value"]] for r in json.loads(json_out)] == rows
        assert len(rows) == 13

    def test_hankel_empty_grid(self, capsys):
        code, out, err = run_cli(["hankel", "--alpha", "2", "--function", "gaussian",
                                  "--u-grid", "0:1:0"], capsys)
        assert (code, out, err) == (0, "u,value\n", "")


class TestLargeOrderTables:
    """Orders where a fixed z = 25 / y = 600 Hankel switch was wrong.

    References: 50-digit mpmath, nu, z, y taken exactly from the parsed doubles;
    the density is 2 y^(delta-1) / ((2t)^(delta/2) Gamma(delta/2))
    * i_(delta/2-1)(x y / t) * exp(-(x^2 + y^2) / (2t)).
    """

    def test_char_eval_bk_alpha82(self, capsys):
        code, out, _ = run_cli(["char-eval", "--family", "bk", "--alpha", "82",
                                "--u-grid", "1", "--x-grid", "25.5"], capsys)
        assert code == 0
        value = float(out.splitlines()[1].split(",")[2])
        assert abs(value - 0.01529833004857060695422886) <= 1e-12

    def test_bes_density_delta82(self, capsys):
        code, out, _ = run_cli(["bes-density", "--delta", "82", "--t", "1", "--x", "30",
                                "--y-grid", "20.1"], capsys)
        assert code == 0
        value = float(out.splitlines()[1].split(",")[1])
        assert value == pytest.approx(4.988656609137588227880132e-30, rel=1e-10, abs=0.0)

    def test_bes_density_delta4002(self, capsys):
        # x y / t in the band where ive(2000, .) underflows and the plain
        # series overflows; the first density is 4.7e-356 and rounds to 0
        code, out, _ = run_cli(["bes-density", "--delta", "4002", "--t", "1", "--x", "52",
                                "--y-grid", "50"], capsys)
        assert code == 0
        assert out == "y,density\n50,0\n"
        code, out, _ = run_cli(["bes-density", "--delta", "4002", "--t", "1", "--x", "36",
                                "--y-grid", "72.8"], capsys)
        assert code == 0
        value = float(out.splitlines()[1].split(",")[1])
        assert value == pytest.approx(0.5055472209617336399739909, rel=1e-10, abs=0.0)


def _loop_reference(argv, path):
    """The per-point loop the table commands ran before one array call served
    each table; returns the error message or None after writing path."""
    args = cli.build_parser().parse_args(argv + ["--out", str(path)])
    rows = []
    try:
        if args.command == "bes-density":
            density = kn.BesDensity(args.delta, args.t, args.x)
            rows = [[y, kn.bes_density(density, y)] for y in cli.parse_grid(args.y_grid)]
            header = ["y", "density"]
        elif args.command == "hankel":
            p = BesselKingmanParams(args.alpha)
            spec = QuadratureSpec(abs_tol=args.tol)
            cutoff = min(args.cutoff, math.nextafter(1.0, 2.0)) \
                if args.function == "indicator" else args.cutoff
            f = cli._HANKEL_FUNCTIONS[args.function]
            rows = [[u, bk_fourier(f, u, p, spec, cutoff=cutoff)]
                    for u in cli.parse_grid(args.u_grid)]
            header = ["u", "value"]
        elif args.family == "bk":
            p = BesselKingmanParams(args.alpha)
            for u in cli.parse_grid(args.u_grid):
                for x in cli.parse_grid(args.x_grid):
                    rows.append([u, x, bk_character(u, x, p)])
            header = ["u", "x", "value"]
        else:
            p = LaguerreParams(args.alpha)
            c = cli.parse_state(args.state)
            for x in cli.parse_grid(args.x_grid):
                for w in cli.parse_grid(args.w_grid):
                    val = lag_character(c, HeisPoint(x, w), p)
                    rows.append([x, w, val.real, val.imag])
            header = ["x", "w", "re", "im"]
    except ValueError as exc:
        return str(exc)
    # the table writer of that loop: one format(v, ".17g") per value
    if args.format == "json":
        text = json.dumps([dict(zip(header, row)) for row in rows], separators=(",", ":"))
    else:
        text = "\n".join([",".join(header)]
                         + [",".join(format(v, ".17g") for v in row) for row in rows])
    path.write_text(text + "\n", encoding="utf-8")
    return None


class TestTablesMatchPointLoop:
    """One array call per table writes the bytes the per-point loop wrote."""

    TABLES = [
        ["char-eval", "--family", "bk", "--alpha", "2", "--u-grid", "0:2:5", "--x-grid", "0:2:5"],
        ["char-eval", "--family", "bk", "--alpha", "61.3", "--u-grid", "0:2:20",
         "--x-grid", "0:24:16"],
        ["char-eval", "--family", "laguerre", "--alpha", "0.5", "--state", "tau=1,k=2",
         "--x-grid", "0:2:5", "--w-grid=-1:1:5"],
        ["char-eval", "--family", "laguerre", "--alpha", "0.52", "--state", "tau=-1.47,k=9",
         "--x-grid", "0:3:40", "--w-grid=-2:2:40"],
        ["char-eval", "--family", "laguerre", "--alpha", "30.2", "--state", "y1=4.1",
         "--x-grid", "0:8:20", "--w-grid=-1:1:3"],
        ["bes-density", "--delta", "2.5", "--t", "0.7", "--x", "1.3", "--y-grid", "0:4:81"],
        ["bes-density", "--delta", "0.7", "--t", "0.7", "--x", "1.3", "--y-grid", "0:4:81"],
        ["bes-density", "--delta", "60.4", "--t", "1", "--x", "30.1", "--y-grid", "0:40:200"],
        # repeated values and -0 coordinates: each value's cell is formatted once
        ["char-eval", "--family", "bk", "--alpha", "2.5", "--u-grid=-0,1.5,0,1.5,-0",
         "--x-grid=2,-0,2,0.1,0.1"],
        ["char-eval", "--family", "laguerre", "--alpha", "0.5", "--state", "tau=-1.2,k=3",
         "--x-grid=-0,0.7,0.7,0", "--w-grid=-0,1,-1,1,0"],
        ["char-eval", "--family", "laguerre", "--alpha", "1.5", "--state", "y1=2",
         "--x-grid=0.3,0.3,-0", "--w-grid=-0,0,-0"],
        ["bes-density", "--delta", "2.5", "--t", "0.7", "--x", "1.3", "--y-grid=-0,1,1,0,-0"],
        # single points and empty grids, on either axis
        ["char-eval", "--family", "bk", "--alpha", "2", "--u-grid", "0.5", "--x-grid", "3"],
        ["char-eval", "--family", "bk", "--alpha", "2", "--u-grid=", "--x-grid", "0:2:5"],
        ["char-eval", "--family", "bk", "--alpha", "2", "--u-grid", "0:2:5", "--x-grid="],
        ["char-eval", "--family", "laguerre", "--alpha", "0.5", "--state", "tau=1,k=2",
         "--x-grid", "0.5", "--w-grid=-1"],
        ["char-eval", "--family", "laguerre", "--alpha", "0.5", "--state", "tau=1,k=2",
         "--x-grid", "0:2:5", "--w-grid="],
        ["char-eval", "--family", "laguerre", "--alpha", "0.5", "--state", "y1=1",
         "--x-grid=", "--w-grid=-1:1:5"],
        ["bes-density", "--delta", "2.5", "--t", "0.7", "--x", "1.3", "--y-grid", "1.1"],
        ["bes-density", "--delta", "2.5", "--t", "0.7", "--x", "1.3", "--y-grid="],
        # transforms, each row against a lone scalar bk_fourier call
        ["hankel", "--alpha", "2.5", "--function", "gaussian", "--u-grid", "0:6:7",
         "--cutoff", "12"],
        ["hankel", "--alpha", "1.1", "--function", "gaussian", "--u-grid=-0,2,2,0",
         "--cutoff", "12"],
        ["hankel", "--alpha", "4.1", "--function", "indicator", "--u-grid", "0:25:6"],
        ["hankel", "--alpha", "3", "--function", "gaussian", "--u-grid", "1.5",
         "--cutoff", "12"],
        ["hankel", "--alpha", "3", "--function", "gaussian", "--u-grid=", "--cutoff", "12"],
    ]

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("argv", TABLES)
    def test_bytes(self, argv, fmt, capsys, tmp_path):
        argv = argv + ["--format", fmt]
        assert _loop_reference(argv, tmp_path / "ref") is None
        code, _, _ = run_cli(argv + ["--out", str(tmp_path / "new")], capsys)
        assert code == 0
        assert (tmp_path / "new").read_bytes() == (tmp_path / "ref").read_bytes()

    LAGUERRE = ["char-eval", "--family", "laguerre", "--alpha", "0.5"]
    BK = ["char-eval", "--family", "bk", "--alpha", "2", "--x-grid", "1"]

    @pytest.mark.parametrize("argv", [
        LAGUERRE + ["--state", "tau=1,k=2", "--x-grid=-1:1:3", "--w-grid=0"],
        LAGUERRE + ["--state", "tau=1,k=2", "--x-grid=0,1,inf", "--w-grid=0"],
        LAGUERRE + ["--state", "tau=1,k=2", "--x-grid=0,1", "--w-grid=0,nan"],
        LAGUERRE + ["--state", "y1=1", "--x-grid=1,-1,nan", "--w-grid=0"],
        LAGUERRE + ["--state", "y1=1", "--x-grid=1,nan,-1", "--w-grid=0"],
        BK + ["--u-grid=-1,nan"],
        BK + ["--u-grid=nan,-1"],
        BK + ["--u-grid=1,inf"],
        # u x overflows: the first point that fails names the error
        BK[:-1] + ["10", "--u-grid=1,1e308,nan"],
        BK[:-1] + ["10", "--u-grid=1,nan,1e308"],
        BK[:-1] + ["10", "--u-grid=-1,-1e308"],
        BK[:-1] + ["0,10", "--u-grid=-1e308,1"],
        ["bes-density", "--delta", "2", "--t", "1", "--x", "1", "--y-grid=1,-1,nan"],
        ["bes-density", "--delta", "2", "--t", "1", "--x", "1", "--y-grid=1,inf"],
        ["bes-density", "--delta", "2", "--t", "1", "--x", "0", "--y-grid=1,inf"],
    ])
    def test_invalid_points(self, argv, capsys, tmp_path):
        want = _loop_reference(argv, tmp_path / "ref")
        assert want is not None
        code, _, err = run_cli(argv, capsys)
        assert code == 1
        assert err == f"hyperbessel: error: {want}\n"


class TestParserPaths:
    """A subcommand's own parser parses, helps and fails as build_parser() does."""

    @staticmethod
    def _full_subparser(name):
        full = cli.build_parser()
        sub = next(a for a in full._actions if isinstance(a, argparse._SubParsersAction))
        return sub.choices[name]

    @pytest.mark.parametrize("name", list(cli._COMMANDS))
    def test_subcommand_help(self, name, monkeypatch, capsys):
        monkeypatch.setenv("COLUMNS", "80")
        with pytest.raises(SystemExit) as stop:
            cli.main([name, "--help"])
        assert stop.value.code == 0
        assert capsys.readouterr().out == self._full_subparser(name).format_help()

    def test_top_level_help(self, monkeypatch, capsys):
        monkeypatch.setenv("COLUMNS", "80")
        with pytest.raises(SystemExit):
            cli.main(["--help"])
        assert capsys.readouterr().out == cli.build_parser().format_help()

    @staticmethod
    def _outcome(parse, argv):
        try:
            return parse(argv)
        except cli.CliError as exc:
            return f"CliError: {exc}"

    @pytest.mark.parametrize("argv, parses", [
        ([], False),  # no command
        (["bogus", "--delta", "1"], False),  # unknown command
        (["qbes-kernel", "--delta", "1", "--t", "1"], False),  # missing required option
        (["qbes-kernel", "--delta", "x", "--state", "tau=1,k=0", "--t", "1"], False),  # type=
        (["char-eval", "--family", "foo", "--alpha", "1", "--x-grid", "1"], False),  # choices=
        (["bes-sim", "--delta", "2", "--x0", "1", "--t-grid", "0.5", "--bogus"], False),
        (["hankel", "--alpha", "2", "--function", "gaussian", "--u-grid", "1", "extra"], False),
        (["verify", "--nodes", "1.5"], False),
        (["qbes-sim", "--del", "2", "--start", "tau=1,k=0", "--t-grid", "0.5"], True),
        (["qbes-kernel", "--delta=1", "--state=tau=-1,k=0", "--t=1.5", "--format", "csv"], True),
        (["char-eval", "--family", "bk", "--alpha", "2", "--u-grid", "1", "--x-grid=-1"], True),
        (["bes-density", "--delta", "2", "--t", "1", "--x", "1", "--y-grid", "1", "--out", "f"],
         True),
        (["verify"], True),
    ])
    def test_same_namespace_or_error(self, argv, parses, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        got = self._outcome(cli._parse, argv)
        assert got == self._outcome(cli.build_parser().parse_args, argv)
        assert isinstance(got, argparse.Namespace) == parses


def law_to_dict(law):
    """kernels.law_to_dict, the dict form the law JSON once came from, verbatim."""
    atoms = [{"tau": law.tau, "k": l, "y1": None, "prob": p}
             for l, p in zip(law.levels, law.probs)]
    gamma = None
    if law.gamma_ray is not None:
        gamma = {"shape": law.gamma_ray.shape, "scale": law.gamma_ray.scale}
    return {"case": law.case, "atoms": atoms, "gamma": gamma, "tail_mass": law.tail_mass}


class TestLawTemplate:
    """qbes-kernel writes the bytes of json.dumps(law_to_dict(law))."""

    @pytest.mark.parametrize("start, t, delta, case, n_atoms", [
        (DiscretePoint(-2.0, 0), 1.0, 1.0, 1, None),
        (DiscretePoint(-1.0, 0), 1.0, 1.5, 2, 0),  # the gamma law: "atoms": []
        (DiscretePoint(-2.0, 5), 2.5, 0.7, 3, None),
        (ContinuousPoint(3.0), 1.0, 2.5, 4, None),
        (ContinuousPoint(0.0), 1.0, 2.5, 4, 1),  # Poisson of rate 0
        (DiscretePoint(2.0, 300), 0.5, 3.0, 5, 301),
        (DiscretePoint(-1.0, 4), 0.996, 1.3, 1, 10_028),
        (DiscretePoint(-1.0, 0), 0.992, 2.0, 1, 3_880),  # tau = -0.008000000000000007
        (DiscretePoint(1.0, 1000), 0.3, 1.0, 5, 1_001),  # probs through subnormals to 0
    ])
    def test_bytes(self, start, t, delta, case, n_atoms):
        law = kn.qbes_transition(start, t, delta)
        assert law.case == case
        assert n_atoms is None or len(law.probs) == n_atoms
        assert kn.law_json(law) == json.dumps(law_to_dict(law))

    def test_edge_values_are_present(self):
        assert kn.qbes_transition(DiscretePoint(-1.0, 0), 0.992, 2.0).tau == -0.008000000000000007
        probs = kn.qbes_transition(DiscretePoint(1.0, 1000), 0.3, 1.0).probs
        assert 5e-324 in probs and 0.0 in probs

    def test_numpy_floats(self):
        # repr of a numpy 2 float reads np.float64(...); json writes float.__repr__
        law = kn.TransitionLaw(case=5, tau=np.float64(2.5), levels=range(3, 5),
                               probs=(np.float64(0.1), np.float64(0.9)))
        assert kn.law_json(law) == json.dumps(law_to_dict(law))
        assert '"prob": 0.1}' in kn.law_json(law)

    def test_cli_output(self, capsys):
        code, out, err = run_cli(["qbes-kernel", "--delta", "1.3", "--state", "tau=-1,k=4",
                                  "--t", "0.996"], capsys)
        law = kn.qbes_transition(DiscretePoint(-1.0, 4), 0.996, 1.3)
        assert (code, out, err) == (0, json.dumps(law_to_dict(law)) + "\n", "")


@pytest.mark.parametrize("argv", [
    ["qbes-sim", "--delta", "1.5", "--start", "tau=-1,k=0", "--t-grid", "0.5,1.0,2.0,3.5",
     "--paths", "7", "--seed", "3"],
    ["qbes-sim", "--delta", "2.5", "--start", "y1=2", "--t-grid", "0.5,1.0", "--paths", "4"],
    ["bes-sim", "--delta", "0.3", "--x0", "0", "--t-grid", "0.5,1.0", "--paths", "6"],
    ["bes-sim", "--delta", "2", "--x0", "1", "--t-grid", "0.5", "--paths", "0"],
    # coordinates that overflow to inf: json writes Infinity
    ["bes-sim", "--delta", "1e308", "--x0", "0", "--t-grid", "10"],
    ["qbes-sim", "--delta", "1", "--start", "tau=-1e300,k=1000000000", "--t-grid", "1"],
])
def test_sim_json_is_json_dumps_of_csv_rows(argv, capsys):
    # the CSV rows' per-grid-time templates hold the values json.dumps writes
    _, csv_out, _ = run_cli(argv, capsys)
    _, json_out, _ = run_cli(argv + ["--format", "json"], capsys)
    header, *lines = csv_out.splitlines()
    rows = []
    for line in lines:
        i, t, c0, c1, branch, k = line.split(",")
        rows.append(dict(zip(header.split(","),
                             (int(i), float(t), float(c0), float(c1), branch, int(k)))))
    assert json_out == json.dumps(rows, separators=(",", ":")) + "\n"


def run_cli_process(argv, flags=()):
    """The CLI in a fresh interpreter (with the interpreter flags given): its
    warnings reach stderr as users see them."""
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    result = subprocess.run([sys.executable, *flags, "-m", "hyperbessel.cli"] + argv,
                            capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src),
                            timeout=60)
    return result.returncode, result.stdout, result.stderr


@pytest.mark.parametrize("flags", [(), ("-W", "error::RuntimeWarning")])
@pytest.mark.parametrize("argv,message", [
    (["char-eval", "--family", "bk", "--alpha", "2", "--u-grid", "1e308", "--x-grid", "10"],
     "u*x overflows at u=1e+308, x=10.0\n"),
    (["char-eval", "--family", "bk", "--alpha", "2", "--u-grid=1,-1e308", "--x-grid", "0,10"],
     "u*x overflows at u=-1e+308, x=10.0\n"),
    (["hankel", "--alpha", "2", "--function", "gaussian", "--u-grid", "1e308",
      "--cutoff", "12"], "u*x overflows at u=1e+308, x="),
])
def test_character_argument_overflow_is_one_error(argv, message, flags):
    # a numpy overflow warning came first, then an error that blamed bessel_j_norm's z;
    # under -W error::RuntimeWarning the run ended in a traceback
    code, out, err = run_cli_process(argv, flags)
    assert (code, out, err.count("\n")) == (1, "", 1)
    assert err.startswith("hyperbessel: error: bk_character: " + message)


def test_laguerre_overflow_is_one_line_error():
    # exp(-1800) L_2000(3600) printed nan,nan with exit 0 and four warning lines
    argv = ["char-eval", "--family", "laguerre", "--alpha", "0.5", "--state", "tau=1,k=2000",
            "--x-grid", "60", "--w-grid", "0"]
    assert run_cli_process(argv) == (1, "", "hyperbessel: error: lag_character: L_k overflows "
                                            "at x=60.0, w=0.0 (tau=1.0, k=2000); degree too "
                                            "large\n")


def test_laguerre_overflowing_argument():
    # |tau| x^2 overflows to inf: exp(-inf) L_k is 0 at every degree, with no numpy warning
    argv = ["char-eval", "--family", "laguerre", "--alpha", "0.5", "--w-grid", "0", "--state"]
    for k in (0, 2):
        assert run_cli_process(argv + [f"tau=1e300,k={k}", "--x-grid", "1e10"]) == (
            0, "x,w,re,im\n10000000000,0,0,0\n", "")
    assert run_cli_process(argv + ["tau=1,k=1", "--x-grid", "1e200"]) == (
        0, "x,w,re,im\n9.9999999999999997e+199,0,0,0\n", "")
    # a finite but huge argument still overflows L_k
    assert run_cli_process(argv + ["tau=1,k=3", "--x-grid", "1e153"]) == (
        1, "", "hyperbessel: error: lag_character: L_k overflows at x=1e+153, w=0.0 "
               "(tau=1.0, k=3); degree too large\n")


@pytest.mark.parametrize("argv", [
    ["--delta", "3", "--t", "1", "--x", "1e5", "--y-grid", "1e5"],
    ["--delta", "2", "--t", "1e-12", "--x", "1", "--y-grid", "1"],
])
def test_bes_density_past_the_bessel_range(argv):
    # x y / t past 2^30, where scipy's ive is NaN: this printed nan with exit 0
    code, out, err = run_cli_process(["bes-density"] + argv)
    assert (code, out) == (1, "")
    assert err.startswith("hyperbessel: error: log_bessel_i_norm: y beyond 2^30 at nu=")
    assert err.count("\n") == 1


@pytest.mark.dispatch_pinned
def test_warning_is_one_stable_line():
    # no source path or line number, which changed with every edit and install
    code, out, err = run_cli_process(["hankel", "--alpha", "1", "--function", "gaussian",
                                      "--u-grid", "0:3:4", "--cutoff", "3"])
    assert (code, out) == (0, "u,value\n0,1.2499304447415476\n1,0.76341202872584757\n"
                              "2,0.16673305852420628\n3,0.016401612263060465\n")
    assert err == ("hyperbessel: warning: bk_fourier tail bound 1.111e-02 exceeds abs_tol "
                   "1.000e-10; increase the cutoff\n")


class TestVerifyCommand:
    def test_pass_exit_zero(self, capsys, tmp_path):
        out_file = tmp_path / "report.json"
        code, out, _ = run_cli(["verify", "--suite", "gegenbauer",
                                "--out", str(out_file)], capsys)
        assert code == 0
        assert "checks passed" in out
        payload = json.loads(out_file.read_text())
        assert all(entry["pass"] for entry in payload)
        assert set(payload[0]) == {"check", "params", "max_abs_err", "tol", "pass"}

    def test_fail_exit_two(self, capsys):
        code, out, _ = run_cli(["verify", "--suite", "gegenbauer", "--tol", "1e-30"], capsys)
        assert code == 2

    def test_unknown_suite_exit_one(self, capsys):
        code, _, err = run_cli(["verify", "--suite", "bogus"], capsys)
        assert code == 1

    @pytest.mark.parametrize("tol", ["inf", "nan", "0", "-1"])
    def test_tolerance_must_be_finite(self, tol, capsys):
        # an infinite tolerance passes every check, so it certifies nothing
        code, out, err = run_cli(["verify", "--suite", "gegenbauer", "--tol", tol], capsys)
        assert (code, out, err) == (1, "", "hyperbessel: error: tol must be finite and positive\n")

    @pytest.mark.parametrize("nodes", ["8", "1025", "100000000"])
    def test_node_count_is_capped(self, nodes, capsys):
        t0 = time.perf_counter()
        code, out, err = run_cli(["verify", "--suite", "gegenbauer", "--nodes", nodes], capsys)
        assert time.perf_counter() - t0 < 1.0
        assert (code, out, err) == (1, "", "hyperbessel: error: QuadratureSpec.nodes must be "
                                           "in 16..1024\n")


class TestUnwritableOutput:
    """An output that cannot be written is one error line naming it, with exit 1."""

    ARGV = [["char-eval", "--family", "bk", "--alpha", "2", "--u-grid", "1", "--x-grid", "1"],
            ["bes-sim", "--delta", "2", "--x0", "1", "--t-grid", "0.5", "--paths", "2"],
            ["verify", "--suite", "gegenbauer"]]

    @pytest.mark.parametrize("argv", ARGV, ids=lambda argv: argv[0])
    def test_out_is_a_directory(self, argv, tmp_path, capsys):
        # an IsADirectoryError traceback
        code, out, err = run_cli(argv + ["--out", str(tmp_path)], capsys)
        assert (code, out, err) == (
            1, "", f"hyperbessel: error: cannot write {tmp_path}: Is a directory\n")

    @pytest.mark.parametrize("argv", ARGV, ids=lambda argv: argv[0])
    def test_out_in_a_missing_folder(self, argv, tmp_path, capsys):
        # a FileNotFoundError traceback
        path = tmp_path / "missing" / "out"
        code, out, err = run_cli(argv + ["--out", str(path)], capsys)
        assert (code, out, err) == (
            1, "", f"hyperbessel: error: cannot write {path}: No such file or directory\n")
        assert not path.parent.exists()

    @pytest.mark.parametrize("argv,module,work", [
        (ARGV[1], sp, "sample_bes_lanes"), (["verify"], vf, "run_suite")], ids=["bes-sim", "verify"])
    def test_missing_folder_fails_before_the_work(self, argv, module, work, tmp_path, capsys,
                                                  monkeypatch):
        # the sampler ran for seconds, or the whole suite ran, before the error
        def never(*args, **kwargs):
            raise AssertionError(f"{work} was called")

        monkeypatch.setattr(module, work, never)
        path = tmp_path / "missing" / "out"
        code, out, err = run_cli(argv + ["--out", str(path)], capsys)
        assert (code, out, err) == (
            1, "", f"hyperbessel: error: cannot write {path}: No such file or directory\n")
        assert not path.parent.exists()

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    @pytest.mark.parametrize("argv", ARGV, ids=lambda argv: argv[0])
    def test_stdout_on_a_full_device(self, argv):
        # an OSError traceback; nothing more is written when the interpreter exits
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        with open("/dev/full", "w") as full:
            result = subprocess.run([sys.executable, "-m", "hyperbessel.cli"] + argv,
                                    stdout=full, stderr=subprocess.PIPE, text=True,
                                    env=dict(os.environ, PYTHONPATH=src), timeout=60)
        assert (result.returncode, result.stderr) == (
            1, "hyperbessel: error: cannot write stdout: No space left on device\n")


def test_round_trip_17_digits(capsys):
    val = 0.1 + 0.2
    code, out, _ = run_cli(["char-eval", "--family", "bk", "--alpha", "2",
                            "--u-grid", repr(val), "--x-grid", repr(1.0 / 3.0)], capsys)
    assert code == 0
    u, x, value = map(float, out.splitlines()[1].split(","))
    assert (u, x) == (val, 1.0 / 3.0)
    assert value == bk_character(val, 1.0 / 3.0, BesselKingmanParams(2.0))


def test_sim_commands_never_import_scipy():
    # a fresh interpreter: the test modules import scipy themselves. The runs
    # reach every decision the libm band filters: the gamma squeeze and log
    # test, case-5 median splitting from k = 10^6, and the PTRS test with its
    # lgamma (x0^2/(2t) = 1156), which stays on math.lgamma for this reason
    code = ("import sys, io, contextlib\n"
            "from collections import Counter\n"
            "import hyperbessel\n"
            "from hyperbessel import cli, sampling as sp\n"
            "calls = Counter()\n"
            "def count(name, fn):\n"
            "    def counted(*args):\n"
            "        calls[name] += 1\n"
            "        return fn(*args)\n"
            "    return counted\n"
            "for name in ('_squeeze', '_log_test', '_ptrs_test', '_binomial', '_lgamma'):\n"
            "    setattr(sp, name, count(name, getattr(sp, name)))\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    assert cli.main(['qbes-sim', '--delta', '1.5', '--start', 'tau=-1,k=3',\n"
            "                     '--t-grid', '0.5,1.0,1.5', '--paths', '200']) == 0\n"
            "    assert cli.main(['qbes-sim', '--delta', '1.2', '--start', 'tau=2,k=1000000',\n"
            "                     '--t-grid', '0.5,1', '--paths', '4']) == 0\n"
            "    assert cli.main(['bes-sim', '--delta', '2.5', '--x0', '34',\n"
            "                     '--t-grid', '0.5,1.0', '--paths', '200']) == 0\n"
            "assert sorted(calls) == ['_binomial', '_lgamma', '_log_test', '_ptrs_test',\n"
            "                         '_squeeze'], calls\n"
            "print('scipy' in sys.modules)\n"
            "print([m for m in ('hyperbessel.kernels', 'hyperbessel.verify')\n"
            "       if m in sys.modules])\n")
    assert _fresh(code) == "False\n[]\n"


def test_bk_character_example_never_imports_scipy():
    # every point of the README example takes the j_nu series, which needs no scipy
    code = ("import sys, io, contextlib\n"
            "from hyperbessel import cli\n"
            "with contextlib.redirect_stdout(io.StringIO()) as out:\n"
            "    assert cli.main(['char-eval', '--family', 'bk', '--alpha', '2',\n"
            "                     '--u-grid', '0:2:5', '--x-grid', '0:2:5']) == 0\n"
            "print(len(out.getvalue().splitlines()), 'scipy' in sys.modules)\n")
    assert _fresh(code) == "26 False\n"


def _fresh(code: str) -> str:
    """stdout of code run in a fresh interpreter (the test modules import
    scipy themselves) on this source tree."""
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=src)
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                            text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    return result.stdout


SIM_ARGV = [["qbes-sim", "--delta", "1.5", "--start", "tau=-1,k=2", "--t-grid", "0.4,1.0,1.6",
             "--seed", "3"],
            ["bes-sim", "--delta", "2", "--x0", "1", "--t-grid", "0.5,1.0", "--seed", "5"]]


@pytest.mark.parametrize("argv", SIM_ARGV, ids=lambda argv: argv[0])
def test_path_table_groups_write_the_one_group_bytes(argv, tmp_path, capsys, monkeypatch):
    # groups of 3 paths: none full, one, one and a part, and several
    for paths in range(8):
        full = run_cli(argv + ["--paths", str(paths)], capsys)
        run_cli(argv + ["--paths", str(paths), "--out", str(tmp_path / "one.csv")], capsys)
        with monkeypatch.context() as m:
            m.setattr(cli, "_GROUP", 3)
            grouped = run_cli(argv + ["--paths", str(paths)], capsys)
            run_cli(argv + ["--paths", str(paths), "--out", str(tmp_path / "groups.csv")], capsys)
        assert grouped == full and full[0] == 0
        assert (tmp_path / "groups.csv").read_bytes() == (tmp_path / "one.csv").read_bytes()
        assert full[1].count("\n") == 1 + paths * (argv[-3].count(",") + 1)


GRID_ARGV = ["char-eval", "--family", "bk", "--alpha", "2.5", "--u-grid", "0:2:5",
             "--x-grid", "0:3:4"]


@pytest.mark.parametrize("argv", SIM_ARGV + [GRID_ARGV], ids=lambda argv: argv[0])
def test_json_table_groups_write_the_one_group_bytes(argv, tmp_path, capsys, monkeypatch):
    # groups of 3 rows: a path table of 0 to 7 paths, and a grid table of 20 rows
    for paths in range(8) if argv[0].endswith("sim") else [None]:
        args = argv + ["--format", "json"] + ([] if paths is None else ["--paths", str(paths)])
        full = run_cli(args, capsys)
        with monkeypatch.context() as m:
            m.setattr(cli, "_GROUP", 3)
            grouped = run_cli(args, capsys)
            run_cli(args + ["--out", str(tmp_path / "groups.json")], capsys)
        assert grouped == full and full[0] == 0
        assert (tmp_path / "groups.json").read_text() == full[1]
        # the bytes of one json.dumps call on the whole list
        assert full[1] == json.dumps(json.loads(full[1]), separators=(",", ":")) + "\n"
        assert len(json.loads(full[1])) == (20 if paths is None else
                                            paths * (argv[-3].count(",") + 1))


def test_path_table_groups_fill_one_template_each(capsys, monkeypatch):
    # one % call per group, each on a block of at most _GROUP paths
    sizes = []
    real = cli._sim_template

    def spy(row):
        sizes.append(len(row[0]))
        return real(row)

    monkeypatch.setattr(cli, "_GROUP", 3)
    monkeypatch.setattr(cli, "_sim_template", spy)
    written = []
    monkeypatch.setattr(cli, "_emit", lambda out, text: written.append(list(text)))
    assert cli.main(SIM_ARGV[1] + ["--paths", "7"]) == 0
    assert [chunk.count("\n") for chunk in written[0]] == [1 + 3 * 2, 3 * 2, 1 * 2]
    assert sizes == [7, 7]


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_path_table_groups_on_a_full_device_give_one_error_line(capsys, monkeypatch):
    # a group's write fails inside the one open file: one line, no traceback
    monkeypatch.setattr(cli, "_GROUP", 3)
    full = open("/dev/full", "w", buffering=1)
    monkeypatch.setattr(sys, "stdout", full)
    code = cli.main(SIM_ARGV[1] + ["--paths", "7"])
    with contextlib.suppress(OSError):  # the unwritten rest of the buffer
        full.close()
    assert (code, capsys.readouterr().err) == (
        1, "hyperbessel: error: cannot write stdout: No space left on device\n")
