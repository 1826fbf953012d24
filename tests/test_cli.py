"""CLI tests: flag parsing, output schemas, determinism, exit codes."""
import json
import math

import pytest

from hyperbessel import cli
from hyperbessel import kernels as kn
from hyperbessel.hypergroup import ContinuousPoint, DiscretePoint


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

    def test_grids(self):
        assert cli.parse_grid("0.5,1.0") == [0.5, 1.0]
        assert cli.parse_grid("0:1:3") == [0.0, 0.5, 1.0]


class TestQbesKernel:
    def test_geometric_example(self, capsys):
        code, out, _ = run_cli(["qbes-kernel", "--delta", "1",
                                "--state", "tau=-2,k=0", "--t", "1"], capsys)
        assert code == 0
        law = json.loads(out)
        assert law["case"] == 1
        for atom in law["atoms"][:10]:
            assert atom["tau"] == -1.0
            assert atom["prob"] == pytest.approx(2.0 ** -(atom["k"] + 1), rel=1e-12)

    def test_json_round_trip(self, capsys):
        code, out, _ = run_cli(["qbes-kernel", "--delta", "1.5",
                                "--state", "tau=-1,k=0", "--t", "1"], capsys)
        assert code == 0
        law = kn.law_from_dict(json.loads(out))
        assert law == kn.qbes_transition(DiscretePoint(-1.0, 0), 1.0, 1.5)

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

    def test_hankel_gaussian(self, capsys):
        code, out, _ = run_cli(["hankel", "--alpha", "1", "--function", "gaussian",
                                "--u-grid", "0.0,1.0", "--cutoff", "12"], capsys)
        assert code == 0
        rows = [line.split(",") for line in out.splitlines()[1:]]
        for u_str, val_str in rows:
            want = math.sqrt(math.pi / 2.0) * math.exp(-0.5 * float(u_str) ** 2)
            assert float(val_str) == pytest.approx(want, abs=1e-9)

    def test_hankel_indicator(self, capsys):
        # alpha = 1, f = 1_[0,1]: transform(u) = sin(u)/u
        code, out, _ = run_cli(["hankel", "--alpha", "1", "--function", "indicator",
                                "--u-grid", "0.5,2.0"], capsys)
        assert code == 0
        for line in out.splitlines()[1:]:
            u, val = (float(v) for v in line.split(","))
            assert val == pytest.approx(math.sin(u) / u, abs=1e-9)


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


def test_round_trip_17_digits():
    val = 0.1 + 0.2
    assert float(cli._fmt(val)) == val
    assert float(cli._fmt(1.0 / 3.0)) == 1.0 / 3.0
