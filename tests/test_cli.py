import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import satlab
from satlab.analysis import CROSSOVER_T_AV, exact_ppz_success, ppz_bound
from satlab.cli import EXIT_ERROR, EXIT_SAT, EXIT_UNKNOWN, main
from satlab.cnf import emit_dimacs, evaluate, parse_dimacs
from satlab.generators import random_3cnf, xor_chain


def run_python(args):
    """A fresh interpreter that imports this checkout's satlab."""
    src = str(Path(satlab.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p])}
    return subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, timeout=60
    )


@pytest.fixture
def xor1_file(tmp_path):
    path = tmp_path / "xor1.cnf"
    main(["generate", "xor", "--m", "1", "--out", str(path)])
    return str(path)


@pytest.fixture
def unsat_file(tmp_path):
    path = tmp_path / "unsat.cnf"
    path.write_text("p cnf 1 2\n1 0\n-1 0\n")
    return str(path)


class TestSolve:
    def test_sat_with_verified_v_line(self, xor1_file, capsys):
        code = main(["solve", xor1_file, "--algorithm", "delppz", "--seed", "1"])
        out = capsys.readouterr().out
        assert code == EXIT_SAT
        assert "s SATISFIABLE" in out
        v_line = next(line for line in out.splitlines() if line.startswith("v "))
        lits = [int(t) for t in v_line[2:].split()]
        assert lits[-1] == 0
        alpha = {abs(l): l > 0 for l in lits[:-1]}
        assert evaluate(xor_chain(1), alpha)

    @pytest.mark.parametrize("algorithm", ["ppz", "del", "delppz"])
    def test_all_algorithms_solve(self, xor1_file, capsys, algorithm):
        code = main(["solve", xor1_file, "--algorithm", algorithm, "--seed", "0"])
        assert code == EXIT_SAT
        assert "s SATISFIABLE" in capsys.readouterr().out

    def test_unsat_reports_unknown(self, unsat_file, capsys):
        code = main(["solve", unsat_file, "--seed", "0"])
        out = capsys.readouterr().out
        assert code == EXIT_UNKNOWN
        assert "s UNKNOWN" in out
        assert "not an unsatisfiability proof" in out

    @pytest.mark.parametrize("algorithm", ["ppz", "del", "delppz"])
    def test_zero_variable_formula(self, tmp_path, capsys, algorithm):
        path = tmp_path / "empty.cnf"
        path.write_text("p cnf 0 0\n")
        assert main(["solve", str(path), "--algorithm", algorithm]) == EXIT_SAT
        assert capsys.readouterr().out.splitlines()[-1] == "v 0"

    def test_missing_file(self, capsys):
        assert main(["solve", "/nonexistent/file.cnf"]) == EXIT_ERROR

    def test_omega_override(self, unsat_file, capsys):
        code = main(["solve", unsat_file, "--omega", "3"])
        assert code == EXIT_UNKNOWN
        assert "3 trial(s)" in capsys.readouterr().out

    def test_clipped_budget_is_reported(self, tmp_path, capsys):
        path = tmp_path / "unsat24.cnf"
        path.write_text("p cnf 24 2\n1 0\n-1 0\n")
        clipped = "c trial budget clipped to 3; the e^-n error bound no longer holds"
        assert main(["solve", str(path), "--budget-cap", "3"]) == EXIT_UNKNOWN
        out = capsys.readouterr().out
        assert out.splitlines()[-1] == clipped
        # Only the result line states a trial count.
        assert re.findall(r"(?:after|in) (\d+) trial\(s\)", out) == ["3"]
        code = main(["solve", str(path), "--omega", "3", "--budget-cap", "3"])
        assert code == EXIT_UNKNOWN
        assert "clipped" not in capsys.readouterr().out

    def test_unclipped_budget_is_not_reported(self, xor1_file, capsys):
        assert main(["solve", xor1_file, "--seed", "0"]) == EXIT_SAT
        assert "clipped" not in capsys.readouterr().out

    def test_one_sided_gate_survives_optimize(self, xor1_file):
        # Under -O the first assert is stripped; the gate must still raise
        # on a falsifying assignment and pass a satisfying one.
        script = (
            "import sys\n"
            "from satlab.cli import main\n"
            "from satlab.cnf import CnfFormula, check_satisfies\n"
            "assert False\n"
            "try:\n"
            "    check_satisfies(CnfFormula(1, ((1,),)), {1: False})\n"
            "except RuntimeError:\n"
            "    sys.exit(main(['solve', sys.argv[1], '--seed', '0']))\n"
            "sys.exit('falsifying assignment passed the gate')\n"
        )
        proc = run_python(["-O", "-c", script, xor1_file])
        assert proc.returncode == EXIT_SAT, proc.stderr
        assert "s SATISFIABLE" in proc.stdout

    def test_cli_start_up_imports_no_numpy(self):
        script = "import satlab.cli, sys; sys.exit('numpy' in sys.modules)"
        proc = run_python(["-c", script])
        assert proc.returncode == 0, proc.stderr


class TestAnalyze:
    def test_xor2_table(self, tmp_path, capsys):
        path = tmp_path / "xor2.cnf"
        main(["generate", "xor", "--m", "2", "--out", str(path)])
        capsys.readouterr()
        assert main(["analyze", str(path)]) == 0
        out = capsys.readouterr().out
        assert "|S| = 16" in out
        assert out.count("     6     0") == 16  # c=6, l=0 on every row

    def test_csv_output(self, xor1_file, capsys):
        assert main(["analyze", xor1_file, "--csv"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "alpha,c,l,isolation,t_av,t_min"
        assert len(lines) == 5
        assert "100,3,0,3,1,1" in lines

    def test_unsat_empty_table(self, unsat_file, capsys):
        assert main(["analyze", unsat_file]) == 0
        assert "|S| = 0" in capsys.readouterr().out

    def test_guard_refusal(self, tmp_path, capsys):
        path = tmp_path / "big.cnf"
        path.write_text("p cnf 30 0\n")
        assert main(["analyze", str(path), "--max-n", "24"]) == EXIT_ERROR


class TestEstimate:
    def test_columns_and_oracle(self, xor1_file, capsys):
        code = main(
            ["estimate", xor1_file, "--algorithm", "del", "--trials", "2000",
             "--seed", "3"]
        )
        out = capsys.readouterr().out.strip().splitlines()
        assert code == 0
        assert out[0] == "point,ci_low,ci_high,oracle,bound"
        point, ci_low, ci_high, oracle, bound = out[1].split(",")
        assert float(ci_low) <= float(point) <= float(ci_high)
        assert math.isclose(float(oracle), 72 / 81, rel_tol=1e-4)
        assert float(bound) <= float(oracle)

    def test_ppz_oracle_within_guard(self, tmp_path, capsys):
        f = random_3cnf(5, 12, 1)
        path = tmp_path / "r5.cnf"
        path.write_text(emit_dimacs(f))
        code = main(["estimate", str(path), "--algorithm", "ppz", "--trials", "500"])
        out = capsys.readouterr().out.strip().splitlines()
        assert code == 0
        point, ci_low, ci_high, oracle, bound = out[1].split(",")
        assert oracle == f"{exact_ppz_success(f):.6g}"
        assert bound == f"{ppz_bound(5):.6g}"

    def test_ppz_oracle_blank_past_guard(self, tmp_path, capsys):
        path = tmp_path / "r7.cnf"
        path.write_text(emit_dimacs(random_3cnf(7, 16, 1)))
        code = main(["estimate", str(path), "--algorithm", "ppz", "--trials", "500"])
        out = capsys.readouterr().out.strip().splitlines()
        assert code == 0
        point, ci_low, ci_high, oracle, bound = out[1].split(",")
        assert oracle == ""
        assert float(ci_low) <= float(point) <= float(ci_high)
        assert bound == f"{ppz_bound(7):.6g}"

    def test_too_few_trials_refused(self, xor1_file):
        assert main(["estimate", xor1_file, "--trials", "10"]) == EXIT_ERROR

    def test_unsat_zero_point(self, unsat_file, capsys):
        code = main(["estimate", unsat_file, "--trials", "200", "--seed", "0"])
        out = capsys.readouterr().out.strip().splitlines()[1]
        assert code == 0
        assert out.startswith("0,0,")


class TestBounds:
    def test_row_count_and_endpoints(self, capsys):
        code = main(["bounds", "--n", "30", "--s", "1", "--steps", "10"])
        lines = capsys.readouterr().out.strip().splitlines()
        assert code == 0
        assert lines[0] == "t_av,ppz_bound,del_bound,delppz_bound"
        assert len(lines) == 12
        first = [float(x) for x in lines[1].split(",")]
        last = [float(x) for x in lines[-1].split(",")]
        assert math.isclose(first[2], 1.5**-30, rel_tol=1e-12)
        assert abs(last[0] - CROSSOVER_T_AV) < 1e-6
        assert abs(last[2] - 2.0**-20) / 2.0**-20 < 1e-3

    def test_ppz_column_constant(self, capsys):
        main(["bounds", "--n", "12", "--steps", "5"])
        lines = capsys.readouterr().out.strip().splitlines()[1:]
        ppz_values = {line.split(",")[1] for line in lines}
        assert len(ppz_values) == 1

    def test_log_scale(self, capsys):
        main(["bounds", "--n", "30", "--steps", "2", "--log"])
        lines = capsys.readouterr().out.strip().splitlines()[1:]
        for line in lines:
            assert all(float(x) < 0 for x in line.split(",")[1:])

    def test_log_scale_is_finite_past_float_underflow(self, capsys):
        # the linear bounds underflow to 0 from n = 1,613 on
        assert main(["bounds", "--n", "2000", "--steps", "4", "--log"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()[1:]
        assert len(lines) == 5
        for line in lines:
            assert all(math.isfinite(float(x)) for x in line.split(","))

    @pytest.mark.parametrize("n, s", [(30, 1), (30, 1000), (2, 4)])
    def test_log_rows_are_log10_of_linear_rows(self, capsys, n, s):
        # (2, 4) exercises the clamp: delppz_bound reads 1 there
        args = ["bounds", "--n", str(n), "--s", str(s), "--steps", "6"]
        main(args)
        linear = capsys.readouterr().out.strip().splitlines()[1:]
        main(args + ["--log"])
        log = capsys.readouterr().out.strip().splitlines()[1:]
        assert len(log) == len(linear) == 7
        for lin_row, log_row in zip(linear, log):
            lin = [float(x) for x in lin_row.split(",")]
            got = [float(x) for x in log_row.split(",")]
            assert got[0] == lin[0]
            for x, y in zip(lin[1:], got[1:]):
                assert abs(math.log10(x) - y) <= 1e-9

    def test_range_refusal(self):
        assert main(["bounds", "--n", "10", "--t-av-max", "2.0"]) == EXIT_ERROR
        assert main(["bounds", "--n", "10", "--t-av-min", "0.5"]) == EXIT_ERROR


class TestGenerate:
    def test_xor_header(self, tmp_path):
        path = tmp_path / "x.cnf"
        assert main(["generate", "xor", "--m", "2", "--out", str(path)]) == 0
        text = path.read_text()
        assert text.startswith("p cnf 6 8\n")
        parse_dimacs(text)

    def test_random_deterministic(self, tmp_path):
        a = tmp_path / "a.cnf"
        b = tmp_path / "b.cnf"
        args = ["generate", "random", "--n", "8", "--m", "20", "--seed", "7"]
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_stdout(self, capsys):
        assert main(["generate", "xor", "--m", "1"]) == 0
        assert capsys.readouterr().out.startswith("p cnf 3 4\n")

    def test_bad_params(self):
        assert main(["generate", "xor", "--m", "0"]) == EXIT_ERROR
        assert main(["generate", "random", "--m", "5"]) == EXIT_ERROR
