"""Tests for the command line interface.

Each test drives main() in-process and parses the emitted table; one
test runs the module twice in subprocesses to check byte determinism.
"""

import contextlib
import io
import json
import math
import os
import pathlib
import subprocess
import sys

from charlier_hermite.cli import OutputTable, main, render_csv


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def parse_csv(text):
    lines = text.splitlines()
    header = lines[0].split(",")
    rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
    for line in lines[1:]:
        assert line.count(",") == len(header) - 1
    return header, rows


def test_eval_hermite_known_value():
    code, out, err = run_cli("eval", "hermite", "--nu", "2", "--x", "0.5")
    assert code == 0
    assert out.endswith("\n") and "\r" not in out
    header, rows = parse_csv(out)
    assert header == ["nu", "x", "value"]
    assert len(rows) == 1
    assert abs(float(rows[0]["value"]) - (-1.0)) <= 1e-12


def test_eval_charlier_degree_zero():
    code, out, _ = run_cli("eval", "charlier", "--n", "0", "--a", "5",
                           "--nu", "3.3")
    assert code == 0
    _, rows = parse_csv(out)
    assert rows[0]["value"] == "1"


def test_eval_charlier_rational_mode():
    code, out, _ = run_cli("eval", "charlier", "--n", "1", "--a", "5/2",
                           "--nu", "1/2", "--mode", "rational")
    assert code == 0
    _, rows = parse_csv(out)
    assert rows[0]["value"] == "4/5"


def test_eval_scaled_nu_zero():
    code, out, _ = run_cli("eval", "scaled", "--x", "0", "--a", "100",
                           "--nu", "0")
    assert code == 0
    assert out.splitlines()[1] == "0,100,0,100,0,1"


def test_exit_code_domain_error():
    code, out, err = run_cli("eval", "charlier", "--n", "-1", "--a", "5",
                             "--nu", "1")
    assert code == 1
    assert out == ""
    assert err.startswith("error:")


def test_exit_code_usage_error():
    code, _, err = run_cli("eval", "hermite", "--nu", "1", "--x", "0",
                           "--bogus", "3")
    assert code == 1
    assert "error:" in err


def test_exit_code_non_convergence():
    code, _, err = run_cli("eval", "hermite", "--nu", "0.5", "--x", "150")
    assert code == 2
    assert "error:" in err


def test_sweep_nu_zero_errors_at_float_floor():
    code, out, _ = run_cli("sweep", "convergence", "--nu", "0", "--x", "0.3",
                           "--a-list", "10,100,1000")
    assert code == 0
    _, rows = parse_csv(out)
    assert len(rows) == 3
    # exact cancellation is blocked by one rounding in the H_0 prefactor
    for row in rows:
        assert float(row["abs_err"]) <= 1e-15
        assert row["error"] == ""


def test_sweep_exact_pairs_match_sharpness_identity():
    code, out, err = run_cli("sweep", "convergence", "--nu", "2", "--x", "0.5",
                             "--a-list", "2,8,18,32")
    assert code == 0
    _, rows = parse_csv(out)
    for row in rows:
        a = float(row["a"])
        expected = 2.0 / math.sqrt(2.0 * a)
        assert abs(float(row["abs_err"]) - expected) <= 1e-11 * expected
    # exact 1/sqrt(a) law, so the fitted slope is -0.5 up to float noise
    assert abs(float(rows[0]["slope"]) + 0.5) <= 1e-3
    assert "fitted slope" in err


def test_sweep_theorem_band():
    code, out, _ = run_cli("sweep", "convergence", "--nu", "1.5", "--x", "0.7",
                           "--a-list", "100,1000,10000,100000")
    assert code == 0
    _, rows = parse_csv(out)
    slope = float(rows[0]["slope"])
    assert -0.6 <= slope <= -0.4


def test_sweep_reports_row_failure_and_continues():
    code, out, _ = run_cli("sweep", "convergence", "--nu", "1.5", "--x", "2",
                           "--a-list", "1,100,1000,10000")
    assert code == 0
    _, rows = parse_csv(out)
    assert rows[0]["y"] == "" and rows[0]["error"] != ""
    for row in rows[1:]:
        assert row["error"] == "" and float(row["abs_err"]) > 0


def test_sweep_json_nulls_for_failed_rows():
    code, out, _ = run_cli("sweep", "convergence", "--nu", "1.5", "--x", "2",
                           "--a-list", "1,100,1000,10000", "--out", "json")
    assert code == 0
    rows = json.loads(out)
    assert rows[0]["y"] is None
    assert isinstance(rows[0]["error"], str) and rows[0]["error"]
    assert rows[1]["error"] is None
    assert rows[1]["abs_err"] > 0


def test_csv_json_round_trip_equal_tables():
    args = ("sweep", "convergence", "--nu", "1.5", "--x", "0.7",
            "--a-list", "100,1000,10000")
    _, csv_out, _ = run_cli(*args)
    _, json_out, _ = run_cli(*args, "--out", "json")
    header, csv_rows = parse_csv(csv_out)
    json_rows = json.loads(json_out)
    assert len(csv_rows) == len(json_rows)
    for crow, jrow in zip(csv_rows, json_rows):
        for key in header:
            if crow[key] == "":
                assert jrow[key] is None
            else:
                assert float(crow[key]) == jrow[key]


def test_plot_fnu_table():
    code, out, _ = run_cli("plot", "fnu", "--nu", "-3", "--t-max", "3",
                           "--dt", "0.01")
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["t", "f"]
    assert len(rows) == 301
    assert out.splitlines()[1] == "0,0"
    t_at_max = max(rows, key=lambda r: float(r["f"]))["t"]
    assert abs(float(t_at_max) - math.sqrt(2.0)) <= 0.01


def test_plot_fnu_rejects_bad_grid():
    code, _, err = run_cli("plot", "fnu", "--nu", "-3", "--t-max", "3",
                           "--dt", "0")
    assert code == 1
    assert "error:" in err


def test_zeros_convergence_exact_target():
    code, out, _ = run_cli("zeros", "convergence", "--x", "0",
                           "--target-nu", "1", "--a-list", "100,400,1600,6400")
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["a", "n", "nu_n", "abs_err", "slope", "error"]
    for row in rows:
        assert row["n"] == row["a"]
        assert float(row["abs_err"]) <= 1e-12
        assert row["error"] == ""


def test_zeros_convergence_reports_row_failure():
    code, out, _ = run_cli("zeros", "convergence", "--x", "0",
                           "--target-nu", "1", "--a-list", "0.5,100,400,1600")
    assert code == 0
    _, rows = parse_csv(out)
    assert rows[0]["n"] == "" and rows[0]["error"] != ""
    assert all(row["error"] == "" for row in rows[1:])


def test_polygon_compare_linear_case():
    code, out, err = run_cli("polygon", "compare", "--nu", "1",
                             "--x-max", "1", "--a", "10000")
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["x", "u_y", "u_dy", "z_y", "z_dy", "deviation"]
    # natural grid dx = 1/sqrt(2a): floor(x_max*sqrt(2a)) + 1 nodes
    assert len(rows) == math.floor(math.sqrt(20000.0)) + 1
    # the polygon is seeded from the Charlier state, whose derivative
    # component carries a few ulps, so "2x" holds to ~1e-13 relative
    for row in rows:
        x = float(row["x"])
        assert abs(float(row["u_y"]) - 2.0 * x) <= 1e-12 * max(1.0, 2.0 * x)
        assert abs(float(row["u_dy"]) - 2.0) <= 1e-12
        assert float(row["deviation"]) < 0.1
    assert "max node deviation" in err


def test_asymptotics_head_tail_reconstruction():
    code, out, _ = run_cli("asymptotics", "head-tail", "--a", "10000",
                           "--nu", "-4")
    assert code == 0
    _, rows = parse_csv(out)
    row = rows[0]
    recon = float(row["y0_reconstructed"])
    direct = float(row["y0_direct"])
    assert abs(recon - direct) <= 1e-9 * abs(direct)
    assert row["y0_direct_ceiling"] == ""  # integer a: no ceiling variant


def test_render_csv_escapes_commas():
    table = OutputTable(("k", "msg"), [{"k": 1, "msg": "bad, worse"}])
    assert render_csv(table) == "k,msg\n1,bad; worse\n"


def test_subprocess_runs_are_byte_identical():
    cmd = [sys.executable, "-m", "charlier_hermite.cli", "sweep",
           "convergence", "--nu", "1.5", "--x", "0.7",
           "--a-list", "100,1000,10000"]
    # the child finds the package from a plain checkout, installed or not
    src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
    path = [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    first = subprocess.run(cmd, capture_output=True, check=True, env=env)
    second = subprocess.run(cmd, capture_output=True, check=True, env=env)
    assert first.stdout == second.stdout
    assert first.stderr == second.stderr
    assert first.stdout.count(b"\n") == 4  # header + 3 rows
