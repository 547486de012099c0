"""Tests for the command line interface.

Most tests drive main() in-process and parse the emitted table.  The
rest run fresh interpreters: to check byte determinism, and which
package modules, which costly standard modules, and whether numpy, each
command loads.  The last tests pin the package's public names and
their lazy loading.
"""

import contextlib
import io
import json
import math
import os
import pathlib
import subprocess
import sys
from fractions import Fraction

import pytest

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


@pytest.mark.parametrize("command", [("sweep", "convergence", "--nu", "1.5", "--x", "0.5"),
                                     ("zeros", "convergence", "--x", "0", "--target-nu", "3")],
                         ids=["sweep", "zeros"])
def test_json_writes_null_for_an_infinite_a(command):
    # an --a-list entry that parses to +-inf fails its row, and JSON has no inf
    code, out, _ = run_cli(*command, "--a-list", "100,1000,10000,inf,-inf,1e400", "--out", "json")
    assert code == 0
    rows = json.loads(out)
    assert [row["a"] for row in rows] == [100, 1000, 10000, None, None, None]
    assert all(row["error"] is None for row in rows[:3]) and all(row["error"] for row in rows[3:])


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


@pytest.mark.parametrize("argv, message", [
    ("eval hermite --nu 1e17 --x 0", "outside double range"),
    ("sweep convergence --nu 1e300 --x 0 --a-list 1,2,3", "outside double range"),
    ("eval scaled --x=-1e300 --a 1e300 --nu 1", "is not finite"),
] + [(f"asymptotics head-tail --a {a} --nu -5", "needs more than 10000000 terms")
     for a in ("1e30", "1e102", "1e103", "1e300")])
def test_arguments_past_double_range_exit_1(argv, message):
    code, out, err = run_cli(*argv.split())
    assert (code, out) == (1, "") and err.startswith("error: ") and message in err, err


def test_rational_work_past_the_cap_exits_1():
    # a = 1e6 would take 10^6 Fraction terms of up to 4e7 bits
    code, out, err = run_cli("eval", "scaled", "--x", "0", "--a", "1e6", "--nu", "-2",
                             "--mode", "rational")
    assert (code, out) == (1, "") and err.startswith("error: ") and err.count("\n") == 1, err
    assert "more than rational mode's 65536" in err


@pytest.mark.parametrize("nu, x", [("-1e-3", "0.5"), ("1.5", "-2.5E+1"), ("-5.", "-.5e1"),
                                   ("-2e0", "-1E-300")])
def test_negative_numbers_in_exponent_form_are_values(nu, x):
    # argparse alone took -1e-3 for an option; each gives the table that
    # --flag=value gives
    joined = run_cli("eval", "hermite", f"--nu={nu}", f"--x={x}")
    assert joined[0] == 0
    assert run_cli("eval", "hermite", "--nu", nu, "--x", x) == joined


def test_eval_argv_property():
    # eval hermite, charlier and scaled with numbers written in fixed,
    # exponent and signed forms, each read as a value: exit 0 with one row
    # holding the numbers given, or exit 1 (2 for a Hermite series that
    # does not converge) with one error line and no traceback
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    forms = ("{:f}", "{:.3f}", "{:e}", "{:.2E}", "{!r}", "{:+g}", "{:+.4e}")
    number = st.builds(str.format, st.sampled_from(forms), st.floats(-1e300, 1e300))

    @hypothesis.settings(max_examples=150, deadline=None, derandomize=True,
                         phases=[hypothesis.Phase.explicit, hypothesis.Phase.generate])
    @hypothesis.given(st.data())
    def check(data):
        action = data.draw(st.sampled_from(["hermite", "charlier", "scaled"]))
        # rational sums take n Fraction steps, so their n stays small
        mode = data.draw(st.sampled_from(["float", "rational"])) if action == "charlier" else None
        flags = {"hermite": ("--nu", "--x"), "charlier": ("--n", "--a", "--nu"),
                 "scaled": ("--x", "--a", "--nu")}[action]
        n_max = 30 if mode == "rational" else 10 ** 6
        texts = {flag: data.draw(st.integers(-5, n_max).map(str) if flag == "--n" else number)
                 for flag in flags}
        argv = ["eval", action, *(t for flag in flags for t in (flag, texts[flag]))]
        code, out, err = run_cli(*argv, *(["--mode", mode] if mode else []))
        if code == 0:
            _, rows = parse_csv(out)
            assert len(rows) == 1 and err == "", argv
            for flag, text in texts.items():
                read = int if flag == "--n" else Fraction if mode == "rational" else float
                assert read(rows[0][flag[2:]]) == read(text), (argv, flag)
        else:
            assert code == 1 or (code == 2 and action == "hermite"), (argv, code)
            assert out == "" and err.startswith("error: ") and err.count("\n") == 1, (argv, err)
            assert "Traceback" not in err and "expected one argument" not in err, (argv, err)

    check()


def test_sum_commands_argv_property():
    # sweep convergence and asymptotics head-tail, whose sums read the
    # Charlier block generator, with numbers in fixed, exponent and signed
    # forms: a table with one row per a given, exit 0 where at least
    # min_ok rows (3 for the sweep, 1 for the split) have no error and 1
    # where fewer do, or exit 1 (2 for a Hermite series that does not
    # converge) with one error line; never a traceback.  Each number is
    # drawn from all doubles up to 1e300 in size or from the range where
    # the sums run.
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    forms = ("{:f}", "{:.3f}", "{:e}", "{:.2E}", "{!r}", "{:+g}", "{:+.4e}")

    def number(low, high):
        return st.builds(str.format, st.sampled_from(forms),
                         st.one_of(st.floats(-1e300, 1e300), st.floats(low, high)))

    @hypothesis.settings(max_examples=100, deadline=None, derandomize=True,
                         phases=[hypothesis.Phase.explicit, hypothesis.Phase.generate])
    @hypothesis.given(st.data())
    def check(data):
        if data.draw(st.booleans()):
            a_list = data.draw(st.lists(number(0.5, 1e7), min_size=1, max_size=4))
            argv = ["sweep", "convergence", "--nu", data.draw(number(-12.0, 12.0)),
                    "--x", data.draw(number(-3.0, 3.0)), "--a-list", ",".join(a_list)]
            min_ok = 3
        else:
            a_list = [data.draw(number(0.5, 1e7))]
            argv = ["asymptotics", "head-tail", "--a", a_list[0],
                    "--nu", data.draw(number(-60.0, -3.0))]
            min_ok = 1
        code, out, err = run_cli(*argv)
        assert "Traceback" not in err, (argv, err)
        if out:
            _, rows = parse_csv(out)
            assert [float(row["a"]) for row in rows] == [float(a) for a in a_list], argv
            ok = sum(row.get("error", "") == "" for row in rows)
            assert code == (0 if ok >= min_ok else 1) and "error: " not in err, (argv, code, err)
        else:
            assert code == 1 or (code == 2 and argv[0] == "sweep"), (argv, code)
            assert err.startswith("error: ") and err.count("\n") == 1, (argv, err)

    check()


def test_plot_and_zeros_commands_argv_property():
    # plot fnu and zeros convergence with numbers in fixed, exponent and
    # signed forms: a table, exit 0 (for zeros, where at least 3 rows have
    # no error, and 1 where fewer do), or exit 1 (2 for a zero search that
    # does not converge) with one error line; never a traceback.  Each
    # number is drawn from all doubles up to 1e300 in size or from the
    # range where the commands tabulate; zeros takes at most 4 values of
    # a, none past 1e4, so that each run stays short.
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    forms = ("{:f}", "{:.3f}", "{:e}", "{:.2E}", "{!r}", "{:+g}", "{:+.4e}")

    def number(low, high, wide=1e300):
        return st.builds(str.format, st.sampled_from(forms),
                         st.one_of(st.floats(-wide, wide), st.floats(low, high)))

    @hypothesis.settings(max_examples=100, deadline=None, derandomize=True,
                         phases=[hypothesis.Phase.explicit, hypothesis.Phase.generate])
    @hypothesis.given(st.data())
    def check(data):
        if data.draw(st.booleans()):
            argv = ["plot", "fnu", "--nu", data.draw(number(-1000.0, -1.0)),
                    "--t-max", data.draw(number(0.0, 100.0)), "--dt", data.draw(number(0.01, 10.0))]
            min_ok = 0
        else:
            a_list = data.draw(st.lists(number(0.5, 1e4, 1e4), min_size=1, max_size=4))
            argv = ["zeros", "convergence", "--x", data.draw(number(-3.0, 3.0)),
                    "--target-nu", data.draw(number(-3.0, 12.0)), "--a-list", ",".join(a_list)]
            min_ok = 3
        code, out, err = run_cli(*argv)
        assert "Traceback" not in err, (argv, err)
        if out:
            _, rows = parse_csv(out)
            ok = sum(row.get("error", "") == "" for row in rows)
            assert code == (0 if ok >= min_ok else 1) and "error: " not in err, (argv, code, err)
            if argv[0] == "zeros":
                assert [float(row["a"]) for row in rows] == [float(a) for a in a_list], argv
        else:
            assert code == 1 or (code == 2 and argv[0] == "zeros"), (argv, code)
            assert err.startswith("error: ") and err.count("\n") == 1, (argv, err)

    check()


def test_polygon_compare_argv_property():
    # polygon compare with numbers in fixed, exponent and signed forms: a
    # table and exit 0, or exit 1 with one error line; never a traceback.
    # Each number is drawn from all doubles up to 1e300 in size or from the
    # range where the trace runs (a <= 1e5, x-max <= 3); the trace's term
    # cap keeps the draws over the full range short.
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    forms = ("{:f}", "{:.3f}", "{:e}", "{:.2E}", "{!r}", "{:+g}", "{:+.4e}")

    def number(low, high):
        return st.builds(str.format, st.sampled_from(forms),
                         st.one_of(st.floats(-1e300, 1e300), st.floats(low, high)))

    @hypothesis.settings(max_examples=60, deadline=None, derandomize=True,
                         phases=[hypothesis.Phase.explicit, hypothesis.Phase.generate])
    @hypothesis.given(number(-12.0, 12.0), number(0.0, 3.0), number(0.5, 1e5))
    def check(nu, x_max, a):
        argv = ["polygon", "compare", "--nu", nu, "--x-max", x_max, "--a", a]
        code, out, err = run_cli(*argv)
        assert "Traceback" not in err, (argv, err)
        if code == 0:
            _, rows = parse_csv(out)
            assert rows and err.startswith("max node deviation ") and err.count("\n") == 1, argv
        else:
            assert code == 1 and out == "", (argv, code)
            assert err.startswith("error: ") and err.count("\n") == 1, (argv, err)

    check()


def test_polygon_compare_rows_are_the_public_traces():
    # polygon compare builds its rows as float lists; every x, u_y, u_dy,
    # z_y and z_dy it prints is, by float.hex, the value of
    # charlier_state_trace, euler_polygon and trace_deviation (numpy
    # arrays), and a trace they refuse is the command's one error line
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    from charlier_hermite import charlier_state_trace, euler_polygon, trace_deviation
    from charlier_hermite.errors import DomainError

    @hypothesis.settings(max_examples=60, deadline=None, derandomize=True)
    @hypothesis.given(st.floats(-12.0, 12.0), st.floats(0.0, 3.0), st.floats(0.5, 1e5))
    @hypothesis.example(1.0, 1.0, 10000.0)  # the README command
    @hypothesis.example(-11.5, 3.0, 99999.5)
    @hypothesis.example(-7.25, 2.0, 3000.5)
    @hypothesis.example(5.6, 1.0, 12.0)  # oscillating recurrence, anchors close together
    def check(nu, x_max, a):
        code, out, err = run_cli("polygon", "compare", "--nu", repr(nu), "--x-max", repr(x_max),
                                 "--a", repr(a))
        try:
            z = charlier_state_trace(nu, a, x_max)
        except DomainError as exc:
            assert (code, out, err) == (1, "", f"error: {exc}\n")
            return
        u = euler_polygon(nu, z.states[0], x_max, z.step)
        want = [[(v + 0.0).hex() for v in row]  # the table prints -0.0 as 0
                for row in zip(z.xs.tolist(), *u.states.T.tolist(), *z.states.T.tolist())]
        _, rows = parse_csv(out)
        got = [[float(row[k]).hex() for k in ("x", "u_y", "u_dy", "z_y", "z_dy")]
               for row in rows]
        assert code == 0 and got == want, (nu, x_max, a)
        assert err == (f"max node deviation {trace_deviation(z, u):.6g} "
                       f"over {len(want)} nodes\n"), (nu, x_max, a)

    check()


def test_polygon_compare_summary_is_the_max_of_the_deviation_column():
    # the summary line gives, to 6 digits, the largest deviation that the
    # table prints, where the squares of the differences underflow too
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=30, deadline=None, derandomize=True)
    @hypothesis.given(st.floats(-170.0, 12.0), st.floats(0.0, 1.0), st.floats(100.0, 1e4))
    @hypothesis.example(-160.0, 0.05, 10000.0)  # deviations near 1e-163
    @hypothesis.example(1.0, 1.0, 10000.0)  # the README command
    def check(nu, x_max, a):
        code, out, err = run_cli("polygon", "compare", "--nu", repr(nu), "--x-max", repr(x_max),
                                 "--a", repr(a))
        if code == 0:
            _, rows = parse_csv(out)
            dev = max(float(row["deviation"]) for row in rows)
            assert err == f"max node deviation {dev:.6g} over {len(rows)} nodes\n", (nu, x_max, a)

    check()
    _, _, err = run_cli("polygon", "compare", "--nu", "-160", "--x-max", "0.05", "--a", "10000")
    assert err == "max node deviation 8.68869e-164 over 8 nodes\n"


# One record of each public record type: how it is built, its repr (the
# text the frozen dataclasses printed before the records were NamedTuples)
# and the command whose CSV prints its fields as columns, or None.
_RECORDS = [
    ("ScaledPoint", lambda api: api.ScaledPoint(0.5, 100.0),
     "ScaledPoint(x=0.5, a=100.0, n=93, theta=0.0710678118654755)",
     "eval scaled --x 0.5 --a 100.0 --nu 1.5"),
    ("SplitConfig", lambda api: api.SplitConfig(200.5, -4.0),
     "SplitConfig(a=200.5, nu=-4.0, A=200, M=54, dt=0.07071067811865475)",
     "asymptotics head-tail --a 200.5 --nu -4"),
    ("SplitReport", lambda api: api.head_tail_split(api.SplitConfig(200.5, -4.0)),
     "SplitReport(r_head=2.326457480587612, r_tail=0.005719589727400698, "
     "y0_reconstructed=0.09717404459645891, y0_direct=0.09717404459645891, "
     "h_nu_0=0.08333333333333331, y0_direct_ceiling=0.11101293895542452)",
     "asymptotics head-tail --a 200.5 --nu -4"),
    ("TrapezoidCheck", lambda api: api.trapezoid_gamma_check(-4.5, 10, 40, 0.1),
     "TrapezoidCheck(riemann_sum=2.5551749818815748, closed_form=2.5240777404102372, "
     "abs_err=0.031097241471337522)", None),
    ("PolygonTrace", lambda api: api.euler_polygon(1.0, (1.0, 0.0), 0.0, 0.1),
     "PolygonTrace(xs=array([0.]), states=array([[1., 0.]]), step=0.1)", None),
    ("RateFit", lambda api: api.fit_rate([(100.0, 0.1), (1000.0, 0.03), (10000.0, 0.01)]),
     "RateFit(slope=-0.4999999999999999, intercept=-0.017560085942971374, "
     "r_squared=0.9993025707662043, points=((100.0, 0.1), (1000.0, 0.03), (10000.0, 0.01)))",
     None),
    ("SharpnessResult", lambda api: api.sharpness_check("1/2", 2),
     "SharpnessResult(n=1, lhs=Fraction(1, 1), rhs=Fraction(1, 1), equal=True)", None),
    ("ZeroResult", lambda api: api.hermite_zeros_in_order(0.0, 0.5, 1.5)[0],
     "ZeroResult(root=1.0, bracket_lo=0.9999999999999999, bracket_hi=1.0000000000004998, "
     "residual=0.0, iterations=4)", None),
    ("ZeroConvergenceRow", lambda api: api.zero_convergence_table(0.0, 3.0, [100.0])[0],
     "ZeroConvergenceRow(a=100.0, n=100, nu_n=3.084174203109283, abs_err=0.08417420310928314, "
     "error=None)", "zeros convergence --x 0 --target-nu 3 --a-list 100"),
]


def test_every_public_record_is_in_the_table():
    import charlier_hermite
    records = {name for name in charlier_hermite.__all__
               if hasattr(getattr(charlier_hermite, name), "_fields")}
    assert records == {case[0] for case in _RECORDS}


@pytest.mark.parametrize("name, build, text, command", _RECORDS, ids=[c[0] for c in _RECORDS])
def test_records_are_immutable_tuples_with_the_dataclass_repr(name, build, text, command):
    import copy
    import pickle

    import charlier_hermite
    from charlier_hermite.cli import _fmt_number
    record = build(charlier_hermite)
    assert type(record) is getattr(charlier_hermite, name)
    assert repr(record) == text
    with pytest.raises(AttributeError):
        setattr(record, record._fields[0], None)
    with pytest.raises(AttributeError):
        record.extra = None
    assert not hasattr(record, "__dict__")
    assert list(record._asdict().items()) == list(zip(record._fields, record))
    assert repr(copy.copy(record)) == repr(pickle.loads(pickle.dumps(record))) == text
    if command is not None:  # every field is a column, printed from _asdict()
        _, out, _ = run_cli(*command.split())
        _, rows = parse_csv(out)
        assert {key: rows[0][key] for key in record._fields} == {
            key: "" if v is None else _fmt_number(v) for key, v in record._asdict().items()}


def test_render_csv_escapes_commas():
    table = OutputTable(("k", "msg"), [{"k": 1, "msg": "bad, worse"}])
    assert render_csv(table) == "k,msg\n1,bad; worse\n"


def _checkout_env():
    # the child finds the package from a plain checkout, installed or not
    src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
    path = [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(path))


def test_subprocess_runs_are_byte_identical():
    cmd = [sys.executable, "-m", "charlier_hermite.cli", "sweep",
           "convergence", "--nu", "1.5", "--x", "0.7",
           "--a-list", "100,1000,10000"]
    env = _checkout_env()
    first = subprocess.run(cmd, capture_output=True, check=True, env=env)
    second = subprocess.run(cmd, capture_output=True, check=True, env=env)
    assert first.stdout == second.stdout
    assert first.stderr == second.stderr
    assert first.stdout.count(b"\n") == 4  # header + 3 rows


def test_zeros_convergence_reports_an_overflowing_degree_as_a_row_failure():
    # 2a overflows at a = 1e308, where the degree floor(a - x sqrt(2a))
    # raised OverflowError through the command, with a traceback
    done = subprocess.run([sys.executable, "-m", "charlier_hermite.cli", "zeros", "convergence",
                           "--x", "0.5", "--target-nu", "1.66", "--a-list", "100,200,1e308"],
                          capture_output=True, env=_checkout_env(), text=True)
    assert "Traceback" not in done.stderr
    _, rows = parse_csv(done.stdout)
    assert [row["error"] != "" for row in rows] == [False, False, True]
    assert "derived degree n = floor(-inf) is not finite" in rows[2]["error"]
    # two usable rows are too few for the rate fit
    assert done.returncode == 1 and done.stderr.startswith("rate fit skipped")


# Runs each argv in turn in one fresh interpreter and prints, per step,
# the exit code and whether numpy has been imported so far.
_NUMPY_PROBE = """
import contextlib, io, json, sys
import charlier_hermite
steps = [[0, "numpy" in sys.modules]]
from charlier_hermite import cli
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    steps.append([code, "numpy" in sys.modules])
print(json.dumps(steps))
"""


def test_scalar_commands_do_not_import_numpy():
    commands = {
        "eval hermite": ["eval", "hermite", "--nu", "2.5", "--x", "0.5"],
        "eval charlier rational": ["eval", "charlier", "--n", "60", "--a", "7/2",
                                   "--nu", "5/2", "--mode", "rational"],
        "eval charlier n=10": ["eval", "charlier", "--n", "10", "--a", "2.5", "--nu", "1.5"],
        "plot fnu": ["plot", "fnu", "--nu", "-3", "--t-max", "3", "--dt", "0.01"],
        "eval scaled": ["eval", "scaled", "--x", "0.5", "--a", "100", "--nu", "1.5"],
        "eval charlier n=150": ["eval", "charlier", "--n", "150", "--a", "250", "--nu", "0.4"],
        "eval scaled a=10000": ["eval", "scaled", "--x", "0.5", "--a", "10000", "--nu", "1.5"],
        "asymptotics head-tail": ["asymptotics", "head-tail", "--a", "10000", "--nu", "-4.5"],
        "sweep convergence": ["sweep", "convergence", "--nu", "1.5", "--x", "0.7",
                              "--a-list", "100,1000,10000,100000"],
        "zeros convergence": ["zeros", "convergence", "--x", "0", "--target-nu", "3",
                              "--a-list", "100,400,1600,6400"],
        "polygon compare": ["polygon", "compare", "--nu", "1", "--x-max", "1", "--a", "100"],
        # last, so the probe is shown to see an import when there is one:
        # the third sum does not fit in the Python terms left
        "sweep convergence a=1e9": ["sweep", "convergence", "--nu", "1.5", "--x", "0.7",
                                    "--a-list", "1e8,3e8,1e9"],
    }
    done = subprocess.run([sys.executable, "-c", _NUMPY_PROBE,
                           json.dumps(list(commands.values()))],
                          capture_output=True, check=True, env=_checkout_env(), text=True)
    steps = dict(zip(["import charlier_hermite", *commands], json.loads(done.stdout)))
    assert steps == {
        "import charlier_hermite": [0, False],
        "eval hermite": [0, False],
        "eval charlier rational": [0, False],
        "eval charlier n=10": [0, False],
        "plot fnu": [0, False],
        "eval scaled": [0, False],
        "eval charlier n=150": [0, False],
        "eval scaled a=10000": [0, False],
        "asymptotics head-tail": [0, False],
        "sweep convergence": [0, False],
        "zeros convergence": [0, False],
        "polygon compare": [0, False],
        "sweep convergence a=1e9": [0, True],
    }


# Runs cli.main(ARGV) in a fresh interpreter and prints its exit code, the
# package modules loaded, whether numpy is, and which of the standard
# modules below are, all read before the probe imports json to print them.
_MODULES_PROBE = """
import contextlib, io, sys
from charlier_hermite import cli
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    code = cli.main(sys.argv[1:])
loaded = set(sys.modules)
import json
print(json.dumps([code, sorted(m.split(".", 1)[1] for m in loaded if m.startswith("charlier_hermite.")),
                  "numpy" in loaded,
                  sorted(loaded & {"dataclasses", "decimal", "fractions", "inspect", "json"})]))
"""

_SCALAR = ["errors", "hermite", "special"]
_SUM = ["charlier", "cli", "errors"]
_SPLIT = ["asymptotics", "charlier", "cli", "errors", "hermite", "special"]


# Each README command loads neither dataclasses nor inspect; a CSV table
# loads no json, and a float-mode command no fractions (zeros convergence
# tests an integer target for an exact zero in rational mode) and no
# decimal, which only fractions imports.  Only that exact test sums a
# series in zeros convergence, so at a non-integer target it loads no
# charlier.  The last case shows the probe sees json where it is loaded.
_README_IMPORTS = [
    ("eval hermite --nu 2 --x 0.5", ["cli", *_SCALAR], False, []),
    ("eval charlier --n 137 --a 250 --nu 0.37", _SUM, False, []),
    ("eval charlier --n 1 --a 5/2 --nu 1/2 --mode rational", _SUM, False,
     ["decimal", "fractions"]),
    ("eval scaled --x 0.5 --a 10000 --nu 1.5", _SUM, False, []),
    ("sweep convergence --nu 1.5 --x 0.7 --a-list 100,1000,10000,100000",
     [*_SUM, "hermite", "ratefit", "special"], False, []),
    ("plot fnu --nu -3 --t-max 3 --dt 0.01", ["asymptotics", "cli", "errors", "hermite", "special"],
     False, []),
    ("zeros convergence --x 0 --target-nu 3 --a-list 100,400,1600,6400",
     [*_SUM, "hermite", "ratefit", "special", "zeros"], False, ["decimal", "fractions"]),
    ("zeros convergence --x 0.5 --target-nu 1.66 --a-list 100,400,1600,6400",
     ["cli", "errors", "hermite", "ratefit", "special", "zeros"], False, []),
    ("polygon compare --nu 1 --x-max 1 --a 10000", ["charlier", "cli", "errors", "polygon"], False, []),
    ("asymptotics head-tail --a 10000 --nu -4", _SPLIT, False, []),
    ("eval hermite --nu 2 --x 0.5 --out json", ["cli", *_SCALAR], False, ["json"]),
]


@pytest.mark.parametrize("argv, modules, numpy_loaded, stdlib", _README_IMPORTS,
                         ids=[case[0] for case in _README_IMPORTS])
def test_readme_commands_import_only_what_they_run(fresh_python, argv, modules, numpy_loaded,
                                                   stdlib):
    assert fresh_python(_MODULES_PROBE, *argv.split()) == [0, modules, numpy_loaded, stdlib]


_PACKAGE_PROBE = """
import json, sys
import charlier_hermite
loaded = sorted(m for m in sys.modules if m.startswith("charlier_hermite."))
listed = dir(charlier_hermite)
star = {}
exec("from charlier_hermite import *", star)
print(json.dumps([loaded, "numpy" in sys.modules, listed, sorted(star.keys() - {"__builtins__"}),
                  charlier_hermite.__all__]))
"""


def test_package_import_loads_no_submodule(fresh_python):
    loaded, numpy_loaded, listed, star, names = fresh_python(_PACKAGE_PROBE)
    assert (loaded, numpy_loaded) == ([], False)
    # the lazy names are listed before they load, and a star import loads them
    assert len(names) == 39 and set(names) <= set(listed)
    assert star == sorted(names)


def test_public_names_load_the_module_that_defines_them():
    import charlier_hermite
    for name, module in charlier_hermite._MODULE_OF.items():
        assert getattr(charlier_hermite, name).__module__ == f"charlier_hermite.{module}"
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        charlier_hermite.no_such_name


def test_dir_lists_every_public_name(monkeypatch):
    # a name not yet loaded is listed too
    import charlier_hermite
    monkeypatch.delitem(vars(charlier_hermite), "fit_rate", raising=False)
    listed = dir(charlier_hermite)
    assert "fit_rate" in listed and set(charlier_hermite.__all__) <= set(listed)


def test_public_names_are_pinned():
    # a name added to or dropped from the package's surface shows up here
    import charlier_hermite
    assert sorted(charlier_hermite.__all__) == [
        "ConvergenceError", "DomainError", "PolygonTrace", "RateFit", "ScaledPoint",
        "SharpnessResult", "SplitConfig", "SplitReport", "TrapezoidCheck",
        "ZeroConvergenceRow", "ZeroResult",
        "admissible_sharpness_pairs", "apriori_deviation_bound", "charlier_backward_step",
        "charlier_direct", "charlier_order_shift", "charlier_state_trace",
        "charlier_zeros_in_order", "count_positive_zeros", "euler_polygon", "f_nu",
        "factor_p", "factor_q", "fit_rate", "head_tail_split", "hermite_derivative",
        "hermite_fn", "hermite_zeros_in_order", "kummer_m", "ln_gamma",
        "pochhammer_rising", "reciprocal_gamma", "scaled_y", "sharpness_check",
        "system_matrix_norm_bound", "trace_deviation", "trapezoid_gamma_check",
        "upper_incomplete_gamma", "zero_convergence_table",
    ]
    assert all(hasattr(charlier_hermite, name) for name in charlier_hermite.__all__)
