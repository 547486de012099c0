"""Golden corpus for the command line interface.

`cli_golden.json` records, for each argv, the exit code, stdout and
stderr of `python -m charlier_hermite.cli ARGV`: every README command in
CSV and JSON, rational evaluations, row failures, and usage and domain
errors.  Each case is replayed in-process and must match byte for byte.

The tests after the replay pin the inputs the corpus leaves out because
their behaviour was changed on purpose: --mode on commands without a
rational path, the excluded-rows note of zeros convergence, results
outside double range, and the plot fnu row limit.
"""

import contextlib
import io
import json
import pathlib

import pytest

from charlier_hermite import cli

CASES = json.loads((pathlib.Path(__file__).parent / "cli_golden.json").read_text())


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("case", CASES, ids=[" ".join(c["argv"]) or "-" for c in CASES])
def test_golden_case(case):
    assert run_cli(*case["argv"]) == (case["code"], case["stdout"], case["stderr"])


@pytest.mark.parametrize("argv", [
    ["eval", "hermite", "--nu", "2", "--x", "0.5"],
    ["sweep", "convergence", "--nu", "1.5", "--x", "0.7", "--a-list", "100,1000,10000"],
    ["plot", "fnu", "--nu", "-3", "--t-max", "3", "--dt", "0.01"],
    ["zeros", "convergence", "--x", "0", "--target-nu", "3", "--a-list", "100,400,1600"],
    ["polygon", "compare", "--nu", "1", "--x-max", "1", "--a", "100"],
    ["asymptotics", "head-tail", "--a", "10000", "--nu", "-4"],
])
def test_mode_is_a_usage_error_without_rational_path(argv):
    code, out, err = run_cli(*argv, "--mode", "rational")
    assert (code, out, err) == (1, "", "error: unrecognized arguments: --mode rational\n")


def test_zeros_reports_excluded_rows():
    # at x = 0 the integer a = 100 hits the target zero exactly (err = 0)
    code, out, err = run_cli("zeros", "convergence", "--x", "0", "--target-nu", "1",
                             "--a-list", "100,100.5,200.5,400.5")
    assert code == 0
    assert err.splitlines()[0] == "rate fit excluded 1 row(s) with err <= 0 or failures"
    assert err.splitlines()[1].startswith("fitted slope -0.514536 ")
    assert out.splitlines()[1] == "100,100,1,0,-0.51453582475286863,"


@pytest.mark.parametrize("argv", [
    ["eval", "charlier", "--n", "200", "--a", "10", "--nu", "500.5"],
    ["eval", "charlier", "--n", "400", "--a", "1", "--nu", "-300.5"],
    ["eval", "scaled", "--x", "0", "--a", "1000", "--nu", "400"],
    ["sweep", "convergence", "--nu", "400", "--x", "0", "--a-list", "100,1000,10000"],
    ["eval", "charlier", "--n", "1000000000000", "--a", "1", "--nu", "0.5"],
])
def test_overflow_is_a_domain_error(arange_cap, argv):
    # one stderr line, the error, with no numpy warning before it; the
    # capped np.arange shows n = 10^12 is rejected without O(n) work
    code, out, err = run_cli(*argv)
    assert (code, out) == (1, "")
    assert err.startswith("error:") and "outside double range" in err
    assert err.count("\n") == 1 and err.endswith("\n"), err


@pytest.mark.parametrize("dt", ["5e-324", "1e-300"])
def test_plot_fnu_row_limit_precedes_work(monkeypatch, dt):
    def no_work(t, nu):
        raise AssertionError("f_nu called before the row limit was checked")

    monkeypatch.setattr(cli, "f_nu", no_work)
    code, out, err = run_cli("plot", "fnu", "--nu", "-3", "--t-max", "3", "--dt", dt)
    assert (code, out) == (1, "")
    assert err.startswith("error:") and "1000000 rows" in err
