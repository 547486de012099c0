import json
import math
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

# Runs cli.main(ARGV) in the interpreter it starts and prints, as JSON, the
# exit code, stdout, stderr and whether numpy has been imported.
_FRESH_CLI = """
import contextlib, io, json, sys
from charlier_hermite import cli
out, err = io.StringIO(), io.StringIO()
with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
    code = cli.main(sys.argv[1:])
print(json.dumps([code, out.getvalue(), err.getvalue(), "numpy" in sys.modules]))
"""


@pytest.fixture
def arange_cap(monkeypatch):
    """Make np.arange(stop) and np.arange(start, stop) fail, before they
    allocate, when one call asks for more than 10^6 elements or the calls
    of the test together ask for more than 10^7.  A test can then show a
    call does bounded work without running it uncapped.  The fixture's
    value, a one-element list, counts the elements asked for so far."""
    arange = np.arange
    asked = [0]

    def capped(start, stop=None, **kwargs):
        if stop is None:
            start, stop = 0, start
        asked[0] += stop - start
        if stop - start > 10 ** 6 or asked[0] > 10 ** 7:
            raise AssertionError(f"np.arange asked for {stop - start} elements, "
                                 f"{asked[0]} in this test")
        return arange(start, stop, **kwargs)

    monkeypatch.setattr(np, "arange", capped)
    return asked


@pytest.fixture
def recorded(monkeypatch):
    """recorded(module, name) wraps module.<name> for the test so that each
    result it returns is also appended to the list recorded returns."""
    def record(module, name):
        results, fn = [], getattr(module, name)

        def wrapper(*args):
            results.append(fn(*args))
            return results[-1]

        monkeypatch.setattr(module, name, wrapper)
        return results

    return record


@pytest.fixture
def fresh_python():
    """fresh_python(code, *args) runs `code` with `args` in a fresh
    interpreter, which finds the package from this checkout, installed or
    not, and returns what the code prints, read as JSON."""
    src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
    path = [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))

    def run(code, *args):
        done = subprocess.run([sys.executable, "-c", code, *args],
                              capture_output=True, check=True, env=env, text=True)
        return json.loads(done.stdout)

    return run


@pytest.fixture
def fresh_cli(fresh_python):
    """fresh_cli(*argv) runs the command line in a fresh interpreter and
    returns (exit code, stdout, stderr, whether numpy was loaded)."""
    return lambda *argv: tuple(fresh_python(_FRESH_CLI, *argv))


def _kummer_reference(alpha, beta, z):
    """kummer_m as first written, k an int and each denominator computed in
    the loop, with its checks and the refusal of a sum that is not finite:
    (M, terms summed).  The table-driven series must give the same double,
    error and message."""
    from charlier_hermite import ConvergenceError, DomainError
    for name, value in (("alpha", alpha), ("beta", beta), ("z", z)):
        if not math.isfinite(value):
            raise DomainError(f"{name} must be a finite number, got {value!r}")
    if beta <= 0 and beta == math.floor(beta):
        raise DomainError(f"kummer_m pole at beta = {beta}")
    total = 1.0
    comp = 0.0
    term = 1.0
    small = 0
    for k in range(10_000):
        term *= (alpha + k) * z / ((beta + k) * (k + 1.0))
        y = term - comp
        t = total + y
        comp = (t - total) - y
        total = t
        if term == 0.0:
            return _finite(total, alpha, beta, z), k + 1
        if abs(term) < 1e-16 * abs(total):
            small += 1
            if small == 3:
                return _finite(total, alpha, beta, z), k + 1
        else:
            small = 0
    raise ConvergenceError(
        f"kummer_m series did not converge for alpha={alpha}, beta={beta}, z={z}"
    )


def _finite(total, alpha, beta, z):
    from charlier_hermite import DomainError
    if not math.isfinite(total):
        raise DomainError(f"kummer_m at alpha={alpha}, beta={beta}, z={z} is outside double range")
    return total


@pytest.fixture
def kummer_reference():
    """The frozen kummer_m series: kummer_reference(alpha, beta, z) gives
    (M, terms summed) or raises as kummer_m first did."""
    return _kummer_reference

