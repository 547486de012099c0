"""Command line interface.

Grammar: charlier-hermite <group> <action> --flag value [--out csv|json],
and [--mode float|rational] on eval charlier and eval scaled.  Each command
is one row of _COMMANDS, from which the parser is built and the command run.

Tables go to stdout as CSV (default) or JSON (--out json), numbers with
17 significant digits, so a given invocation is byte-for-byte
reproducible; diagnostics and fit summaries go to stderr.  Exit codes: 0
success, 1 domain error (usage errors, results outside double range, plot
fnu grids over the row limit), 2 numerical non-convergence.
"""

import argparse
import json
import math
import sys
from collections import namedtuple
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .asymptotics import SplitConfig, head_tail_split, f_nu
from .charlier import ScaledPoint, charlier_direct, scaled_y
from .errors import ConvergenceError, DomainError
from .hermite import hermite_fn
from .polygon import charlier_state_trace, euler_polygon, trace_deviation
from .ratefit import RateFit, fit_rate
from .zeros import zero_convergence_table

_MAX_ROWS = 1_000_000  # plot fnu limit, checked before any row is built


@dataclass
class OutputTable:
    header: tuple
    rows: list  # list of dicts keyed by header names


def _fmt_number(v) -> str:
    if isinstance(v, bool):
        raise TypeError("bool is not a table value")
    if isinstance(v, float):  # +0.0 normalizes -0.0
        return "nan" if math.isnan(v) else format(v + 0.0, ".17g")
    return str(v)


def render_csv(table: OutputTable) -> str:
    # None is an empty cell; commas would break the unquoted dialect
    lines = [",".join(table.header)] + [
        ",".join("" if row.get(k) is None else _fmt_number(row[k]).replace(",", ";")
                 for k in table.header) for row in table.rows]
    return "\n".join(lines) + "\n"


def _json_cell(v) -> str:
    # by hand: json.dumps writes floats with repr, not 17 significant digits
    if v is None or (isinstance(v, float) and math.isnan(v)):
        return "null"
    text = _fmt_number(v)
    return text if isinstance(v, (int, float)) else json.dumps(text)


def render_json(table: OutputTable) -> str:
    rows = ["  {" + ", ".join(f"{json.dumps(key)}: {_json_cell(row.get(key))}"
                              for key in table.header) + "}" for row in table.rows]
    return "[\n" + ",\n".join(rows) + "\n]\n"


class _Parser(argparse.ArgumentParser):
    # usage problems are domain errors (exit 1), not argparse's exit 2
    def error(self, message):
        raise DomainError(message)


def _flag_parser(convert, what):
    def parse(s: str, name: str):
        try:
            v = convert(s)
        except (ValueError, ZeroDivisionError) as exc:
            raise DomainError(f"invalid {what} for {name}: {s!r}") from exc
        if isinstance(v, float) and not math.isfinite(v):
            raise DomainError(f"{name} must be finite, got {s!r}")
        return v
    return parse


_parse_int = _flag_parser(int, "integer")
_parse_float = _flag_parser(float, "number")
_parse_fraction = _flag_parser(Fraction, "rational")


def _parse_a_list(s: str, name: str) -> list:
    try:
        values = [float(part) for part in s.split(",") if part != ""]
    except ValueError as exc:
        raise DomainError(f"invalid {name}: {s!r}") from exc
    if not values:
        raise DomainError(f"{name} is empty")
    return values


def _report_rate(rows) -> Optional[RateFit]:
    """Fit err ~ a^slope over the rows with abs_err > 0, write the fit to
    stderr and fill every row's slope and r_squared (empty without a fit)."""
    usable = [(r["a"], r["abs_err"]) for r in rows if r.get("abs_err", 0) > 0]
    fit = None
    if len(usable) < 3 or len({a for a, _ in usable}) < len(usable):
        print("rate fit skipped: fewer than 3 usable rows with err > 0", file=sys.stderr)
    else:
        fit = fit_rate(usable)
        if len(rows) > len(usable):
            print(f"rate fit excluded {len(rows) - len(usable)} row(s) with err <= 0 "
                  "or failures", file=sys.stderr)
        print(f"fitted slope {fit.slope:.6g} (intercept {fit.intercept:.6g}, "
              f"r^2 {fit.r_squared:.6g})", file=sys.stderr)
    for r in rows:
        r.update(slope=fit and fit.slope, r_squared=fit and fit.r_squared)
    return fit


def _eval_scaled(x, a, nu, mode):
    point = ScaledPoint(x, a)
    return [{**vars(point), "nu": nu, "value": scaled_y(point, nu, mode)}]


def _sweep_convergence(nu, x, a_list):
    h = hermite_fn(nu, x)
    rows = []
    for a in a_list:
        try:
            y = scaled_y(ScaledPoint(x, a), nu)
            rows.append({"a": a, "y": y, "hermite": h, "abs_err": abs(y - h)})
        except DomainError as exc:
            rows.append({"a": a, "error": str(exc)})
    _report_rate(rows)
    return rows


def _plot_fnu(nu, t_max, dt):
    if dt <= 0 or t_max < 0:
        raise DomainError(f"need dt > 0 and t-max >= 0, got dt={dt}, t-max={t_max}")
    span = t_max / dt + 1e-12
    if span >= _MAX_ROWS:
        raise DomainError(f"t-max/dt = {span:.6g} asks for more than {_MAX_ROWS} rows")
    return [{"t": i * dt, "f": f_nu(i * dt, nu)} for i in range(int(span) + 1)]


def _zeros_convergence(x, target_nu, a_list):
    rows = [{"a": r.a, "n": r.n, "nu_n": r.nu_n, "abs_err": r.abs_err} if r.error is None
            else {"a": r.a, "error": r.error}
            for r in zero_convergence_table(x, target_nu, a_list)]
    _report_rate(rows)
    return rows


def _polygon_compare(nu, x_max, a):
    z = charlier_state_trace(nu, a, x_max)
    u = euler_polygon(nu, z.states[0], x_max, z.step)
    rows = [{"x": float(xk), "u_y": float(uy), "u_dy": float(udy), "z_y": float(zy),
             "z_dy": float(zdy), "deviation": math.hypot(zy - uy, zdy - udy)}
            for xk, (uy, udy), (zy, zdy) in zip(z.xs, u.states, z.states)]
    print(f"max node deviation {trace_deviation(z, u):.6g} over {len(rows)} nodes",
          file=sys.stderr)
    return rows


def _asymptotics_head_tail(a, nu):
    cfg = SplitConfig(a, nu)
    rep = head_tail_split(cfg)
    return [{**vars(cfg), **vars(rep),
             "abs_err_vs_hermite": abs(rep.y0_reconstructed - rep.h_nu_0)}]


# One row per command.  flags are (flag, parser) pairs, parsed in order; a
# None parser reads a float, or a Fraction under --mode rational, and only
# commands with such a flag take --mode.  The handler gets the parsed flags
# (and mode) as keywords and returns the row dicts; the exit code is 1 when
# fewer than min_ok rows have no error.
_Command = namedtuple("_Command", "group action flags handler header min_ok", defaults=(0,))
_GROUP_HELP = {
    "eval": "evaluate a single value", "sweep": "convergence sweep over a",
    "plot": "tabulate f_nu for plotting", "zeros": "zero convergence toward a Hermite zero",
    "polygon": "Charlier trace vs Euler polygon", "asymptotics": "head/tail split at x = 0"}
_F = _parse_float  # the common flag type, short so that _COMMANDS stays readable
_COMMANDS = (
    _Command("eval", "charlier", (("--n", _parse_int), ("--a", None), ("--nu", None)),
             lambda n, a, nu, mode: [{"n": n, "a": a, "nu": nu,
                                      "value": charlier_direct(n, a, nu, mode)}],
             ("n", "a", "nu", "value")),
    _Command("eval", "hermite", (("--nu", _F), ("--x", _F)),
             lambda nu, x: [{"nu": nu, "x": x, "value": hermite_fn(nu, x)}],
             ("nu", "x", "value")),
    _Command("eval", "scaled", (("--x", _F), ("--a", _F), ("--nu", None)),
             _eval_scaled, ("x", "a", "nu", "n", "theta", "value")),
    _Command("sweep", "convergence",
             (("--nu", _F), ("--x", _F), ("--a-list", _parse_a_list)), _sweep_convergence,
             ("a", "y", "hermite", "abs_err", "slope", "r_squared", "error"), 3),
    _Command("plot", "fnu", (("--nu", _F), ("--t-max", _F), ("--dt", _F)),
             _plot_fnu, ("t", "f")),
    _Command("zeros", "convergence",
             (("--x", _F), ("--target-nu", _F), ("--a-list", _parse_a_list)),
             _zeros_convergence, ("a", "n", "nu_n", "abs_err", "slope", "error"), 3),
    _Command("polygon", "compare", (("--nu", _F), ("--x-max", _F), ("--a", _F)),
             _polygon_compare, ("x", "u_y", "u_dy", "z_y", "z_dy", "deviation")),
    _Command("asymptotics", "head-tail", (("--a", _F), ("--nu", _F)),
             _asymptotics_head_tail,
             ("a", "nu", "A", "M", "dt", "r_head", "r_tail", "y0_reconstructed",
              "y0_direct", "y0_direct_ceiling", "h_nu_0", "abs_err_vs_hermite")),
)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="charlier-hermite", description=__doc__)
    groups = parser.add_subparsers(dest="group", required=True)
    actions = {group: groups.add_parser(group, help=text).add_subparsers(
        dest="action", required=True) for group, text in _GROUP_HELP.items()}
    for cmd in _COMMANDS:
        p = actions[cmd.group].add_parser(cmd.action)
        for flag, _ in cmd.flags:
            p.add_argument(flag, required=True)
        p.add_argument("--out", choices=("csv", "json"), default="csv")
        if any(parse is None for _, parse in cmd.flags):
            p.add_argument("--mode", choices=("float", "rational"), default="float")
        p.set_defaults(command=cmd)
    return parser


def main(argv=None) -> int:
    try:
        args = vars(build_parser().parse_args(argv))
        cmd, mode = args["command"], args.get("mode")
        values = {} if mode is None else {"mode": mode}
        for flag, parse in cmd.flags:
            parse = parse or (_parse_fraction if mode == "rational" else _parse_float)
            dest = flag[2:].replace("-", "_")
            values[dest] = parse(args[dest], flag)
        rows = cmd.handler(**values)
        render = render_csv if args["out"] == "csv" else render_json
        sys.stdout.write(render(OutputTable(cmd.header, rows)))
        return 0 if sum(row.get("error") is None for row in rows) >= cmd.min_ok else 1
    except (DomainError, ConvergenceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, ConvergenceError) else 1


if __name__ == "__main__":
    sys.exit(main())
