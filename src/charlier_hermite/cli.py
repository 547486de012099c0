"""Command line interface.

Grammar: charlier-hermite <group> <action> --flag value [--out csv|json],
and [--mode float|rational] on eval charlier and eval scaled.  Each command
is one row of _COMMANDS, from which the parser is built and the command run.

Each handler imports the package modules it runs when it runs, so that
a command loads no module it does not call.

Tables go to stdout as CSV (default) or JSON (--out json), numbers with
17 significant digits, so a given invocation is byte-for-byte
reproducible; diagnostics and fit summaries go to stderr.  Exit codes: 0
success, 1 domain error (usage errors, results outside double range, plot
fnu grids over the row limit), 2 numerical non-convergence.
"""

import argparse
import math
import re
import sys
from collections import namedtuple

from .errors import _MAX_NODES, ConvergenceError, DomainError


OutputTable = namedtuple("OutputTable", "header rows")  # rows: dicts keyed by header names


def _fmt_number(v) -> str:
    if isinstance(v, bool):
        raise TypeError("bool is not a table value")
    if isinstance(v, float):  # +0.0 normalizes -0.0
        return "nan" if math.isnan(v) else format(v + 0.0, ".17g")
    try:
        return str(v)
    except ValueError:  # an exact value past Python's limit on digits
        raise DomainError(f"the exact value has more than {sys.get_int_max_str_digits()} "
                          "digits") from None


def render_csv(table: OutputTable) -> str:
    # None is an empty cell; commas would break the unquoted dialect
    lines = [",".join(table.header)] + [
        ",".join("" if row.get(k) is None else _fmt_number(row[k]).replace(",", ";")
                 for k in table.header) for row in table.rows]
    return "\n".join(lines) + "\n"


def render_json(table: OutputTable) -> str:
    import json  # here, as a CSV table never needs it

    def cell(v) -> str:
        # by hand: json.dumps writes floats with repr, not 17 significant
        # digits; JSON has no nan or inf, so a float that is not finite is null
        if v is None or (isinstance(v, float) and not math.isfinite(v)):
            return "null"
        text = _fmt_number(v)
        return text if isinstance(v, (int, float)) else json.dumps(text)

    rows = ["  {" + ", ".join(f"{json.dumps(key)}: {cell(row.get(key))}"
                              for key in table.header) + "}" for row in table.rows]
    return "[\n" + ",\n".join(rows) + "\n]\n"


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse reads only -1, -1.5 and -.5 as negative numbers, so a
        # value such as -1e-3 was taken for an option; no option here
        # starts with - and a digit
        self._negative_number_matcher = re.compile(r"^-\.?\d")

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


def _fraction(s: str):
    from fractions import Fraction
    return Fraction(s)


_parse_fraction = _flag_parser(_fraction, "rational")


def _parse_a_list(s: str, name: str) -> list:
    try:
        values = [float(part) for part in s.split(",") if part != ""]
    except ValueError as exc:
        raise DomainError(f"invalid {name}: {s!r}") from exc
    if not values:
        raise DomainError(f"{name} is empty")
    return values


def _report_rate(rows) -> None:
    """Fit err ~ a^slope over the rows with abs_err > 0, write the fit, or why
    there is none, to stderr and fill every row's slope and r_squared (empty
    without a fit)."""
    from .ratefit import fit_rate
    usable = [(r["a"], r["abs_err"]) for r in rows if r.get("abs_err", 0) > 0]
    fit = None
    if len(usable) < 3:
        print("rate fit skipped: fewer than 3 usable rows with err > 0", file=sys.stderr)
    elif len({a for a, _ in usable}) < len(usable):
        print("rate fit skipped: repeated a values among the rows with err > 0",
              file=sys.stderr)
    else:
        try:  # fit_rate refuses distinct a whose float ln a coincide, and an err of inf
            fit = fit_rate(usable)
        except DomainError as e:
            print(f"rate fit skipped: {e}", file=sys.stderr)
    if fit is not None:
        if len(rows) > len(usable):
            print(f"rate fit excluded {len(rows) - len(usable)} row(s) with err <= 0 "
                  "or failures", file=sys.stderr)
        print(f"fitted slope {fit.slope:.6g} (intercept {fit.intercept:.6g}, "
              f"r^2 {fit.r_squared:.6g})", file=sys.stderr)
    for r in rows:
        r.update(slope=fit and fit.slope, r_squared=fit and fit.r_squared)


def _eval_charlier(n, a, nu, mode):
    from .charlier import charlier_direct
    return [{"n": n, "a": a, "nu": nu, "value": charlier_direct(n, a, nu, mode)}]


def _eval_hermite(nu, x):
    from .hermite import hermite_fn
    return [{"nu": nu, "x": x, "value": hermite_fn(nu, x)}]


def _eval_scaled(x, a, nu, mode):
    from .charlier import ScaledPoint, scaled_y
    point = ScaledPoint(x, a)
    return [{**point._asdict(), "nu": nu, "value": scaled_y(point, nu, mode)}]


def _sweep_convergence(nu, x, a_list):
    from .charlier import ScaledPoint, scaled_y
    from .hermite import hermite_fn
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
    if span >= _MAX_NODES:
        raise DomainError(f"t-max/dt = {span:.6g} asks for more than {_MAX_NODES} rows")
    from .asymptotics import f_nu
    return [{"t": i * dt, "f": f_nu(i * dt, nu)} for i in range(int(span) + 1)]


def _zeros_convergence(x, target_nu, a_list):
    from .zeros import zero_convergence_table
    rows = [{"a": r.a, "n": r.n, "nu_n": r.nu_n, "abs_err": r.abs_err} if r.error is None
            else {"a": r.a, "error": r.error}
            for r in zero_convergence_table(x, target_nu, a_list)]
    _report_rate(rows)
    return rows


def _polygon_compare(nu, x_max, a):
    from .polygon import _euler_rows, _trace_rows
    xs, z_y, z_dy, dx = _trace_rows(nu, a, x_max)
    _, u_y, u_dy = _euler_rows(nu, (z_y[0], z_dy[0]), x_max, dx)
    rows = [{"x": xk, "u_y": uy, "u_dy": udy, "z_y": zy, "z_dy": zdy,
             "deviation": math.hypot(zy - uy, zdy - udy)}
            for xk, uy, udy, zy, zdy in zip(xs, u_y, u_dy, z_y, z_dy)]
    dev = max(r["deviation"] for r in rows)
    print(f"max node deviation {dev:.6g} over {len(rows)} nodes", file=sys.stderr)
    return rows


def _asymptotics_head_tail(a, nu):
    from .asymptotics import SplitConfig, head_tail_split
    cfg = SplitConfig(a, nu)
    rep = head_tail_split(cfg)
    return [{**cfg._asdict(), **rep._asdict(),
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
             _eval_charlier, ("n", "a", "nu", "value")),
    _Command("eval", "hermite", (("--nu", _F), ("--x", _F)), _eval_hermite,
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
