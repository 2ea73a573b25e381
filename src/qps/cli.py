"""Command-line front end emitting deterministic CSV/JSON tables.

Subcommands: poly, theta, angle-dist, action-dist, wigner, verify.
Exit codes: 0 success, 1 verification failure, 2 usage/config error,
3 numerical non-convergence or overflow.  A usage error prints one
`Error: ...` line on stderr and nothing on stdout.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from contextlib import contextmanager

from .errors import ImaginaryResidueError, NonConvergenceError
from .qseries import QParam
from .rspoly import rs_coefficients, rs_function
from .theta import theta3
from .verify import build_verify_report
from .wigner import _t_cutoff, action_table, angle_table, phase_grid, wigner_grid

EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_NONCONVERGENT = 3


class UsageError(Exception):
    """A bad command line or option value; exit 2."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


class Command:
    """One subcommand: its options, as (flag, add_argument keywords) pairs,
    and the callback that takes their values by keyword."""

    def __init__(self, name: str, callback, options: tuple):
        self.name = name
        self.callback = callback
        self.options = options
        self.help = callback.__doc__

    def parser(self, prog: str) -> argparse.ArgumentParser:
        parser = _Parser(prog=f"{prog} {self.name}", description=self.help, allow_abbrev=False)
        for flag, kwargs in self.options:
            parser.add_argument(flag, **kwargs)
        return parser

    def parse(self, argv: list[str], prog: str) -> dict:
        """The callback's keyword arguments.  Every option takes the next token
        as its value, even one that starts with '-' (`--m-range -2:4`)."""
        flags = {flag for flag, _ in self.options}
        joined = []
        tokens = iter(argv)
        for token in tokens:
            value = next(tokens, None) if token in flags else None
            joined.append(token if value is None else f"{token}={value}")
        namespace, extra = self.parser(prog).parse_known_args(joined)
        if extra:
            if extra[0].startswith("-"):
                raise UsageError(f"No such option '{extra[0].partition('=')[0]}'")
            raise UsageError(f"Got unexpected extra argument ({extra[0]})")
        return vars(namespace)


class Group:
    """The `qps` entry point: dispatches argv[0] to a Command."""

    def __init__(self, name: str, help: str):
        self.name = name
        self.help = help
        self.commands: dict[str, Command] = {}

    def command(self, name: str, *options):
        def register(callback):
            self.commands[name] = Command(name, callback, options)
            return callback
        return register

    def parser(self, prog: str) -> argparse.ArgumentParser:
        listing = "\n".join(f"  {name:<12} {self.commands[name].help.splitlines()[0]}"
                            for name in sorted(self.commands))
        parser = _Parser(prog=prog, usage=f"{prog} [--version] [--help] COMMAND [OPTIONS]",
                         description=self.help, epilog="commands:\n" + listing,
                         formatter_class=argparse.RawDescriptionHelpFormatter,
                         allow_abbrev=False)
        parser.add_argument("--version", action="version", version="qps, version 0.1.0")
        return parser

    def main(self, args=None, prog_name: str | None = None, standalone_mode: bool = True):
        """Run the command line args (default sys.argv[1:]).  Raises SystemExit
        with the exit code; with standalone_mode=False, returns it instead."""
        argv = sys.argv[1:] if args is None else list(args)
        prog = prog_name or self.name
        try:
            if argv and argv[0] in self.commands:
                # looked up per call: a tracer may swap the callback
                command = self.commands[argv[0]]
                command.callback(**command.parse(argv[1:], prog))
            else:
                if argv and argv[0].startswith("-"):
                    # --version and --help exit here
                    self.parser(prog).parse_args(argv)
                raise UsageError(f"No such command '{argv[0]}'." if argv
                                 else f"Missing command; see '{prog} --help'.")
            code = 0
        except UsageError as exc:
            print(f"Error: {exc}", file=sys.stderr)
            code = EXIT_USAGE
        except SystemExit as exc:
            code = exc.code
        if standalone_mode:
            raise SystemExit(code)
        return code


def check_options(q, mu, *, n=None, grid_points=None, tol=None) -> QParam:
    """Check the values the command has (None: it has no such option) and
    resolve the --q/--mu knob."""
    if (q is None) == (mu is None):
        raise UsageError("provide exactly one of --q or --mu")
    try:
        qp = QParam.from_q(q) if q is not None else QParam.from_mu(mu)
    except ValueError as exc:
        raise UsageError(str(exc))
    if n is not None and n < 0:
        raise UsageError(f"--n must be >= 0, got {n}")
    if grid_points is not None and grid_points < 8:
        raise UsageError(f"--grid-points must be >= 8, got {grid_points}")
    if tol is not None and not (tol > 0.0):
        raise UsageError(f"--tol must be positive, got {tol}")
    return qp


def fnum(x: float) -> str:
    """17 significant digits: round-trip safe and byte-deterministic."""
    return "%.17g" % x


def emit(text: str, out: str | None) -> None:
    """Write text to --out, or to stdout; an unwritable --out is a usage error."""
    if out:
        try:
            with open(out, "w") as f:
                f.write(text)
        except OSError as exc:
            raise UsageError(f"cannot write {out}: {exc.strerror or exc}")
    else:
        sys.stdout.write(text)
        sys.stdout.flush()


@contextmanager
def numeric_exit():
    """Map library errors onto the exit-code contract."""
    try:
        yield
    except (NonConvergenceError, ImaginaryResidueError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(EXIT_NONCONVERGENT)
    except ValueError as exc:
        raise UsageError(str(exc))


Q = ("--q", {"type": float, "help": "Deformation parameter q, 0 < q < 1."})
MU = ("--mu", {"type": float, "help": "Width parameter mu = -ln(q)/2 > 0 (alias knob for q)."})
N = ("--n", {"type": int, "default": 0, "help": "State index (default: %(default)s)."})
GRID = ("--grid-points", {"type": int, "default": 256,
                          "help": "Uniform angle-grid resolution (default: %(default)s)."})
TOL = ("--tol", {"type": float, "default": 1e-12,
                 "help": "Numerical tolerance for series truncation (default: %(default)s)."})
FORMAT = ("--format", {"dest": "fmt", "choices": ("csv", "json"), "default": "csv",
                       "help": "Output format (default: %(default)s)."})
OUT = ("--out", {"help": "Output file (default: stdout)."})

cli = Group("qps", """Phase-space tables for the q-deformed oscillator on the circle.

examples:
  qps poly --q 0.5 --n 3
  qps angle-dist --n 1 --mu-list 0.1,0.5,1.0 --format csv
  qps action-dist --q 0.5 --n 2 --m-range -2:6
  qps verify --q 0.5 --n 10""")


def _abs_r_squared_row(k: int, grid: tuple[float, ...], qp: QParam) -> list[float]:
    """|R_k(theta)|^2 over the grid; OverflowError naming |R_k|^2 past double range."""
    moduli = [abs(rs_function(k, th, qp)) for th in grid]
    try:
        row = [r ** 2 for r in moduli]
        if all(map(math.isfinite, row)):
            return row
    except OverflowError:
        pass
    raise OverflowError(f"|R_k|^2 overflows double precision at k={k}, q={qp.q}")


@cli.command("poly", Q, MU, N, GRID, FORMAT, OUT)
def poly(q, mu, n, grid_points, fmt, out):
    """Coefficients of H_0..H_n and |R_k(theta)|^2 sampled on the grid."""
    qp = check_options(q, mu, n=n, grid_points=grid_points)
    with numeric_exit():
        grid = phase_grid(grid_points)
        coeff_rows = [[float(c) for c in rs_coefficients(k, qp)] for k in range(n + 1)]
        r2 = [_abs_r_squared_row(k, grid, qp) for k in range(n + 1)]
    if fmt == "csv":
        lines = [",".join(fnum(c) for c in row) for row in coeff_rows]
        lines.append("")
        lines.append("theta," + ",".join(f"R2_{k}" for k in range(n + 1)))
        for i, th in enumerate(grid):
            lines.append(",".join([fnum(th)] + [fnum(r2[k][i]) for k in range(n + 1)]))
        emit("\n".join(lines) + "\n", out)
    else:
        payload = {
            "command": "poly",
            "q": qp.q,
            "mu": qp.mu,
            "n": n,
            "grid_points": grid_points,
            "coefficients": coeff_rows,
            "theta": list(grid),
            "abs_r_squared": r2,
        }
        emit(json.dumps(payload, indent=2) + "\n", out)


@cli.command("theta", Q, MU, GRID, TOL, FORMAT, OUT)
def theta_cmd(q, mu, grid_points, tol, fmt, out):
    """Jacobi theta_3 weight function sampled on the grid."""
    qp = check_options(q, mu, grid_points=grid_points, tol=tol)
    with numeric_exit():
        grid = phase_grid(grid_points)
        evals = [theta3(th, qp, tol) for th in grid]
    if fmt == "csv":
        lines = ["theta,theta3"]
        for th, ev in zip(grid, evals):
            lines.append(f"{fnum(th)},{fnum(ev.value)}")
        emit("\n".join(lines) + "\n", out)
    else:
        payload = {
            "command": "theta",
            "q": qp.q,
            "mu": qp.mu,
            "grid_points": grid_points,
            "tol": tol,
            "representation": evals[0].representation.value,
            "terms_used": [ev.terms_used for ev in evals],
            "theta": list(grid),
            "values": [ev.value for ev in evals],
        }
        emit(json.dumps(payload, indent=2) + "\n", out)


@cli.command("angle-dist", Q, MU, N, GRID, TOL, FORMAT, OUT,
             ("--mu-list", {"help": "Comma-separated mu values; emits one column per value."}))
def angle_dist(q, mu, n, grid_points, tol, fmt, out, mu_list):
    """Angle marginal Omega^(n)(theta) = theta_3(theta) |R_n(theta)|^2."""
    if mu_list is not None:
        if q is not None or mu is not None:
            raise UsageError("--mu-list replaces --q/--mu; do not combine them")
        tokens = [t.strip() for t in mu_list.split(",")]
        if not all(tokens):
            raise UsageError(f"--mu-list has an empty entry: {mu_list!r}")
        try:
            params = [(f"mu={t}", QParam.from_mu(float(t))) for t in tokens]
        except ValueError as exc:
            raise UsageError(f"bad --mu-list entry: {exc}")
        check_options(None, params[0][1].mu, n=n, grid_points=grid_points, tol=tol)
    else:
        params = [("omega", check_options(q, mu, n=n, grid_points=grid_points, tol=tol))]
    with numeric_exit():
        grid = phase_grid(grid_points)
        tables = [angle_table(n, qp, grid, tol) for _, qp in params]
    if fmt == "csv":
        lines = ["theta," + ",".join(label for label, _ in params)]
        for i, th in enumerate(grid):
            lines.append(",".join([fnum(th)] + [fnum(t[i]) for t in tables]))
        emit("\n".join(lines) + "\n", out)
    else:
        payload = {
            "command": "angle-dist",
            "n": n,
            "grid_points": grid_points,
            "tol": tol,
            "theta": list(grid),
            "columns": [
                {
                    "label": label,
                    "q": qp.q,
                    "mu": qp.mu,
                    "theta3_terms": theta3(0.0, qp, tol).terms_used,
                    "values": list(table),
                }
                for (label, qp), table in zip(params, tables)
            ],
        }
        emit(json.dumps(payload, indent=2) + "\n", out)


def _parse_m_range(spec: str) -> tuple[int, int]:
    try:
        lo_str, hi_str = spec.split(":")
        lo, hi = int(lo_str), int(hi_str)
    except ValueError:
        raise UsageError(f"--m-range must be LO:HI with integers, got {spec!r}")
    if hi < lo:
        raise UsageError(f"--m-range is empty: {spec!r}")
    return lo, hi


# --grid-points changes nothing here, but the benchmark's action cells pass it;
# it goes once they stop (ROADMAP open item 1)
@cli.command("action-dist", Q, MU, N, GRID, FORMAT, OUT,
             ("--m-range", {"default": "-2:10",
                            "help": "Inclusive integer range LO:HI of action values "
                                    "(default: %(default)s)."}))
def action_dist(q, mu, n, grid_points, fmt, out, m_range):
    """Action marginal Lambda^(n)(m) = delta_{m,n}; --grid-points does not change it."""
    qp = check_options(q, mu, n=n, grid_points=grid_points)
    lo, hi = _parse_m_range(m_range)
    with numeric_exit():
        values = list(action_table(n, lo, hi, qp))
    if fmt == "csv":
        lines = ["m,lambda"]
        for m, v in zip(range(lo, hi + 1), values):
            lines.append(f"{m},{fnum(v)}")
        emit("\n".join(lines) + "\n", out)
    else:
        payload = {
            "command": "action-dist",
            "q": qp.q,
            "mu": qp.mu,
            "n": n,
            "grid_points": grid_points,
            "m": list(range(lo, hi + 1)),
            "values": values,
        }
        emit(json.dumps(payload, indent=2) + "\n", out)


@cli.command("wigner", Q, MU, N, GRID, TOL, FORMAT, OUT,
             ("--m", {"type": int, "default": 0,
                      "help": "Action index of the slice (default: %(default)s)."}))
def wigner_cmd(q, mu, n, grid_points, tol, fmt, out, m):
    """Wigner function O_n(m, theta) over the angle grid at fixed m."""
    qp = check_options(q, mu, n=n, grid_points=grid_points, tol=tol)
    with numeric_exit():
        grid = phase_grid(grid_points)
        values = wigner_grid(n, m, qp, grid, tol)
    if fmt == "csv":
        lines = ["theta,wigner"]
        for th, v in zip(grid, values):
            lines.append(f"{fnum(th)},{fnum(v)}")
        emit("\n".join(lines) + "\n", out)
    else:
        payload = {
            "command": "wigner",
            "q": qp.q,
            "mu": qp.mu,
            "n": n,
            "m": m,
            "grid_points": grid_points,
            "tol": tol,
            "t_cutoff": _t_cutoff(qp.mu, tol),
            "theta": list(grid),
            "values": list(values),
        }
        emit(json.dumps(payload, indent=2) + "\n", out)


@cli.command(
    "verify", Q, MU,
    ("--n", {"type": int, "default": 10,
             "help": "Basis truncation n_max for the relation checks (default: %(default)s)."}),
    GRID,
    ("--tol", {"type": float, "default": 1e-10,
               "help": "Residual threshold for all relation checks (default: %(default)s)."}),
    OUT,
)
def verify(q, mu, n, grid_points, tol, out):
    """Run the relation checks and emit a JSON report; exit 0 iff all pass."""
    qp = check_options(q, mu, n=n, grid_points=grid_points, tol=tol)
    with numeric_exit():
        report = build_verify_report(qp, max(n, 2), grid_points, tol)
    emit(json.dumps(report, indent=2) + "\n", out)
    if not report["passed"]:
        failing = [c["name"] for c in report["checks"] if not c["passed"]]
        print(f"verification failed: {', '.join(failing)}", file=sys.stderr)
        sys.exit(EXIT_VERIFY_FAILED)


def main():
    cli.main(prog_name="qps")


if __name__ == "__main__":
    main()
