"""Command-line front end emitting deterministic CSV/JSON tables.

Subcommands: poly, theta, angle-dist, action-dist, wigner, verify.
Exit codes: 0 success, 1 verification failure, 2 usage/config error,
3 numerical non-convergence or overflow.
"""

from __future__ import annotations

import json
import math
import sys
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import click

from .errors import ImaginaryResidueError, NonConvergenceError
from .qseries import QParam
from .rspoly import rs_coefficients, rs_function
from .theta import theta3
from .verify import build_verify_report
from .wigner import PhaseGrid, _t_cutoff, action_table, angle_table, wigner_grid

EXIT_VERIFY_FAILED = 1
EXIT_NONCONVERGENT = 3


@dataclass(frozen=True)
class RunConfig:
    """Validated run parameters shared by all subcommands."""

    qp: QParam
    n: int
    grid_points: int = 256
    tol: float = 1e-12
    output_format: str = "csv"
    output_path: str | None = None


def make_config(q, mu, n, grid_points, tol, fmt, out) -> RunConfig:
    if (q is None) == (mu is None):
        raise click.UsageError("provide exactly one of --q or --mu")
    try:
        qp = QParam.from_q(q) if q is not None else QParam.from_mu(mu)
    except ValueError as exc:
        raise click.UsageError(str(exc))
    if n < 0:
        raise click.UsageError(f"--n must be >= 0, got {n}")
    if grid_points < 8:
        raise click.UsageError(f"--grid-points must be >= 8, got {grid_points}")
    if not (tol > 0.0):
        raise click.UsageError(f"--tol must be positive, got {tol}")
    return RunConfig(qp, n, grid_points, tol, fmt, out)


def fnum(x: float) -> str:
    """17 significant digits: round-trip safe and byte-deterministic."""
    return "%.17g" % x


def emit(text: str, cfg: RunConfig) -> None:
    if cfg.output_path:
        Path(cfg.output_path).write_text(text)
    else:
        click.echo(text, nl=False)


@contextmanager
def numeric_exit():
    """Map library errors onto the exit-code contract."""
    try:
        yield
    except (NonConvergenceError, ImaginaryResidueError, OverflowError) as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(EXIT_NONCONVERGENT)
    except ValueError as exc:
        raise click.UsageError(str(exc))


def common_options(f):
    opts = [
        click.option("--q", "q", type=float, default=None,
                     help="Deformation parameter q, 0 < q < 1."),
        click.option("--mu", "mu", type=float, default=None,
                     help="Width parameter mu = -ln(q)/2 > 0 (alias knob for q)."),
        click.option("--n", "n", type=int, default=0, show_default=True,
                     help="State index."),
        click.option("--grid-points", "grid_points", type=int, default=256, show_default=True,
                     help="Uniform angle-grid resolution."),
        click.option("--tol", "tol", type=float, default=1e-12, show_default=True,
                     help="Numerical tolerance for series truncation."),
        click.option("--format", "fmt", type=click.Choice(["csv", "json"]),
                     default="csv", show_default=True, help="Output format."),
        click.option("--out", "out", type=click.Path(dir_okay=False), default=None,
                     help="Output file (default: stdout)."),
    ]
    for opt in reversed(opts):
        f = opt(f)
    return f


@click.group()
@click.version_option(version="0.1.0", prog_name="qps")
def cli():
    """Phase-space tables for the q-deformed oscillator on the circle.

    Examples:

        qps poly --q 0.5 --n 3

        qps angle-dist --n 1 --mu-list 0.1,0.5,1.0 --format csv

        qps action-dist --q 0.5 --n 2 --m-range -2:6

        qps verify --q 0.5 --n 10
    """


def _abs_r_squared_row(k: int, grid: PhaseGrid, qp: QParam) -> list[float]:
    """|R_k(theta)|^2 over the grid; OverflowError naming |R_k|^2 past double range."""
    moduli = [abs(rs_function(k, th, qp)) for th in grid.points]
    try:
        row = [r ** 2 for r in moduli]
        if all(map(math.isfinite, row)):
            return row
    except OverflowError:
        pass
    raise OverflowError(f"|R_k|^2 overflows double precision at k={k}, q={qp.q}")


@cli.command()
@common_options
def poly(q, mu, n, grid_points, tol, fmt, out):
    """Coefficients of H_0..H_n and |R_k(theta)|^2 sampled on the grid."""
    cfg = make_config(q, mu, n, grid_points, tol, fmt, out)
    with numeric_exit():
        grid = PhaseGrid.uniform(cfg.grid_points)
        coeff_rows = [[float(c) for c in rs_coefficients(k, cfg.qp).coeffs]
                      for k in range(cfg.n + 1)]

        r2 = [_abs_r_squared_row(k, grid, cfg.qp) for k in range(cfg.n + 1)]
    if cfg.output_format == "csv":
        lines = [",".join(fnum(c) for c in row) for row in coeff_rows]
        lines.append("")
        lines.append("theta," + ",".join(f"R2_{k}" for k in range(cfg.n + 1)))
        for i, th in enumerate(grid.points):
            lines.append(",".join([fnum(th)] + [fnum(r2[k][i]) for k in range(cfg.n + 1)]))
        emit("\n".join(lines) + "\n", cfg)
    else:
        payload = {
            "command": "poly",
            "q": cfg.qp.q,
            "mu": cfg.qp.mu,
            "n": cfg.n,
            "grid_points": cfg.grid_points,
            "tol": cfg.tol,
            "coefficients": coeff_rows,
            "theta": list(grid.points),
            "abs_r_squared": r2,
        }
        emit(json.dumps(payload, indent=2) + "\n", cfg)


@cli.command(name="theta")
@common_options
def theta_cmd(q, mu, n, grid_points, tol, fmt, out):
    """Jacobi theta_3 weight function sampled on the grid."""
    cfg = make_config(q, mu, n, grid_points, tol, fmt, out)
    with numeric_exit():
        grid = PhaseGrid.uniform(cfg.grid_points)
        evals = [theta3(th, cfg.qp, cfg.tol) for th in grid.points]
    if cfg.output_format == "csv":
        lines = ["theta,theta3"]
        for th, ev in zip(grid.points, evals):
            lines.append(f"{fnum(th)},{fnum(ev.value)}")
        emit("\n".join(lines) + "\n", cfg)
    else:
        payload = {
            "command": "theta",
            "q": cfg.qp.q,
            "mu": cfg.qp.mu,
            "grid_points": cfg.grid_points,
            "tol": cfg.tol,
            "representation": evals[0].representation.value,
            "terms_used": [ev.terms_used for ev in evals],
            "theta": list(grid.points),
            "values": [ev.value for ev in evals],
        }
        emit(json.dumps(payload, indent=2) + "\n", cfg)


@cli.command(name="angle-dist")
@common_options
@click.option("--mu-list", "mu_list", default=None,
              help="Comma-separated mu values; emits one column per value.")
def angle_dist(q, mu, n, grid_points, tol, fmt, out, mu_list):
    """Angle marginal Omega^(n)(theta) = theta_3(theta) |R_n(theta)|^2."""
    if mu_list is not None:
        if q is not None or mu is not None:
            raise click.UsageError("--mu-list replaces --q/--mu; do not combine them")
        tokens = [t.strip() for t in mu_list.split(",") if t.strip()]
        if not tokens:
            raise click.UsageError("--mu-list is empty")
        try:
            params = [(f"mu={t}", QParam.from_mu(float(t))) for t in tokens]
        except ValueError as exc:
            raise click.UsageError(f"bad --mu-list entry: {exc}")
        cfg = make_config(None, params[0][1].mu, n, grid_points, tol, fmt, out)
    else:
        cfg = make_config(q, mu, n, grid_points, tol, fmt, out)
        params = [("omega", cfg.qp)]
    with numeric_exit():
        grid = PhaseGrid.uniform(cfg.grid_points)
        tables = [angle_table(cfg.n, qp, grid, cfg.tol) for _, qp in params]
    if cfg.output_format == "csv":
        lines = ["theta," + ",".join(label for label, _ in params)]
        for i, th in enumerate(grid.points):
            lines.append(",".join([fnum(th)] + [fnum(t.values[i]) for t in tables]))
        emit("\n".join(lines) + "\n", cfg)
    else:
        payload = {
            "command": "angle-dist",
            "n": cfg.n,
            "grid_points": cfg.grid_points,
            "tol": cfg.tol,
            "theta": list(grid.points),
            "columns": [
                {
                    "label": label,
                    "q": qp.q,
                    "mu": qp.mu,
                    "theta3_terms": theta3(0.0, qp, cfg.tol).terms_used,
                    "values": list(table.values),
                }
                for (label, qp), table in zip(params, tables)
            ],
        }
        emit(json.dumps(payload, indent=2) + "\n", cfg)


def _parse_m_range(spec: str) -> tuple[int, int]:
    try:
        lo_str, hi_str = spec.split(":")
        lo, hi = int(lo_str), int(hi_str)
    except ValueError:
        raise click.UsageError(f"--m-range must be LO:HI with integers, got {spec!r}")
    if hi < lo:
        raise click.UsageError(f"--m-range is empty: {spec!r}")
    return lo, hi


@cli.command(name="action-dist")
@common_options
@click.option("--m-range", "m_range", default="-2:10", show_default=True,
              help="Inclusive integer range LO:HI of action values.")
def action_dist(q, mu, n, grid_points, tol, fmt, out, m_range):
    """Action marginal Lambda^(n)(m) = delta_{m,n}; --grid-points and --tol do not change it."""
    cfg = make_config(q, mu, n, grid_points, tol, fmt, out)
    lo, hi = _parse_m_range(m_range)
    with numeric_exit():
        values = list(action_table(cfg.n, lo, hi, cfg.qp).values)
    if cfg.output_format == "csv":
        lines = ["m,lambda"]
        for m, v in zip(range(lo, hi + 1), values):
            lines.append(f"{m},{fnum(v)}")
        emit("\n".join(lines) + "\n", cfg)
    else:
        payload = {
            "command": "action-dist",
            "q": cfg.qp.q,
            "mu": cfg.qp.mu,
            "n": cfg.n,
            "grid_points": cfg.grid_points,
            "tol": cfg.tol,
            "m": list(range(lo, hi + 1)),
            "values": values,
        }
        emit(json.dumps(payload, indent=2) + "\n", cfg)


@cli.command(name="wigner")
@common_options
@click.option("--m", "m", type=int, default=0, show_default=True,
              help="Action index of the slice.")
def wigner_cmd(q, mu, n, grid_points, tol, fmt, out, m):
    """Wigner function O_n(m, theta) over the angle grid at fixed m."""
    cfg = make_config(q, mu, n, grid_points, tol, fmt, out)
    with numeric_exit():
        grid = PhaseGrid.uniform(cfg.grid_points)
        values = wigner_grid(cfg.n, m, cfg.qp, grid, cfg.tol)
    if cfg.output_format == "csv":
        lines = ["theta,wigner"]
        for th, v in zip(grid.points, values):
            lines.append(f"{fnum(th)},{fnum(v)}")
        emit("\n".join(lines) + "\n", cfg)
    else:
        payload = {
            "command": "wigner",
            "q": cfg.qp.q,
            "mu": cfg.qp.mu,
            "n": cfg.n,
            "m": m,
            "grid_points": cfg.grid_points,
            "tol": cfg.tol,
            "t_cutoff": _t_cutoff(cfg.qp.mu, cfg.tol),
            "theta": list(grid.points),
            "values": list(values),
        }
        emit(json.dumps(payload, indent=2) + "\n", cfg)


@cli.command()
@click.option("--q", "q", type=float, default=None, help="Deformation parameter q, 0 < q < 1.")
@click.option("--mu", "mu", type=float, default=None, help="Width parameter mu = -ln(q)/2 > 0.")
@click.option("--n", "n", type=int, default=10, show_default=True,
              help="Basis truncation n_max for the relation checks.")
@click.option("--grid-points", "grid_points", type=int, default=256, show_default=True)
@click.option("--tol", "tol", type=float, default=1e-10, show_default=True,
              help="Residual threshold for all relation checks.")
@click.option("--out", "out", type=click.Path(dir_okay=False), default=None)
def verify(q, mu, n, grid_points, tol, out):
    """Run the relation checks and emit a JSON report; exit 0 iff all pass."""
    cfg = make_config(q, mu, n, grid_points, tol, "json", out)
    with numeric_exit():
        report = build_verify_report(cfg.qp, max(cfg.n, 2), cfg.grid_points, cfg.tol)
    emit(json.dumps(report, indent=2) + "\n", cfg)
    if not report["passed"]:
        failing = [c["name"] for c in report["checks"] if not c["passed"]]
        click.echo(f"verification failed: {', '.join(failing)}", err=True)
        sys.exit(EXIT_VERIFY_FAILED)


def main():
    cli(prog_name="qps")


if __name__ == "__main__":
    main()
