#!/usr/bin/env python3
"""Sweep the deformation parameter and tabulate angle-distribution widths.

Writes one CSV with a column of Omega^(n)(theta) per mu value (the
multi-curve layout used for plotting) and prints a circular-variance
summary demonstrating how mu squeezes the distribution.

Usage:
    python scripts/angle_width_study.py --n 0 --mu 0.1 0.5 1.0 --out omega_n0.csv
"""

import argparse
import math
from pathlib import Path

from qps import QParam, angle_table, circular_variance, phase_grid


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=0, help="state index")
    parser.add_argument("--mu", type=float, nargs="+", default=[0.1, 0.5, 1.0],
                        help="mu values, one output column each")
    parser.add_argument("--grid-points", type=int, default=256)
    parser.add_argument("--out", type=Path, default=None, help="CSV path (default: stdout)")
    args = parser.parse_args()

    grid = phase_grid(args.grid_points)
    tables = [angle_table(args.n, QParam.from_mu(mu), grid) for mu in args.mu]

    lines = ["theta," + ",".join(f"mu={mu:g}" for mu in args.mu)]
    for i, theta in enumerate(grid):
        row = [f"{theta:.17g}"] + [f"{t[i]:.17g}" for t in tables]
        lines.append(",".join(row))
    text = "\n".join(lines) + "\n"
    if args.out:
        args.out.write_text(text)
        print(f"wrote {args.out} ({args.grid_points} rows x {len(args.mu)} columns)")
    else:
        print(text, end="")

    print(f"\ncircular variance of Omega^({args.n}):")
    for mu, table in zip(args.mu, tables):
        cv = circular_variance(table, grid)
        bar = "#" * int(round(60 * cv))
        print(f"  mu={mu:<6g} V={cv:.6f} {bar}")
    if args.n == 0:
        print("  (for n=0 the exact value is 1 - e^(-mu))")
        for mu in args.mu:
            print(f"  mu={mu:<6g} exact {1.0 - math.exp(-mu):.6f}")


if __name__ == "__main__":
    main()
