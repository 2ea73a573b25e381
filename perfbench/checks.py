"""Output checkers that read only an op's stdout.

None of them calls into qps: each recomputes its invariant from the printed
numbers (or, for `poly`, from exact rational arithmetic), so a wrong table
cannot pass by agreeing with the code that produced it.

Thresholds are the ones `qps verify` itself applies to the same invariants:
1e-10 for the angle normalization, 1e-8 for the action marginal.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

NORM_TOL = 1e-10  # grid mean of Omega and theta_3
DELTA_TOL = 1e-8  # Lambda(m) and Wigner-slice grid means against delta_{m,n}
COEFF_RTOL = 1e-12  # poly rows: at most 2n <= 60 rounded factors per entry


class CheckFailed(Exception):
    pass


def _csv_columns(text: str) -> tuple[list[str], list[list[float]]]:
    lines = text.rstrip("\n").split("\n")
    header = lines[0].split(",")
    cols = [[] for _ in header]
    for line in lines[1:]:
        for col, cell in zip(cols, line.split(","), strict=True):
            col.append(float(cell))
    return header, cols


def _grid_mean(values: list[float], k: int, what: str) -> float:
    if len(values) != k:
        raise CheckFailed(f"{what}: {len(values)} grid values, expected {k}")
    return math.fsum(values) / k


def _check_density(values: list[float], k: int, what: str) -> None:
    bad = next((v for v in values if not v >= 0.0), None)
    if bad is not None:
        raise CheckFailed(f"{what}: value {bad!r} is negative or not finite")
    mean = _grid_mean(values, k, what)
    if not abs(mean - 1.0) <= NORM_TOL:
        raise CheckFailed(f"{what}: grid mean {mean!r} differs from 1 by {abs(mean - 1.0):.3g}")


def _check_angle(text: str, spec: dict) -> None:
    if spec["fmt"] == "csv":
        header, cols = _csv_columns(text)
        labelled = list(zip(header[1:], cols[1:]))
    else:
        labelled = [(c["label"], c["values"]) for c in json.loads(text)["columns"]]
    if len(labelled) != spec["columns"]:
        raise CheckFailed(f"{len(labelled)} Omega columns, expected {spec['columns']}")
    for label, values in labelled:
        _check_density(values, spec["k"], f"Omega column {label}")


def _check_theta(text: str, spec: dict) -> None:
    if spec["fmt"] == "csv":
        values = _csv_columns(text)[1][1]
    else:
        values = json.loads(text)["values"]
    _check_density(values, spec["k"], "theta_3")


def gaussian_binomial_row(n: int, q: Fraction) -> list[Fraction]:
    """[n over r]_q for r = 0..n by the exact Pascal-type product."""
    row = [Fraction(1)]
    for r in range(n):
        row.append(row[-1] * (1 - q ** (n - r)) / (1 - q ** (r + 1)))
    return row


def _check_poly(text: str, spec: dict) -> None:
    n = spec["n"]
    if spec["fmt"] == "csv":
        rows = [[float(c) for c in line.split(",")] for line in text.split("\n")[: n + 1]]
    else:
        rows = json.loads(text)["coefficients"]
    if len(rows) != n + 1:
        raise CheckFailed(f"{len(rows)} coefficient rows, expected {n + 1}")
    q = Fraction(float(spec["q"]))
    for k, row in enumerate(rows):
        exact = gaussian_binomial_row(k, q)
        if len(row) != len(exact):
            raise CheckFailed(f"H_{k} row has {len(row)} coefficients, expected {len(exact)}")
        for r, (got, want) in enumerate(zip(row, exact)):
            if not abs(got - float(want)) <= COEFF_RTOL * float(want):
                raise CheckFailed(f"H_{k} coefficient {r}: {got!r} vs exact {float(want)!r}")


def _check_action(text: str, spec: dict) -> None:
    if spec["fmt"] == "csv":
        header, cols = _csv_columns(text)
        ms, values = [int(m) for m in cols[0]], cols[1]
    else:
        payload = json.loads(text)
        ms, values = payload["m"], payload["values"]
    if ms != list(range(spec["m_lo"], spec["m_hi"] + 1)):
        raise CheckFailed(f"m support {ms[:3]}... does not match the requested range")
    for m, lam in zip(ms, values):
        expect = 1.0 if m == spec["n"] else 0.0
        if not abs(lam - expect) <= DELTA_TOL:
            raise CheckFailed(f"Lambda({m}) = {lam!r}, expected {expect:g}")


def _check_wigner(text: str, spec: dict) -> None:
    if spec["fmt"] == "csv":
        values = _csv_columns(text)[1][1]
    else:
        values = json.loads(text)["values"]
    mean = _grid_mean(values, spec["k"], "Wigner slice")
    expect = 1.0 if spec["m"] == spec["n"] else 0.0
    if not abs(mean - expect) <= DELTA_TOL:
        raise CheckFailed(f"Wigner slice m={spec['m']} grid mean {mean!r}, expected {expect:g}")


def _check_verify(text: str, spec: dict) -> None:
    report = json.loads(text)
    if report.get("passed") is not True:
        failing = [c["name"] for c in report.get("checks", []) if not c.get("passed")]
        raise CheckFailed(f"verify reports passed={report.get('passed')!r}: {', '.join(failing)}")


_CHECKERS = {
    "angle": _check_angle,
    "theta": _check_theta,
    "poly": _check_poly,
    "action": _check_action,
    "wigner": _check_wigner,
    "verify": _check_verify,
}


def check_op(spec: dict, exit_code: int | None, stdout: bytes, stderr: bytes) -> str | None:
    """None if the op succeeded, else the reason it failed."""
    if exit_code is None:
        return "timeout"
    if exit_code != 0:
        tail = stderr.decode(errors="replace").strip().splitlines()[-1:] or [""]
        return f"exit {exit_code}: {tail[0][:200]}"
    try:
        _CHECKERS[spec["kind"]](stdout.decode(), spec)
    except CheckFailed as exc:
        return str(exc)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return f"malformed output: {type(exc).__name__}: {exc}"
    return None
