"""Rogers-Szego polynomials and normalized Rogers-Szego functions.

H_n(y; q) = sum_{r=0}^{n} [n over r]_q y^r satisfies the three-term recurrence

    H_{n+1}(y) = (1 + y) H_n(y) - (1 - q^n) y H_{n-1}(y),

starting from H_0 = 1 and H_1 = 1 + y, and the Jackson q-derivative ladder
D_q H_n = [n]_q H_{n-1}.  The normalized functions

    R_n(phi; q) = q^{n/2} / sqrt((q;q)_n) * H_n(-q^{-1/2} e^{i phi}; q)

are orthonormal on the circle against the Jacobi theta_3 weight.

The substitution y = -q^{-1/2} e^{i phi} blows up as q -> 0, so angle-space
evaluation is reliable on the practical domain q in [1e-4, 1 - 1e-4];
rs_function folds the q^{n/2} prefactor into the sum term by term; _rs_row
gives those bounded coefficients a_r, the row behind the Wigner weights;
_abs_squared_rows is the one |R_k(theta)|^2 evaluator, behind `qps poly`
(rs_abs_squared_rows), `qps angle-dist` and the angle check of `qps verify`.

A polynomial is its coefficient tuple, lowest degree first; () is zero.
"""

from __future__ import annotations

import cmath
import math
from collections.abc import Iterator, Sequence

from .qseries import QParam, _qbinomial_row, qbinomial, qfactorial, qnumber


def rs_coefficients(n: int, qp: QParam) -> tuple[float, ...]:
    """H_n as its coefficient row: entry r is [n over r]_q (all real positive)."""
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    return _qbinomial_row(n, qp)


def jackson_derivative(p: tuple, qp: QParam) -> tuple:
    """Jackson q-derivative D_q p(y) = (p(y) - p(qy)) / (y (1 - q)).

    On coefficients this is (D_q p)[r] = [r+1]_q p[r+1], so a constant goes
    to (); on the Rogers-Szego basis it acts as the lowering ladder
    D_q H_n = [n]_q H_{n-1}.
    """
    return tuple(qnumber(r, qp) * p[r] for r in range(1, len(p)))


def _rs_row(n: int, qp: QParam) -> list[float]:
    """The folded Rogers-Szego coefficients a_r = (-1)^r [n over r]_q q^{(n-r)/2}."""
    return [(-1.0 if r & 1 else 1.0) * binom * qp.qpow((n - r) / 2.0)
            for r, binom in enumerate(_qbinomial_row(n, qp))]


def rs_function(n: int, phi: float, qp: QParam) -> complex:
    """Normalized Rogers-Szego function R_n(phi; q); R_0 is identically 1.

    Evaluated in the numerically stable regrouping
    sum_r [n over r]_q (-1)^r q^{(n-r)/2} e^{i r phi} / sqrt((q;q)_n),
    which keeps every term bounded for any 0 < q < 1.  (q;q)_n underflows
    to 0 as q -> 1 at large n; that raises OverflowError.
    """
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    norm = math.sqrt(qfactorial(n, qp))
    if not norm:
        raise OverflowError(
            f"R_n normalization 1/sqrt((q;q)_n) overflows double precision at n={n}, q={qp.q}"
        )
    acc = 0j
    for r in range(n + 1):
        sign = -1.0 if r & 1 else 1.0
        acc += sign * qbinomial(n, r, qp) * qp.qpow((n - r) / 2.0) * cmath.exp(1j * r * phi)
    return acc / norm


def _abs_squared_rows(ns: Sequence[int], thetas: Sequence[float], qp: QParam) -> Iterator[list]:
    """re^2 + im^2 of each r = rs_function(k, theta, qp), one row per k of ns, yielded
    lazily so a reader checks row k before R_{k+1}; the readers name any overflow."""
    for k in ns:
        values = [rs_function(k, th, qp) for th in thetas]
        yield [r.real * r.real + r.imag * r.imag for r in values]


def rs_abs_squared_rows(n: int, thetas: Sequence[float], qp: QParam) -> list[list[float]]:
    """|R_k|^2 rows for k = 0..n; OverflowError names the first k past double range."""
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    rows = []
    for k, row in enumerate(_abs_squared_rows(range(n + 1), thetas, qp)):
        if not all(map(math.isfinite, row)):
            raise OverflowError(f"|R_k|^2 overflows double precision at k={k}, q={qp.q}")
        rows.append(row)
    return rows
