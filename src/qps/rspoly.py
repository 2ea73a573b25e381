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
gives those bounded coefficients a_r, the row behind the Wigner weights.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .qseries import QParam, _qbinomial_row, qbinomial, qfactorial, qnumber


@dataclass(frozen=True)
class Polynomial:
    """Dense polynomial; coeffs[r] multiplies y^r.  Immutable.

    The zero polynomial is the empty tuple; otherwise the trailing
    coefficient is nonzero after construction via :meth:`make`.
    """

    coeffs: tuple[complex, ...]

    @staticmethod
    def make(coeffs) -> "Polynomial":
        """Build from any coefficient sequence, trimming trailing exact zeros."""
        c = list(coeffs)
        while c and c[-1] == 0:
            c.pop()
        return Polynomial(tuple(c))

    @staticmethod
    def zero() -> "Polynomial":
        return Polynomial(())

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial at -1."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def __call__(self, y: complex) -> complex:
        acc = 0j
        for c in reversed(self.coeffs):
            acc = acc * y + c
        return acc

    def __add__(self, other: "Polynomial") -> "Polynomial":
        n = max(len(self.coeffs), len(other.coeffs))
        a = self.coeffs + (0,) * (n - len(self.coeffs))
        b = other.coeffs + (0,) * (n - len(other.coeffs))
        return Polynomial.make(x + y for x, y in zip(a, b))

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + other.scale(-1.0)

    def scale(self, c: complex) -> "Polynomial":
        if c == 0:
            return Polynomial.zero()
        return Polynomial.make(c * x for x in self.coeffs)

    def times_y(self) -> "Polynomial":
        """Multiply by y (shift coefficients up one degree)."""
        if self.is_zero():
            return self
        return Polynomial((0,) + self.coeffs)


def rs_coefficients(n: int, qp: QParam) -> Polynomial:
    """H_n as a coefficient vector: coeffs[r] = [n over r]_q (all real positive)."""
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    return Polynomial(_qbinomial_row(n, qp))


def rs_eval_direct(n: int, y: complex, qp: QParam) -> complex:
    """H_n(y; q) by Horner evaluation of the coefficient sum."""
    return rs_coefficients(n, qp)(y)


def rs_eval_recurrence(n: int, y: complex, qp: QParam) -> complex:
    """H_n(y; q) by iterating the three-term recurrence from H_0, H_1."""
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    if n == 0:
        return 1.0 + 0j
    h_prev = 1.0 + 0j
    h = 1.0 + y
    for k in range(1, n):
        h, h_prev = (1.0 + y) * h - qp.one_minus_qpow(k) * y * h_prev, h
    return h


def jackson_derivative(p: Polynomial, qp: QParam) -> Polynomial:
    """Jackson q-derivative D_q p(y) = (p(y) - p(qy)) / (y (1 - q)).

    On coefficients this is (D_q p)[r] = [r+1]_q p[r+1]; on the Rogers-Szego
    basis it acts as the lowering ladder D_q H_n = [n]_q H_{n-1}.
    """
    if len(p.coeffs) <= 1:
        return Polynomial.zero()
    return Polynomial.make(
        qnumber(r + 1, qp) * p.coeffs[r + 1] for r in range(len(p.coeffs) - 1)
    )


def _rs_row(n: int, qp: QParam) -> list[float]:
    """The folded Rogers-Szego coefficients a_r = (-1)^r [n over r]_q q^{(n-r)/2}."""
    return [(-1.0 if r & 1 else 1.0) * binom * qp.qpow((n - r) / 2.0)
            for r, binom in enumerate(_qbinomial_row(n, qp))]


def rs_function(n: int, phi: float, qp: QParam) -> complex:
    """Normalized Rogers-Szego function R_n(phi; q); R_0 is identically 1.

    Evaluated in the numerically stable regrouping
    sum_r [n over r]_q (-1)^r q^{(n-r)/2} e^{i r phi} / sqrt((q;q)_n),
    which keeps every term bounded for any 0 < q < 1.
    """
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    norm = math.sqrt(qfactorial(n, qp))
    acc = 0j
    for r in range(n + 1):
        sign = -1.0 if r & 1 else 1.0
        acc += sign * qbinomial(n, r, qp) * qp.qpow((n - r) / 2.0) * cmath.exp(1j * r * phi)
    return acc / norm


@dataclass(frozen=True)
class RSFunctionValue:
    """One sampled R_n value: q^{n/2}/sqrt((q;q)_n) * H_n(-q^{-1/2} e^{i phi})."""

    n: int
    phi: float
    value: complex

    @classmethod
    def evaluate(cls, n: int, phi: float, qp: QParam) -> "RSFunctionValue":
        return cls(n, phi, rs_function(n, phi, qp))
