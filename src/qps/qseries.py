"""Scalar q-series primitives.

Conventions, for a deformation parameter 0 < q < 1 and mu = -ln(q)/2:

    (x; q)_n        = prod_{s=0}^{n-1} (1 - q^s x),   (x; q)_0 = 1
    [n over j]_q    = (q;q)_n / ((q;q)_j (q;q)_{n-j})   (Gaussian binomial)
    [n]_q           = (1 - q^n) / (1 - q)               (q-number)
    (q; q)_n        = prod_{s=1}^{n} (1 - q^s)          (q-factorial)

All operations are pure, stateless and double precision.  Quantities of the
form 1 - q^k are computed as -expm1(-2*mu*k) so they stay accurate at both
ends of the q range.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from .errors import NonConvergenceError

#: term cap for the infinite q-Pochhammer product
QPOCHHAMMER_INF_MAX_TERMS = 10_000


@dataclass(frozen=True)
class QParam:
    """Deformation parameter pair (q, mu) with q = exp(-2*mu).

    The open interval 0 < q < 1 is enforced strictly; endpoints are rejected.
    Build instances with :meth:`from_q` or :meth:`from_mu` rather than the
    raw constructor so the pair is derived consistently.
    """

    q: float
    mu: float

    def __post_init__(self):
        if not (0.0 < self.q < 1.0):
            raise ValueError(f"q must satisfy 0 < q < 1 strictly, got {self.q}")
        if not (self.mu > 0.0) or not math.isfinite(self.mu):
            raise ValueError(f"mu must be positive and finite, got {self.mu}")
        # exp(-2*mu) moves by ~2*mu ulps of q per ulp of mu, so exact 1-ulp
        # agreement is unattainable for large mu; allow the conditioning bound.
        allowance = (4.0 + 8.0 * self.mu) * math.ulp(self.q)
        if abs(self.q - math.exp(-2.0 * self.mu)) > allowance:
            raise ValueError(
                f"inconsistent pair: q={self.q!r} vs exp(-2*mu)={math.exp(-2.0 * self.mu)!r}"
            )

    @classmethod
    def from_q(cls, q: float) -> "QParam":
        q = float(q)
        if not (0.0 < q < 1.0):
            raise ValueError(f"q must satisfy 0 < q < 1 strictly, got {q}")
        # log1p is the accurate branch near q = 1, plain log near q = 0
        mu = -math.log1p(q - 1.0) / 2.0 if q > 0.5 else -math.log(q) / 2.0
        return cls(q, mu)

    @classmethod
    def from_mu(cls, mu: float) -> "QParam":
        mu = float(mu)
        if not (mu > 0.0) or not math.isfinite(mu):
            raise ValueError(f"mu must be positive and finite, got {mu}")
        q = math.exp(-2.0 * mu)
        if q <= 0.0:
            raise ValueError(f"mu={mu} underflows q = exp(-2*mu) to zero")
        return cls(q, mu)

    def qpow(self, e: float) -> float:
        """q**e via exp(-2*mu*e); exact for e = 0 and accurate for any real e."""
        return math.exp(-2.0 * self.mu * e) if e != 0 else 1.0

    def one_minus_qpow(self, k: float) -> float:
        """1 - q**k without cancellation as q -> 1."""
        return -math.expm1(-2.0 * self.mu * k)


def qpochhammer(x: complex, qp: QParam, n: int) -> complex:
    """Finite q-Pochhammer symbol (x; q)_n = prod_{s=0}^{n-1} (1 - q^s x)."""
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    acc = 1.0
    xq = x
    for _ in range(n):
        acc = acc * (1.0 - xq)
        xq = xq * qp.q
    return acc


def qpochhammer_inf(x: complex, qp: QParam, tol: float) -> complex:
    """Infinite q-Pochhammer symbol (x; q)_inf, truncated once |q^s x| < tol.

    The skipped tail factors each differ from 1 by less than tol, so the
    relative truncation error is bounded by tol/(1-q).  Raises
    NonConvergenceError if the cap of QPOCHHAMMER_INF_MAX_TERMS factors is
    reached first (q extremely close to 1).
    """
    if not (tol > 0.0):
        raise ValueError(f"tol must be positive, got {tol}")
    acc = 1.0
    xq = x
    s = 0
    while abs(xq) >= tol:
        if s >= QPOCHHAMMER_INF_MAX_TERMS:
            raise NonConvergenceError(
                "qpochhammer_inf", QPOCHHAMMER_INF_MAX_TERMS,
                f"|q^s x| = {abs(xq):.3e} still above tol={tol:.3e} at s={s}",
            )
        acc = acc * (1.0 - xq)
        xq = xq * qp.q
        s += 1
    return acc


def qbinomial(n: int, j: int, qp: QParam) -> float:
    """Gaussian binomial [n over j]_q.

    Computed as the telescoped ratio prod_{s=1}^{j} (1-q^{n-j+s})/(1-q^s),
    whose factor ratios stay finite as q -> 1; the boundary cases j = 0 and
    j = n come out exactly 1.
    """
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    if j < 0 or j > n:
        raise ValueError(f"j must satisfy 0 <= j <= n, got j={j}, n={n}")
    acc = 1.0
    for s in range(1, j + 1):
        acc *= qp.one_minus_qpow(n - j + s) / qp.one_minus_qpow(s)
    return acc


@lru_cache(maxsize=512)
def _qbinomial_row(n: int, qp: QParam) -> tuple[float, ...]:
    """The Gaussian-binomial row [n over 0]_q .. [n over n]_q, cached per (n, q)."""
    return tuple(qbinomial(n, r, qp) for r in range(n + 1))


def qnumber(n: int, qp: QParam) -> float:
    """q-number [n]_q = (1 - q^n)/(1 - q); equals qbinomial(n, 1) by construction."""
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    if n == 0:
        return 0.0
    return qbinomial(n, 1, qp)


def qfactorial(n: int, qp: QParam) -> float:
    """q-factorial (q; q)_n = prod_{s=1}^{n} (1 - q^s); empty product is 1."""
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    acc = 1.0
    for s in range(1, n + 1):
        acc *= qp.one_minus_qpow(s)
    return acc


def finite_cauchy_coeffs(n: int, qp: QParam) -> list[float]:
    """Coefficients c_j of the finite Cauchy expansion of (x; q)_n.

    (x; q)_n = sum_{j=0}^{n} (-1)^j [n over j]_q q^{j(j-1)/2} x^j, so
    evaluating the returned polynomial at any x reproduces qpochhammer(x, qp, n).
    """
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    return [(-1.0 if j & 1 else 1.0) * binom * qp.qpow(j * (j - 1) / 2.0)
            for j, binom in enumerate(_qbinomial_row(n, qp))]
