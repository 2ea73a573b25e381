"""Scalar q-series primitives.

Conventions, for a deformation parameter 0 < q < 1 and mu = -ln(q)/2:

    [n over j]_q    = (q;q)_n / ((q;q)_j (q;q)_{n-j})   (Gaussian binomial)
    [n]_q           = (1 - q^n) / (1 - q)               (q-number)
    (q; q)_n        = prod_{s=1}^{n} (1 - q^s)          (q-factorial)

All operations are pure, stateless and double precision.  Quantities of the
form 1 - q^k are computed as -expm1(-2*mu*k) so they stay accurate at both
ends of the q range.
"""

from __future__ import annotations

import math
from functools import lru_cache


class QParam:
    """Deformation parameter pair (q, mu) with q = exp(-2*mu).

    The open interval 0 < q < 1 is enforced strictly; endpoints are rejected.
    Build instances with :meth:`from_q` or :meth:`from_mu` rather than the
    raw constructor so the pair is derived consistently.  Immutable, and equal
    and hashed by value, so a QParam can key a cache.
    """

    __slots__ = ("q", "mu")

    def __init__(self, q: float, mu: float):
        if not (0.0 < q < 1.0):
            raise ValueError(f"q must satisfy 0 < q < 1 strictly, got {q}")
        if not (mu > 0.0) or not math.isfinite(mu):
            raise ValueError(f"mu must be positive and finite, got {mu}")
        # exp(-2*mu) moves by ~2*mu ulps of q per ulp of mu, so exact 1-ulp
        # agreement is unattainable for large mu; allow the conditioning bound.
        allowance = (4.0 + 8.0 * mu) * math.ulp(q)
        if abs(q - math.exp(-2.0 * mu)) > allowance:
            raise ValueError(
                f"inconsistent pair: q={q!r} vs exp(-2*mu)={math.exp(-2.0 * mu)!r}"
            )
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "mu", mu)

    def __setattr__(self, name, value):
        raise AttributeError(f"QParam is immutable: cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"QParam is immutable: cannot delete {name!r}")

    def __eq__(self, other):
        if other.__class__ is not QParam:
            return NotImplemented
        return (self.q, self.mu) == (other.q, other.mu)

    def __hash__(self):
        return hash((self.q, self.mu))

    def __repr__(self):
        return f"QParam(q={self.q!r}, mu={self.mu!r})"

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
        """q**e via exp(-2*mu*e); exact for e = 0.

        exp amplifies the rounding of mu by |e ln q|, so the error grows like
        |e ln q| ulp: against 50-digit mpmath it is 308 ulp at q = 0.5,
        e = 1000 and 59 ulp at q = 1e-4, e = 10.  ROADMAP item 8 replaces
        it with exact integer and half-integer powers.
        """
        return math.exp(-2.0 * self.mu * e) if e != 0 else 1.0

    def one_minus_qpow(self, k: float) -> float:
        """1 - q**k without cancellation as q -> 1."""
        return -math.expm1(-2.0 * self.mu * k)


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
    """The Gaussian-binomial row [n over 0]_q .. [n over n]_q, cached per (n, q).

    Each entry is qbinomial's product, in qbinomial's order, read from one
    table of 1 - q^k, so the row is bitwise equal to qbinomial's values.
    """
    one_minus = [1.0] + [qp.one_minus_qpow(k) for k in range(1, n + 1)]
    row = []
    for j in range(n + 1):
        acc = 1.0
        for s in range(1, j + 1):
            acc *= one_minus[n - j + s] / one_minus[s]
        row.append(acc)
    return tuple(row)


def qnumber(n: int, qp: QParam) -> float:
    """q-number [n]_q = (1 - q^n)/(1 - q); [0]_q = 0."""
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    return qp.one_minus_qpow(n) / qp.one_minus_qpow(1)


def qfactorial(n: int, qp: QParam) -> float:
    """q-factorial (q; q)_n = prod_{s=1}^{n} (1 - q^s); empty product is 1."""
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    acc = 1.0
    for s in range(1, n + 1):
        acc *= qp.one_minus_qpow(s)
    return acc
