"""Jacobi theta_3 measure function on the circle, in two dual representations.

The weight function for the Rogers-Szego family is

    theta_3(phi; q) = sum_m q^{m^2/2} e^{i m phi}
                    = 1 + 2 sum_{m>=1} e^{-mu m^2} cos(m phi),      (Fourier)

with q = exp(-2*mu).  Poisson summation turns it into a periodic sum of
Gaussians,

    theta_3(phi; q) = sqrt(pi/mu) sum_n exp(-(phi - 2 pi n)^2 / (4 mu)),

whose tail decays like exp(-pi^2 n^2 / mu).  The Fourier tail decays like
exp(-mu m^2), so each branch is fast where the other is slow; the dispatcher
switches at mu = pi/2, which balances the two decay rates and keeps either
branch under ~10 terms at tol = 1e-15.

Accuracy model: the Gaussian sum has positive terms and full relative
accuracy for any mu; the Fourier branch is an alternating sum of O(1) terms
and carries an absolute error floor of a few eps * theta_3(0; mu), which
overwhelms relative accuracy when mu is small and theta_3(phi) is many
orders below theta_3(0).  The dispatcher always routes to the accurate
branch.
"""

from __future__ import annotations

import enum
import math
from collections import namedtuple

from .errors import NonConvergenceError
from .qseries import QParam

#: representation switch point for the dispatcher
MU_SWITCH = math.pi / 2.0

#: per-branch term cap; reaching it raises instead of truncating silently
THETA_MAX_TERMS = 5_000


class ThetaRepresentation(enum.Enum):
    FOURIER_SERIES = "fourier_series"
    GAUSSIAN_SUM = "gaussian_sum"


class ThetaEval(namedtuple("ThetaEval", "value representation terms_used")):
    """One theta_3 evaluation: value, branch used, and term count."""

    __slots__ = ()


def _reduce_angle(phi: float) -> float:
    """Reduce to the principal interval [-pi, pi] (theta_3 is 2*pi periodic)."""
    return math.remainder(phi, 2.0 * math.pi)


def theta3_series(phi: float, qp: QParam, tol: float) -> ThetaEval:
    """Fourier-series branch: 1 + 2 sum_{m=1}^{T} e^{-mu m^2} cos(m phi).

    T is the smallest index with e^{-mu T^2} < tol * (1 - e^{-mu}), which
    bounds the dropped tail by tol.
    """
    if not 0.0 < tol < math.inf:
        raise ValueError(f"tol must be positive and finite, got {tol}")
    mu = qp.mu
    target = tol * (-math.expm1(-mu))
    # a lower bound on T, walked up to the smallest index that meets the target
    t_max = 1 if target >= 1.0 else max(1, math.ceil(math.sqrt(-math.log(target) / mu)) - 2)
    while t_max <= THETA_MAX_TERMS and math.exp(-mu * t_max * t_max) >= target:
        t_max += 1
    if t_max > THETA_MAX_TERMS:
        raise NonConvergenceError(
            "theta3_series", THETA_MAX_TERMS,
            f"mu={mu:.3e} too small for the Fourier branch; use theta3_gaussian",
        )
    phi_r = _reduce_angle(phi)
    acc = 1.0
    for m in range(1, t_max + 1):
        acc += 2.0 * math.exp(-mu * m * m) * math.cos(m * phi_r)
    return ThetaEval(acc, ThetaRepresentation.FOURIER_SERIES, t_max + 1)


def theta3_gaussian(phi: float, qp: QParam, tol: float) -> ThetaEval:
    """Gaussian-sum branch: sqrt(pi/mu) sum_{n=-N}^{N} exp(-(phi - 2 pi n)^2/(4 mu)).

    The angle is reduced to [-pi, pi] first (the sum is periodic), after
    which successive +-n pairs decay at least like exp(-2 pi^2 (2n-1)/mu);
    summation stops once a pair contributes below tol/2.
    """
    if not 0.0 < tol < math.inf:
        raise ValueError(f"tol must be positive and finite, got {tol}")
    mu = qp.mu
    phi_r = _reduce_angle(phi)
    pref = math.sqrt(math.pi / mu)
    two_pi = 2.0 * math.pi
    acc = math.exp(-phi_r * phi_r / (4.0 * mu))
    n = 0
    while True:
        n += 1
        if n > THETA_MAX_TERMS:
            raise NonConvergenceError(
                "theta3_gaussian", THETA_MAX_TERMS,
                f"mu={mu:.3e} too large for the Gaussian branch; use theta3_series",
            )
        pair = math.exp(-((phi_r - two_pi * n) ** 2) / (4.0 * mu)) + math.exp(
            -((phi_r + two_pi * n) ** 2) / (4.0 * mu)
        )
        acc += pair
        # 0.5 * tol would round to 0 at the smallest subnormal tol
        if 2.0 * (pref * pair) < tol and n >= 2:
            break
    return ThetaEval(pref * acc, ThetaRepresentation.GAUSSIAN_SUM, 2 * n + 1)


def theta3(phi: float, qp: QParam, tol: float = 1e-15) -> ThetaEval:
    """theta_3(phi; q) with automatic branch selection.

    Picks the Gaussian sum for mu < pi/2 and the Fourier series otherwise;
    the two branches agree to within 2*tol where both converge.
    """
    if qp.mu < MU_SWITCH:
        return theta3_gaussian(phi, qp, tol)
    return theta3_series(phi, qp, tol)
