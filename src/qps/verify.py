"""The relation checks behind `qps verify`.

build_verify_report certifies the paper's claims in double precision: the
q-oscillator algebra, the orthogonality of the Rogers-Szego family against
the theta_3 weight by three routes, the dual theta_3 representation, the
action marginal Lambda^(n)(m) = delta_{m,n} and the unit mass of the angle
marginal Omega^(n).  Every residual is scale-aware.
"""

from __future__ import annotations

import math

from .orthogonality import (
    carlitz_closed_form,
    carlitz_double_sum,
    orthogonality_quadrature,
)
from .qalgebra import verify_algebra
from .qseries import QParam, qfactorial
from .theta import theta3_gaussian, theta3_series
from .wigner import (
    _angle_columns,
    _t_cutoff,
    action_distribution,
    phase_grid,
)


def build_verify_report(qp: QParam, n_max: int, tol: float) -> dict:
    """Relation report: algebra residuals, orthogonality triangle, theta_3
    dual representation, and the marginal checks; all scale-aware."""
    n_max = max(2, n_max)
    checks = []

    algebra = verify_algebra(n_max, qp, tol)
    checks.append({
        "name": "algebra_relations",
        "residuals": {k: v for k, v in sorted(algebra.residuals.items())},
        "passed": algebra.passed,
    })

    top = min(n_max, 10)
    # all three routes are symmetric in (m, n) bitwise, so one triangle suffices
    worst_tri = 0.0
    for m in range(top + 1):
        for nn in range(m, top + 1):
            closed = carlitz_closed_form(m, nn, qp)
            dsum = carlitz_double_sum(m, nn, qp)
            quad = orthogonality_quadrature(m, nn, qp)
            scale = max(1.0, abs(closed))
            worst_tri = max(
                worst_tri,
                abs(dsum - closed) / scale,
                abs(quad - closed) / scale,
                abs(dsum - quad) / scale,
            )
    checks.append({
        "name": "orthogonality_triangle",
        "n_top": top,
        "max_scaled_residual": worst_tri,
        "passed": worst_tri < tol,
    })

    # dual representation compared where the Fourier branch keeps relative
    # accuracy (|phi| <= 5 sqrt(mu); see theta module accuracy model)
    span = min(math.pi, 5.0 * math.sqrt(qp.mu))
    worst_theta = 0.0
    for i in range(16):
        phi = -span + (2.0 * span) * i / 16
        a = theta3_series(phi, qp, 1e-15).value
        b = theta3_gaussian(phi, qp, 1e-15).value
        worst_theta = max(worst_theta, abs(a - b) / b)
    checks.append({
        "name": "theta3_dual_representation",
        "phi_span": span,
        "max_relative_difference": worst_theta,
        "passed": worst_theta < max(tol, 1e-12),
    })

    # the Wigner prefactor 1/(q;q)_n amplifies rounding as q -> 1, so the
    # marginal checks certify the largest state index double precision can
    # still resolve at this deformation
    n_check = min(n_max, 4)
    while n_check > 1 and qfactorial(n_check, qp) < 1e-6:
        n_check -= 1
    worst_action = 0.0
    for m in (n_check - 1, n_check, n_check + 1, n_check + 3):
        lam = action_distribution(n_check, m, qp)
        expect = 1.0 if m == n_check else 0.0
        worst_action = max(worst_action, abs(lam - expect))
    checks.append({
        "name": "action_marginal_delta",
        "n": n_check,
        "max_residual": worst_action,
        "passed": worst_action < max(tol, 1e-8),
    })

    # the angle grid is sized from n and theta_3's t-cutoff, which grows
    # like 1/sqrt(mu) as q -> 1; its 8 * top term keeps the float mean of
    # Omega resolved there.  fsum, as sum() over floats is compensated only
    # from Python 3.12
    angle_tol = min(tol, 1e-12)
    k_angle = 2 ** math.ceil(math.log2(8 * top + 2 * _t_cutoff(qp.mu, angle_tol)))
    worst_norm = 0.0
    for values in _angle_columns(sorted({0, 1, n_check}), qp, phase_grid(k_angle), angle_tol):
        worst_norm = max(worst_norm, abs(1.0 / k_angle * math.fsum(values) - 1.0))
    checks.append({
        "name": "angle_normalization",
        "max_residual": worst_norm,
        "passed": worst_norm < max(tol, 1e-10),
    })

    return {
        "q": qp.q,
        "mu": qp.mu,
        "n_max": n_max,
        "tol": tol,
        "checks": checks,
        "classical_commutator_deviation": algebra.classical_commutator_deviation,
        "near_classical": qp.mu < 0.01,
        "passed": all(c["passed"] for c in checks),
    }
