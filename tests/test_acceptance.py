"""Acceptance suite: every release criterion at its pinned tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS/FAIL line
per criterion.  Each criterion is a separate test so a failure pinpoints
the broken guarantee; tolerances are frozen here, not configurable.
"""

import math
import time

import numpy as np
from click.testing import CliRunner

from qps import (
    QParam,
    action_distribution,
    angle_distribution,
    angle_distribution_from_wigner,
    angle_table,
    apply_Adag_poly,
    carlitz_closed_form,
    carlitz_double_sum,
    circular_variance,
    jackson_derivative,
    orthogonality_quadrature,
    phase_grid,
    qnumber,
    rs_coefficients,
    theta3,
    theta3_gaussian,
    theta3_series,
    verify_algebra,
    wigner_grid,
    wigner_one_sided,
)
from qps.cli import cli

Q_TRIO = (0.1, 0.5, 0.9)
GRID_POINTS = 256
GRID = phase_grid(GRID_POINTS)


def report(num: int, ok: bool, detail: str):
    line = f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} {detail}"
    print(line)
    assert ok, line


def test_criterion_01_orthogonality_triangle():
    """Double sum, closed form and the theta_3-weighted sum over the Fourier
    coefficients of H_m and H_n agree pairwise to 1e-10 for 0 <= m, n <= 10
    at q in {0.1, 0.5, 0.9}, within 5 s."""
    start = time.perf_counter()
    worst = 0.0
    for q in Q_TRIO:
        qp = QParam.from_q(q)
        for m in range(11):
            for n in range(11):
                routes = (
                    carlitz_double_sum(m, n, qp),
                    carlitz_closed_form(m, n, qp),
                    orthogonality_quadrature(m, n, qp),
                )
                for i in range(3):
                    for j in range(i + 1, 3):
                        scale = max(1.0, abs(routes[i]), abs(routes[j]))
                        worst = max(worst, abs(routes[i] - routes[j]) / scale)
    elapsed = time.perf_counter() - start
    report(
        1,
        worst < 1e-10 and elapsed < 5.0,
        f"orthogonality triangle: worst pairwise residual {worst:.2e} "
        f"(tol 1e-10), {elapsed:.2f}s (budget 5s)",
    )


def test_criterion_02_action_marginal():
    """The angle integral of the Wigner function reproduces delta_{m,n} to
    1e-8 for n <= 6, m in [-2, 10], q in {0.1, 0.5, 0.9}, within 30 s."""
    start = time.perf_counter()
    worst = 0.0
    for q in Q_TRIO:
        qp = QParam.from_q(q)
        for n in range(7):
            for m in range(-2, 11):
                lam = action_distribution(n, m, qp)
                worst = max(worst, abs(lam - (1.0 if m == n else 0.0)))
    elapsed = time.perf_counter() - start
    report(
        2,
        worst < 1e-8 and elapsed < 30.0,
        f"action marginal: worst |Lambda - delta| {worst:.2e} (tol 1e-8), "
        f"{elapsed:.2f}s (budget 30s)",
    )


def test_criterion_03_angle_marginal_convergence():
    """The windowed m-sum of the Wigner function converges to
    theta_3 |R_n|^2 with residual < 1e-3 at m_cut = 400 and observed order
    ~2 under doubling, for n in {0, 1, 3}, within 60 s."""
    start = time.perf_counter()
    qp = QParam.from_mu(0.5)
    worst_residual = 0.0
    orders = []
    for n in (0, 1, 3):
        for theta in (0.0, 0.7, 2.5):
            exact = angle_distribution(n, theta, qp, 1e-13)
            errs = [
                abs(angle_distribution_from_wigner(n, theta, qp, m_cut, 1e-13) - exact)
                for m_cut in (200, 400, 800)
            ]
            worst_residual = max(worst_residual, errs[1])
            orders.append(math.log2(errs[0] / errs[1]))
            orders.append(math.log2(errs[1] / errs[2]))
    mean_order = sum(orders) / len(orders)
    elapsed = time.perf_counter() - start
    report(
        3,
        worst_residual < 1e-3 and 1.7 < mean_order < 2.3 and elapsed < 60.0,
        f"angle marginal from Wigner: residual@400 {worst_residual:.2e} (tol 1e-3), "
        f"mean order {mean_order:.2f} (expect ~2), {elapsed:.2f}s (budget 60s)",
    )


def test_criterion_04_closed_form_distributions_via_cli():
    """angle-dist output matches theta_3 for n = 0 and the explicit n = 1
    closed form pointwise to 1e-12 on a 256-point grid."""
    runner = CliRunner()
    mu = 0.5
    qp = QParam.from_mu(mu)
    worst = 0.0
    for n in (0, 1):
        res = runner.invoke(cli, ["angle-dist", "--mu", str(mu), "--n", str(n)])
        assert res.exit_code == 0
        lines = res.output.strip().splitlines()[1:]
        assert len(lines) == 256
        for line in lines:
            theta_s, value_s = line.split(",")
            theta, value = float(theta_s), float(value_s)
            if n == 0:
                expected = theta3(theta, qp, 1e-12).value
            else:
                expected = (
                    math.exp(-2 * mu)
                    / (1 - math.exp(-2 * mu))
                    * (1 - 2 * math.exp(mu) * math.cos(theta) + math.exp(2 * mu))
                    * theta3(theta, qp, 1e-15).value
                )
            worst = max(worst, abs(value - expected))
    report(
        4,
        worst < 1e-12,
        f"closed-form n=0/n=1 distributions via CLI: worst deviation {worst:.2e} (tol 1e-12)",
    )


def test_criterion_05_normalization():
    """Weighted grid sums of Omega equal 1 +- 1e-10 for n <= 6 at three q,
    and the action marginal sums to 1 over m."""
    worst_angle = 0.0
    worst_action = 0.0
    for q in Q_TRIO:
        qp = QParam.from_q(q)
        for n in range(7):
            table = angle_table(n, qp, GRID, 1e-12)
            worst_angle = max(worst_angle, abs(float(np.sum(table)) / GRID_POINTS - 1.0))
        total = sum(action_distribution(3, m, qp) for m in range(-2, 11))
        worst_action = max(worst_action, abs(total - 1.0))
    report(
        5,
        worst_angle < 1e-10 and worst_action < 1e-8,
        f"normalization: angle residual {worst_angle:.2e} (tol 1e-10), "
        f"action-sum residual {worst_action:.2e}",
    )


def test_criterion_06_algebra_relations():
    """Defining-relation residuals < 1e-12 on the interior block for
    n_max = 15 at q in {0.1, 0.5, 0.9}; at q = 1 - 1e-8 the commutator
    block approaches the identity within 1e-6."""
    worst = 0.0
    for q in Q_TRIO:
        rep = verify_algebra(15, QParam.from_q(q), 1e-12)
        worst = max(worst, max(rep.residuals.values()))
    classical = verify_algebra(15, QParam.from_q(1 - 1e-8), 1e-6)
    report(
        6,
        worst < 1e-12 and classical.classical_commutator_deviation < 1e-6,
        f"algebra: worst relation residual {worst:.2e} (tol 1e-12), "
        f"classical-limit deviation {classical.classical_commutator_deviation:.2e} (tol 1e-6)",
    )


def test_criterion_07_theta3_dual_representation():
    """Fourier-series and Gaussian-sum branches agree to 1e-12 relative on a
    100-point grid spanning mu in [0.01, 5].

    The phi span at each mu is min(pi, 5 sqrt(mu)): within it the Fourier
    branch retains relative accuracy; outside it theta_3 decays below the
    alternating sum's eps * theta_3(0) rounding floor, where no double
    precision evaluation of the series can be relatively accurate.
    """
    worst = 0.0
    points = 0
    for mu in np.logspace(math.log10(0.01), math.log10(5.0), 10):
        qp = QParam.from_mu(float(mu))
        span = min(math.pi, 5.0 * math.sqrt(mu))
        for x in np.linspace(-1.0, 1.0, 10, endpoint=False):
            phi = float(x * span)
            a = theta3_series(phi, qp, 1e-15).value
            b = theta3_gaussian(phi, qp, 1e-15).value
            worst = max(worst, abs(a - b) / b)
            points += 1
    report(
        7,
        points == 100 and worst < 1e-12,
        f"theta_3 dual representation: worst relative difference {worst:.2e} "
        f"(tol 1e-12) over {points} points",
    )


def test_criterion_08_ladder_exactness():
    """Raising gives H_{n+1} and the Jackson derivative gives [n] H_{n-1}
    coefficient-wise to 1e-13 for n <= 20."""
    worst = 0.0
    for q in Q_TRIO:
        qp = QParam.from_q(q)
        for n in range(21):
            raised = apply_Adag_poly(rs_coefficients(n, qp), qp)
            target = rs_coefficients(n + 1, qp)
            for a, b in zip(raised, target):
                worst = max(worst, abs(a - b) / max(1.0, abs(b)))
            if n >= 1:
                lowered = jackson_derivative(rs_coefficients(n, qp), qp)
                target = [qnumber(n, qp) * c for c in rs_coefficients(n - 1, qp)]
                for a, b in zip(lowered, target):
                    worst = max(worst, abs(a - b) / max(1.0, abs(b)))
    report(
        8,
        worst < 1e-13,
        f"ladder exactness: worst scaled coefficient deviation {worst:.2e} (tol 1e-13)",
    )


def test_criterion_09_width_governed_by_mu():
    """The circular variance of Omega^(0) decreases monotonically as mu
    decreases through {1.0, 0.5, 0.1} (the deformation parameter controls
    the angle-distribution width)."""
    variances = []
    for mu in (1.0, 0.5, 0.1):
        table = angle_table(0, QParam.from_mu(mu), GRID, 1e-12)
        variances.append(circular_variance(table, GRID))
    ok = variances[0] > variances[1] > variances[2]
    report(
        9,
        ok,
        "width behavior: circular variance "
        + " > ".join(f"{v:.6f}" for v in variances)
        + " across mu = 1.0, 0.5, 0.1",
    )


def test_criterion_10_shift_choice_equivalence():
    """Both theta_3 shift placements produce the same Wigner values to
    1e-12 across a sampled (n, m, theta) set."""
    worst = 0.0
    for q in Q_TRIO:
        qp = QParam.from_q(q)
        for n in range(4):
            for m in (-1, 0, n, n + 2):
                for theta in (0.0, 0.7, 2.2, -1.3):
                    minus = wigner_one_sided(n, m, theta, qp, 1e-13, -1).real
                    plus = wigner_one_sided(n, m, theta, qp, 1e-13, +1).real
                    default = wigner_grid(n, m, qp, (theta,), 1e-13)[0]
                    worst = max(worst, abs(minus - plus), abs(minus - default))
    report(
        10,
        worst < 1e-12,
        f"shift-choice equivalence: worst |difference| {worst:.2e} (tol 1e-12)",
    )
