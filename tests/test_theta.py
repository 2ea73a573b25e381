"""Jacobi theta_3 weight: dual representations, dispatcher, measure properties."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qps import (
    MU_SWITCH,
    NonConvergenceError,
    QParam,
    ThetaRepresentation,
    theta3,
    theta3_gaussian,
    theta3_series,
)


def brute_force_series(phi: float, mu: float, terms: int = 400) -> float:
    return 1.0 + 2.0 * sum(math.exp(-mu * m * m) * math.cos(m * phi) for m in range(1, terms))


def conditioned_grid(n_mu: int = 10, n_phi: int = 10):
    """(phi, mu) samples where the Fourier branch keeps relative accuracy.

    The Fourier branch is an alternating sum of O(1) terms with an absolute
    rounding floor of a few eps * theta_3(0; mu); restricting to
    |phi| <= 5 sqrt(mu) keeps theta_3 within ~e^{-6.25} of its peak so the
    floor stays below 1e-12 relative.
    """
    mus = np.logspace(math.log10(0.01), math.log10(5.0), n_mu)
    for mu in mus:
        span = min(math.pi, 5.0 * math.sqrt(mu))
        for x in np.linspace(-1.0, 1.0, n_phi, endpoint=False):
            yield float(x * span), float(mu)


class TestSeriesBranch:
    def test_large_mu_single_term(self):
        ev = theta3_series(0.73, QParam.from_mu(300.0), 1e-15)
        assert ev.value == pytest.approx(1.0, abs=1e-15)
        assert ev.representation is ThetaRepresentation.FOURIER_SERIES

    def test_strong_deformation_two_term_structure(self):
        qp = QParam.from_q(1e-3)
        ev = theta3_series(0.0, qp, 1e-15)
        # 1 + 2 q^{1/2} dominates; next correction is 2 q^2
        assert abs(ev.value - (1.0 + 2.0 * math.sqrt(qp.q))) < 3.0 * qp.q**2

    def test_matches_long_sum_oracle(self):
        qp = QParam.from_q(0.5)
        ev = theta3_series(0.0, qp, 1e-15)
        assert ev.value == pytest.approx(brute_force_series(0.0, qp.mu), rel=1e-14)

    def test_cap_raises_for_tiny_mu(self):
        with pytest.raises(NonConvergenceError):
            theta3_series(0.3, QParam.from_mu(1e-7), 1e-15)

    def test_reports_term_count(self):
        qp = QParam.from_q(0.5)
        ev = theta3_series(0.4, qp, 1e-15)
        assert ev.terms_used >= 2
        # dropped tail must respect the bound that sized the truncation
        mu = qp.mu
        t_max = ev.terms_used - 1
        assert math.exp(-mu * t_max * t_max) < 1e-15 * (1 - math.exp(-mu))


class TestGaussianBranch:
    def test_single_gaussian_dominance(self):
        ev = theta3_gaussian(0.0, QParam.from_mu(0.01), 1e-15)
        assert ev.value == pytest.approx(math.sqrt(100.0 * math.pi), rel=1e-12)
        assert ev.representation is ThetaRepresentation.GAUSSIAN_SUM

    def test_two_symmetric_neighbors_at_pi(self):
        mu = 0.01
        ev = theta3_gaussian(math.pi, QParam.from_mu(mu), 1e-15)
        expected = 2.0 * math.sqrt(math.pi / mu) * math.exp(-math.pi**2 / (4 * mu))
        assert ev.value == pytest.approx(expected, rel=1e-10)

    def test_angle_reduction(self):
        qp = QParam.from_mu(0.3)
        a = theta3_gaussian(0.4, qp, 1e-15).value
        b = theta3_gaussian(0.4 + 6 * math.pi, qp, 1e-15).value
        assert a == pytest.approx(b, rel=1e-14)


class TestDualRepresentation:
    def test_agreement_on_conditioned_grid(self):
        count = 0
        for phi, mu in conditioned_grid():
            qp = QParam.from_mu(mu)
            a = theta3_series(phi, qp, 1e-15).value
            b = theta3_gaussian(phi, qp, 1e-15).value
            assert abs(a - b) < 1e-12 * b, (phi, mu, a, b)
            count += 1
        assert count == 100

    def test_branch_values_across_switch(self):
        for delta in (1e-9, 1e-6, 1e-3):
            for mu in (MU_SWITCH - delta, MU_SWITCH + delta):
                qp = QParam.from_mu(mu)
                a = theta3_series(0.7, qp, 1e-15).value
                b = theta3_gaussian(0.7, qp, 1e-15).value
                assert abs(a - b) < 1e-12 * a


class TestDispatcher:
    def test_selects_gaussian_below_switch(self):
        ev = theta3(0.5, QParam.from_mu(0.05))
        assert ev.representation is ThetaRepresentation.GAUSSIAN_SUM

    def test_selects_series_above_switch(self):
        ev = theta3(0.5, QParam.from_mu(2.0))
        assert ev.representation is ThetaRepresentation.FOURIER_SERIES

    @given(phi=st.floats(-math.pi, math.pi), mu=st.floats(0.1, 5.0))
    @settings(max_examples=80)
    def test_periodicity(self, phi, mu):
        # mu >= 0.1 keeps |d ln theta_3 / d phi| * ulp(phi + 2 pi) below the
        # tolerance; at smaller mu the rounding of the shifted input alone
        # moves the deep tail by more than 1e-13 relative
        qp = QParam.from_mu(mu)
        a = theta3(phi, qp).value
        b = theta3(phi + 2 * math.pi, qp).value
        assert abs(a - b) <= 1e-13 * a

    @given(phi=st.floats(-40.0, 40.0), mu=st.floats(0.01, 5.0))
    @settings(max_examples=40)
    def test_far_angle_reduction_finite(self, phi, mu):
        value = theta3(phi, QParam.from_mu(mu)).value
        assert value >= 0.0 and math.isfinite(value)

    @given(phi=st.floats(-math.pi, math.pi), mu=st.floats(0.01, 5.0))
    @settings(max_examples=80)
    def test_evenness_and_positivity(self, phi, mu):
        qp = QParam.from_mu(mu)
        a = theta3(phi, qp).value
        b = theta3(-phi, qp).value
        assert a > 0.0
        assert abs(a - b) <= 1e-13 * a

    @pytest.mark.parametrize("mu", [0.02, 0.1, 0.5, 1.0, 3.0])
    def test_normalization_over_circle(self, mu):
        # only the constant Fourier mode survives d(theta)/(2 pi) integration
        qp = QParam.from_mu(mu)
        k_points = 256
        thetas = -math.pi + 2 * math.pi * np.arange(k_points) / k_points
        total = sum(theta3(float(t), qp).value for t in thetas) / k_points
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_small_mu_peak_scaling(self):
        # sqrt(mu) * theta_3(0; mu) -> sqrt(pi); the correction 2 e^{-pi^2/mu}
        # is visible down to mu ~ 0.5 and below double precision afterwards
        root_pi = math.sqrt(math.pi)
        visible = [
            math.sqrt(mu) * theta3(0.0, QParam.from_mu(mu)).value for mu in (2.0, 1.0, 0.5)
        ]
        assert visible[0] > visible[1] > visible[2] > root_pi
        for mu in (0.1, 0.01, 0.001):
            value = math.sqrt(mu) * theta3(0.0, QParam.from_mu(mu)).value
            assert abs(value - root_pi) <= 4 * math.ulp(root_pi)

    def test_rejects_bad_tol(self):
        with pytest.raises(ValueError):
            theta3(0.1, QParam.from_q(0.5), tol=-1.0)
