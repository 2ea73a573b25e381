"""q-series primitives against hand oracles and structural identities."""

import math
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qps import (
    NonConvergenceError,
    QParam,
    finite_cauchy_coeffs,
    qbinomial,
    qfactorial,
    qnumber,
    qpochhammer,
    qpochhammer_inf,
)
from qps.qseries import _qbinomial_row

Q_TRIO = (0.1, 0.5, 0.9)


class TestQParam:
    def test_from_q_stores_consistent_pair(self):
        qp = QParam.from_q(0.5)
        assert qp.q == 0.5
        assert qp.mu == pytest.approx(math.log(2.0) / 2.0, rel=1e-15)

    def test_from_mu_roundtrip(self):
        qp = QParam.from_mu(0.5)
        assert qp.q == pytest.approx(math.exp(-1.0), rel=1e-15)
        assert qp.mu == 0.5

    @pytest.mark.parametrize("bad_q", [0.0, 1.0, -0.3, 1.5, float("nan")])
    def test_rejects_q_outside_open_interval(self, bad_q):
        with pytest.raises(ValueError):
            QParam.from_q(bad_q)

    @pytest.mark.parametrize("bad_mu", [0.0, -1.0, float("inf"), float("nan")])
    def test_rejects_bad_mu(self, bad_mu):
        with pytest.raises(ValueError):
            QParam.from_mu(bad_mu)

    def test_rejects_inconsistent_pair(self):
        with pytest.raises(ValueError):
            QParam(0.5, 0.4)

    @pytest.mark.parametrize("q", [1e-4, 0.1, 0.3, 0.5, 0.9, 1 - 1e-8])
    def test_pair_consistency_tight(self, q):
        qp = QParam.from_q(q)
        # conditioning bound: exp(-2 mu) moves ~2 mu ulps of q per ulp of mu
        assert abs(qp.q - math.exp(-2.0 * qp.mu)) <= (4 + 8 * qp.mu) * math.ulp(qp.q)

    def test_one_minus_qpow_near_one(self):
        qp = QParam.from_q(1 - 1e-8)
        # 1 - q^3 = 3e-8 - 3e-16 + ... ; plain 1 - q**3 would lose digits
        assert qp.one_minus_qpow(3) == pytest.approx(3e-8 - 3e-16, rel=1e-12)


class TestQPochhammer:
    def test_empty_product_is_one(self):
        qp = QParam.from_q(0.5)
        assert qpochhammer(3.7 + 2.2j, qp, 0) == 1.0

    def test_vanishes_at_x_one(self):
        assert qpochhammer(1.0, QParam.from_q(0.5), 3) == 0.0

    def test_two_factor_hand_oracle(self):
        # (1 - 0.5)(1 - 0.25) = 0.375
        assert qpochhammer(0.5, QParam.from_q(0.5), 2) == pytest.approx(0.375, rel=1e-15)

    def test_rejects_negative_n(self):
        with pytest.raises(ValueError):
            qpochhammer(0.5, QParam.from_q(0.5), -1)

    @given(
        x_re=st.floats(-2, 2),
        x_im=st.floats(-2, 2),
        q=st.floats(0.05, 0.95),
        n=st.integers(0, 20),
    )
    @settings(max_examples=60)
    def test_recurrence_exact_as_computed(self, x_re, x_im, q, n):
        qp = QParam.from_q(q)
        x = complex(x_re, x_im)
        # form the last factor the same way the running product does, so the
        # recurrence holds bitwise
        xq = x
        for _ in range(n):
            xq = xq * qp.q
        assert qpochhammer(x, qp, n + 1) == qpochhammer(x, qp, n) * (1.0 - xq)


class TestQPochhammerInf:
    def test_x_zero(self):
        assert qpochhammer_inf(0.0, QParam.from_q(0.5), 1e-15) == 1.0

    def test_x_one(self):
        assert qpochhammer_inf(1.0, QParam.from_q(0.5), 1e-15) == 0.0

    def test_matches_long_product(self):
        qp = QParam.from_q(0.5)
        brute = 1.0
        for s in range(100):
            brute *= 1.0 - qp.q**s * 0.5
        assert qpochhammer_inf(0.5, qp, 1e-12) == pytest.approx(brute, rel=1e-12)

    def test_cap_raises(self):
        # q so close to 1 that |q^s x| barely decays over 10^4 factors
        qp = QParam.from_q(1 - 1e-9)
        with pytest.raises(NonConvergenceError):
            qpochhammer_inf(0.9, qp, 1e-12)

    def test_rejects_bad_tol(self):
        with pytest.raises(ValueError):
            qpochhammer_inf(0.5, QParam.from_q(0.5), 0.0)


class TestQBinomial:
    def test_boundaries_exact(self):
        qp = QParam.from_q(0.3)
        assert qbinomial(5, 0, qp) == 1.0
        assert qbinomial(5, 5, qp) == 1.0

    def test_hand_oracle(self):
        # (1-q^3)(1-q^4) / ((1-q)(1-q^2)) at q = 0.5
        assert qbinomial(4, 2, QParam.from_q(0.5)) == pytest.approx(2.1875, rel=1e-15)

    def test_classical_limit_value(self):
        qp = QParam.from_q(1 - 1e-8)
        assert qbinomial(6, 2, qp) == pytest.approx(15.0, abs=1e-5)

    @pytest.mark.parametrize("q", Q_TRIO)
    def test_symmetry(self, q):
        qp = QParam.from_q(q)
        for n in range(31):
            for j in range(n + 1):
                a, b = qbinomial(n, j, qp), qbinomial(n, n - j, qp)
                assert a == pytest.approx(b, rel=1e-13)

    def test_classical_limit_all_j(self):
        eps = 1e-8
        qp = QParam.from_q(1 - eps)
        for n in range(13):
            for j in range(n + 1):
                exact = comb(n, j)
                assert abs(qbinomial(n, j, qp) - exact) < 50 * eps * exact + 1e-15

    @pytest.mark.parametrize("n,j", [(3, 4), (3, -1), (-1, 0)])
    def test_domain_errors(self, n, j):
        with pytest.raises(ValueError):
            qbinomial(n, j, QParam.from_q(0.5))

    @pytest.mark.parametrize("q", [1e-4, 0.004, 0.5, 0.83, 0.998, 0.9999])
    def test_row_is_bitwise_qbinomial(self, q):
        qp = QParam.from_q(q)
        for n in [*range(20), 63, 150]:
            row = _qbinomial_row(n, qp)
            assert [x.hex() for x in row] == [qbinomial(n, j, qp).hex() for j in range(n + 1)]


class TestQNumber:
    def test_zero_and_one(self):
        qp = QParam.from_q(0.77)
        assert qnumber(0, qp) == 0.0
        assert qnumber(1, qp) == 1.0

    def test_hand_oracle(self):
        assert qnumber(3, QParam.from_q(0.5)) == pytest.approx(1.75, rel=1e-15)

    @pytest.mark.parametrize("q", Q_TRIO)
    def test_equals_qbinomial_n_1_bitwise(self, q):
        qp = QParam.from_q(q)
        for n in range(1, 25):
            assert qnumber(n, qp) == qbinomial(n, 1, qp)


class TestQFactorial:
    def test_empty(self):
        assert qfactorial(0, QParam.from_q(0.5)) == 1.0

    def test_two_factor(self):
        assert qfactorial(2, QParam.from_q(0.5)) == pytest.approx(0.375, rel=1e-15)

    def test_three_factor_q09(self):
        # 0.1 * 0.19 * 0.271
        assert qfactorial(3, QParam.from_q(0.9)) == pytest.approx(0.005149, rel=1e-12)


class TestFiniteCauchy:
    def test_small_cases(self):
        qp = QParam.from_q(0.5)
        assert finite_cauchy_coeffs(0, qp) == [1.0]
        assert finite_cauchy_coeffs(1, qp) == [1.0, -1.0]
        c2 = finite_cauchy_coeffs(2, qp)
        assert c2 == pytest.approx([1.0, -1.5, 0.5], rel=1e-15)

    @pytest.mark.parametrize("q", Q_TRIO)
    def test_matches_pochhammer_at_random_points(self, q):
        qp = QParam.from_q(q)
        rng = np.random.default_rng(1234)
        for n in range(16):
            coeffs = finite_cauchy_coeffs(n, qp)
            for _ in range(20):
                z = rng.uniform(-1, 1) * 2 + 1j * rng.uniform(-1, 1) * 2
                poly = sum(c * z**j for j, c in enumerate(coeffs))
                direct = qpochhammer(z, qp, n)
                # eps-level floor from the polynomial's term mass covers the
                # near-root cancellation at q = 0.9
                mass = sum(abs(c) * abs(z) ** j for j, c in enumerate(coeffs))
                assert abs(poly - direct) <= 1e-11 * max(1.0, abs(direct)) + 100 * 2.2e-16 * mass
