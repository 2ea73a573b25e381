"""q-series primitives against hand oracles and structural identities."""

import math
from math import comb

import pytest

from qps import QParam, qbinomial, qfactorial, qnumber
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

    def test_equal_and_hashed_by_value(self):
        # QParam keys the _qbinomial_row cache, so equal pairs must hit it
        a, b = QParam.from_q(0.5), QParam.from_q(0.5)
        assert a is not b and a == b and hash(a) == hash(b)
        assert a != QParam.from_q(0.25) and a != (a.q, a.mu)
        assert repr(a) == f"QParam(q=0.5, mu={a.mu!r})"
        _qbinomial_row.cache_clear()
        assert _qbinomial_row(6, a) is _qbinomial_row(6, b)
        assert _qbinomial_row.cache_info().hits == 1

    def test_immutable(self):
        qp = QParam.from_q(0.5)
        with pytest.raises(AttributeError):
            qp.q = 0.25
        with pytest.raises(AttributeError):
            del qp.mu
        with pytest.raises(AttributeError):
            qp.extra = 1
        assert qp.q == 0.5

    def test_one_minus_qpow_near_one(self):
        qp = QParam.from_q(1 - 1e-8)
        # 1 - q^3 = 3e-8 - 3e-16 + ... ; plain 1 - q**3 would lose digits
        assert qp.one_minus_qpow(3) == pytest.approx(3e-8 - 3e-16, rel=1e-12)


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
