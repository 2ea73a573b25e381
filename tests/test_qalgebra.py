"""Ladder algebra: matrix and polynomial realizations, relation residuals."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qps import (
    QParam,
    apply_Adag_poly,
    jackson_derivative,
    qnumber,
    rs_coefficients,
    verify_algebra,
)

Q_TRIO = (0.1, 0.5, 0.9)


def dense_ladders(n_max, qp):
    """A, A+ and N as dense complex matrices on the truncated basis
    H_0 .. H_nmax (columns index the input basis element)."""
    dim = n_max + 1
    a = np.zeros((dim, dim), dtype=complex)
    adag = np.zeros((dim, dim), dtype=complex)
    for n in range(1, dim):
        a[n - 1, n] = qnumber(n, qp)
        adag[n, n - 1] = 1.0
    n_mat = np.diag(np.arange(dim, dtype=float)).astype(complex)
    return a, adag, n_mat


def dense_algebra(n_max, qp):
    """The two q-relation residuals from dense matrix products, row k divided
    by [k+1]_q and max-normed over the interior block 0..n_max-1, and the
    unscaled classical commutator deviation: the reference that
    verify_algebra's O(n) pass must match bit for bit."""
    a, adag, _ = dense_ladders(n_max, qp)
    dim = n_max + 1
    eye = np.eye(dim, dtype=complex)
    q_pow_n = np.diag(np.array([qp.qpow(k) for k in range(dim)], dtype=complex))
    row_scale = np.array([qnumber(k + 1, qp) for k in range(n_max)])[:, None]

    def interior_max(x):
        return float(np.max(np.abs(x[:n_max, :n_max])))

    comm = a @ adag - adag @ a
    deviations = {
        "comm_a_adag_minus_qN": comm - q_pow_n,
        "aadag_minus_q_adaga_minus_one": a @ adag - qp.q * (adag @ a) - eye,
    }
    residuals = {
        name: float(np.max(np.abs(dev[:n_max, :n_max]) / row_scale))
        for name, dev in deviations.items()
    }
    return residuals, interior_max(comm - eye)


class TestLadderMatrices:
    def test_smallest_case_exact(self):
        a, adag, n_mat = dense_ladders(1, QParam.from_q(0.42))
        assert np.array_equal(a, np.array([[0, 1], [0, 0]], dtype=complex))
        assert np.array_equal(adag, np.array([[0, 0], [1, 0]], dtype=complex))
        assert np.array_equal(n_mat, np.diag([0.0, 1.0]).astype(complex))

    def test_superdiagonal_holds_qnumbers(self):
        a, _, _ = dense_ladders(3, QParam.from_q(0.5))
        superdiag = [a[k, k + 1].real for k in range(3)]
        assert superdiag == pytest.approx([1.0, 1.5, 1.75])

    def test_raising_ground_state(self):
        basis = np.eye(5, dtype=complex)
        for q in Q_TRIO:
            _, adag, _ = dense_ladders(4, QParam.from_q(q))
            assert np.array_equal(adag @ basis[0], basis[1])

    def test_rejects_degenerate_truncation(self):
        with pytest.raises(ValueError):
            verify_algebra(0, QParam.from_q(0.5), 1e-12)

    @pytest.mark.parametrize("n_max", [2, 3, 10, 15, 120])
    @pytest.mark.parametrize("q", [1e-4, 0.004, 0.1, 0.5, 0.9, 0.998, 0.9999, 1 - 1e-8])
    def test_verify_matches_dense_products_bitwise(self, q, n_max):
        qp = QParam.from_q(q)
        report = verify_algebra(n_max, qp, 1e-12)
        residuals, classical = dense_algebra(n_max, qp)
        assert list(report.residuals) == list(residuals)
        assert {k: v.hex() for k, v in report.residuals.items()} == {
            k: v.hex() for k, v in residuals.items()
        }
        assert report.classical_commutator_deviation.hex() == classical.hex()


def combine(*terms):
    """sum of c * p over the (c, p) pairs, on coefficient tuples of any length."""
    size = max(len(p) for _, p in terms)
    return [sum(c * p[r] for c, p in terms if r < len(p)) for r in range(size)]


class TestPolynomialLadders:
    def test_lowering_kills_ground_state(self):
        qp = QParam.from_q(0.5)
        assert jackson_derivative(rs_coefficients(0, qp), qp) == ()

    def test_lowering_h2(self):
        qp = QParam.from_q(0.5)
        lowered = jackson_derivative(rs_coefficients(2, qp), qp)
        expected = [qnumber(2, qp) * c for c in rs_coefficients(1, qp)]
        assert lowered == pytest.approx(expected)

    def test_lowering_h5_q09(self):
        qp = QParam.from_q(0.9)
        lowered = jackson_derivative(rs_coefficients(5, qp), qp)
        expected = [qnumber(5, qp) * c for c in rs_coefficients(4, qp)]
        assert len(lowered) == len(expected)
        for a, b in zip(lowered, expected):
            assert abs(a - b) <= 1e-13 * max(1.0, abs(b))

    def test_raising_ground_state(self):
        qp = QParam.from_q(0.5)
        assert apply_Adag_poly(rs_coefficients(0, qp), qp) == (1.0, 1.0)

    def test_raising_h1(self):
        qp = QParam.from_q(0.5)
        raised = apply_Adag_poly(rs_coefficients(1, qp), qp)
        assert raised == pytest.approx((1.0, 1.5, 1.0))

    def test_raising_zero_polynomial(self):
        assert apply_Adag_poly((), QParam.from_q(0.5)) == ()

    @pytest.mark.parametrize("q", Q_TRIO)
    def test_raising_ladder_to_n20(self, q):
        qp = QParam.from_q(q)
        for n in range(20):
            raised = apply_Adag_poly(rs_coefficients(n, qp), qp)
            expected = rs_coefficients(n + 1, qp)
            assert len(raised) == len(expected)
            for a, b in zip(raised, expected):
                assert abs(a - b) <= 1e-13 * max(1.0, abs(b))

    @pytest.mark.parametrize("q", Q_TRIO)
    def test_q_commutator_identity_on_basis(self, q):
        # (A Adag - q Adag A) H_n = H_n in the polynomial realization
        qp = QParam.from_q(q)
        for n in range(11):
            h = rs_coefficients(n, qp)
            left = jackson_derivative(apply_Adag_poly(h, qp), qp)
            right = apply_Adag_poly(jackson_derivative(h, qp), qp)
            resid = combine((1.0, left), (-qp.q, right), (-1.0, h))
            assert all(abs(c) < 1e-12 for c in resid)

    def test_number_operator_eigenrelation(self):
        # Adag A H_n = [n] H_n via the polynomial route
        for q in Q_TRIO:
            qp = QParam.from_q(q)
            for n in range(16):
                h = rs_coefficients(n, qp)
                out = apply_Adag_poly(jackson_derivative(h, qp), qp)
                diff = combine((1.0, out), (-qnumber(n, qp), h))
                assert all(abs(c) < 1e-12 for c in diff)


class TestVerifyAlgebra:
    @pytest.mark.parametrize("q", Q_TRIO)
    def test_residuals_tiny_at_n15(self, q):
        report = verify_algebra(15, QParam.from_q(q), 1e-12)
        assert report.passed, report.residuals
        assert all(r < 1e-12 for r in report.residuals.values())

    def test_commutator_spectrum(self):
        qp = QParam.from_q(0.5)
        a, adag, _ = dense_ladders(12, qp)
        comm = a @ adag - adag @ a
        interior = comm[:12, :12]
        assert np.max(np.abs(interior - np.diag(qp.q ** np.arange(12)))) < 1e-12

    @given(
        log_mu=st.floats(math.log(-math.log1p(-1e-4) / 2), math.log(-math.log(1e-4) / 2)),
        n_max=st.integers(2, 20_000),
    )
    @settings(max_examples=25, deadline=None)
    def test_passes_across_domain(self, log_mu, n_max):
        # mu log-uniform over q in [1e-4, 1 - 1e-4]; each residual is scaled by
        # [k+1]_q, so rounding in the q-numbers stays at a few eps for every n
        report = verify_algebra(n_max, QParam.from_mu(math.exp(log_mu)), 1e-12)
        assert report.passed, report.residuals

    def test_classical_limit_recovers_heisenberg(self):
        report = verify_algebra(2, QParam.from_q(1 - 1e-8), 1e-6)
        assert report.classical_commutator_deviation < 1e-6

    def test_truncation_artifact_excluded(self):
        # the full [A, Adag] matrix deviates at the top corner only
        qp = QParam.from_q(0.5)
        a, adag, _ = dense_ladders(6, qp)
        comm = a @ adag - adag @ a
        full_resid = np.max(np.abs(comm - np.diag(qp.q ** np.arange(7))))
        assert full_resid > 0.1  # corner artifact is O(1)
        assert verify_algebra(6, qp, 1e-12).passed

    def test_failure_reported_by_name(self):
        report = verify_algebra(5, QParam.from_q(0.5), 1e-30)
        assert not report.passed
        assert "comm_a_adag_minus_qN" in report.failures

    def test_input_validation(self):
        with pytest.raises(ValueError):
            verify_algebra(1, QParam.from_q(0.5), 1e-12)
        with pytest.raises(ValueError):
            verify_algebra(5, QParam.from_q(0.5), 0.0)

