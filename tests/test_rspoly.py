"""Rogers-Szego polynomials: coefficient row, recurrence, ladder, normalization."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qps.qseries
from qps import (
    QParam,
    jackson_derivative,
    phase_grid,
    qfactorial,
    qnumber,
    rs_coefficients,
    rs_function,
)
from qps.rspoly import rs_abs_squared_rows

Q_TRIO = (0.1, 0.5, 0.9)


def poly_at(row, y):
    """H_n(y) as the sum of c y^r over its coefficient row."""
    return sum(c * y**r for r, c in enumerate(row))


class TestCoefficients:
    def test_first_polynomials(self):
        qp = QParam.from_q(0.5)
        assert rs_coefficients(0, qp) == (1.0,)
        assert rs_coefficients(1, qp) == (1.0, 1.0)
        assert rs_coefficients(2, qp) == pytest.approx((1.0, 1.5, 1.0))

    def test_row_is_the_cached_qbinomial_row(self):
        qp = QParam.from_q(0.3)
        for n in (0, 1, 7):
            assert rs_coefficients(n, qp) is qps.qseries._qbinomial_row(n, qp)

    def test_negative_degree_rejected(self):
        with pytest.raises(ValueError):
            rs_coefficients(-1, QParam.from_q(0.5))

    @pytest.mark.parametrize("q", Q_TRIO)
    def test_all_coefficients_positive_and_monic(self, q):
        qp = QParam.from_q(q)
        for n in range(20):
            coeffs = rs_coefficients(n, qp)
            assert coeffs[n] == 1.0
            assert all(c > 0 for c in coeffs)


class TestEvaluation:
    def test_direct_base_cases(self):
        qp = QParam.from_q(0.23)
        assert poly_at(rs_coefficients(0, qp), 3 + 2j) == 1.0
        assert poly_at(rs_coefficients(5, qp), 0.0) == 1.0

    def test_direct_at_one_is_binomial_sum(self):
        # H_3(1) = 1 + [3 1] + [3 2] + 1 = 5.5 at q = 0.5
        assert math.fsum(rs_coefficients(3, QParam.from_q(0.5))) == pytest.approx(5.5, rel=1e-15)

    def test_recurrence_one_step(self):
        # H_2 = (1 + y) H_1 - (1 - q) y H_0 = 1 + (2 - (1 - q)) y + y^2
        qp = QParam.from_q(0.37)
        assert rs_coefficients(2, qp) == pytest.approx((1.0, 2.0 - (1.0 - qp.q), 1.0), rel=1e-15)

    def test_recurrence_root_of_h1(self):
        assert poly_at(rs_coefficients(1, QParam.from_q(0.5)), -1.0) == 0.0

    @pytest.mark.parametrize("q", Q_TRIO)
    def test_route_equivalence(self, q):
        # the three-term recurrence on coefficients:
        # H_{n+1}[r] = H_n[r] + H_n[r-1] - (1 - q^n) H_{n-1}[r-1]
        qp = QParam.from_q(q)
        for n in range(1, 26):
            h_prev, h, h_next = (rs_coefficients(k, qp) for k in (n - 1, n, n + 1))
            c = qp.one_minus_qpow(n)
            for r in range(n + 2):
                up = h[r] if r <= n else 0.0
                left = h[r - 1] if r >= 1 else 0.0
                back = c * h_prev[r - 1] if 1 <= r <= n else 0.0
                assert abs(h_next[r] - (up + left - back)) <= 1e-15 * (up + left + back)

    def test_classical_limit_binomial_theorem(self):
        # as q -> 1 the Gaussian binomial row tends to C(n, r)
        qp = QParam.from_q(1 - 1e-8)
        for n in range(11):
            assert rs_coefficients(n, qp) == pytest.approx(
                [math.comb(n, r) for r in range(n + 1)], rel=1e-6
            )


class TestJacksonDerivative:
    def test_constant_goes_to_zero(self):
        assert jackson_derivative((4.2,), QParam.from_q(0.5)) == ()

    def test_h1_to_h0(self):
        qp = QParam.from_q(0.5)
        d = jackson_derivative(rs_coefficients(1, qp), qp)
        assert d == (1.0,)

    def test_h3_gives_q3_times_h2(self):
        qp = QParam.from_q(0.5)
        d = jackson_derivative(rs_coefficients(3, qp), qp)
        expected = [qnumber(3, qp) * c for c in rs_coefficients(2, qp)]
        assert d == pytest.approx(expected, abs=1e-15)

    @pytest.mark.parametrize("q", Q_TRIO)
    def test_ladder_property(self, q):
        qp = QParam.from_q(q)
        for n in range(1, 21):
            d = jackson_derivative(rs_coefficients(n, qp), qp)
            expected = [qnumber(n, qp) * c for c in rs_coefficients(n - 1, qp)]
            assert len(d) == len(expected)
            for a, b in zip(d, expected):
                assert abs(a - b) <= 1e-13 * max(1.0, abs(b))

    def test_monomial_action(self):
        # D_q y^k = [k] y^{k-1}
        qp = QParam.from_q(0.7)
        d = jackson_derivative((0.0, 0.0, 0.0, 2.0), qp)
        assert d == pytest.approx((0.0, 0.0, 2.0 * qnumber(3, qp)))


class TestRSFunction:
    def test_ground_state_is_unity(self):
        qp = QParam.from_q(0.5)
        for phi in (-2.0, 0.0, 1.2, 3.0):
            assert rs_function(0, phi, qp) == pytest.approx(1.0 + 0j, abs=1e-15)

    def test_first_state_at_zero_angle(self):
        for q in Q_TRIO:
            qp = QParam.from_q(q)
            expected = (math.sqrt(q) - 1.0) / math.sqrt(1.0 - q)
            assert rs_function(1, 0.0, qp) == pytest.approx(expected, rel=1e-14)

    def test_matches_prefactor_times_direct_eval(self):
        # composition of oracles: q^{n/2}/sqrt((q;q)_n) * H_n(-q^{-1/2} e^{i phi})
        qp = QParam.from_q(0.5)
        for n, phi in [(2, math.pi / 3), (3, -1.1), (5, 2.7)]:
            h_n = poly_at(rs_coefficients(n, qp), -qp.q**-0.5 * cmath.exp(1j * phi))
            expected = qp.q ** (n / 2.0) / math.sqrt(qfactorial(n, qp)) * h_n
            assert rs_function(n, phi, qp) == pytest.approx(expected, rel=1e-12)

    @given(phi=st.floats(-math.pi, math.pi), n=st.integers(0, 12))
    @settings(max_examples=60)
    def test_conjugation_symmetry(self, phi, n):
        qp = QParam.from_q(0.5)
        left = rs_function(n, -phi, qp)
        right = rs_function(n, phi, qp).conjugate()
        assert abs(left - right) <= 1e-14 * (1.0 + abs(right))

    def test_sample_record_satisfies_definition(self):
        qp = QParam.from_q(0.5)
        n, phi = 3, 0.9
        h_n = poly_at(rs_coefficients(n, qp), -qp.q**-0.5 * cmath.exp(1j * phi))
        direct = qp.q ** (n / 2.0) / math.sqrt(qfactorial(n, qp)) * h_n
        assert rs_function(n, phi, qp) == pytest.approx(direct, rel=1e-13)

    def test_intermediates_bounded_at_small_q(self):
        # the q^{-1/2} substitution alone would reach q^{-n/2} ~ 1e14 here;
        # the folded prefactor keeps every evaluation finite and modest
        qp = QParam.from_q(1e-4)
        vals = [abs(rs_function(7, phi, qp)) for phi in np.linspace(-3, 3, 20)]
        assert all(math.isfinite(v) for v in vals)
        assert max(vals) < 50.0

    @pytest.mark.parametrize("q", Q_TRIO)
    def test_abs_squared_rows_are_the_squared_moduli(self, q):
        qp = QParam.from_q(q)
        grid = phase_grid(16)
        rows = rs_abs_squared_rows(6, grid, qp)
        assert len(rows) == 7
        for k, row in enumerate(rows):
            expected = [abs(rs_function(k, th, qp)) ** 2 for th in grid]
            assert [x.hex() for x in row] == [x.hex() for x in expected]

    def test_abs_squared_rows_overflow_names_k(self):
        # |R_k|^2 passes double range at k = 103, q = 1 - 1e-4
        with pytest.raises(OverflowError, match=r"\|R_k\|\^2 .* k=103, q=0\.9999"):
            rs_abs_squared_rows(110, phase_grid(8), QParam.from_q(0.9999))
