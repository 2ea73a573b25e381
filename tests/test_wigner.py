"""Wigner function, Carlitz orthogonality routes, and both marginals."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qps import (
    QParam,
    action_distribution,
    action_table,
    angle_distribution,
    angle_distribution_from_wigner,
    angle_table,
    carlitz_closed_form,
    carlitz_double_sum,
    circular_variance,
    orthogonality_quadrature,
    phase_grid,
    qfactorial,
    sinc_kernel,
    theta3,
    wigner_grid,
    wigner_one_sided,
)
from qps.rspoly import rs_abs_squared_rows

Q_TRIO = (0.1, 0.5, 0.9)
GRID_POINTS = 256
GRID = phase_grid(GRID_POINTS)


def naive_sinc(d: float) -> float:
    """Floating sin(pi d)/(pi d) with the removable singularity patched."""
    if d == 0.0:
        return 1.0
    return math.sin(math.pi * d) / (math.pi * d)


class TestUniformGrid:
    def test_uniform_coverage(self):
        g = phase_grid(64)
        assert len(g) == 64
        assert g[0] == -math.pi
        assert g[-1] < math.pi
        steps = np.diff(g)
        assert np.allclose(steps, 2 * math.pi / 64, rtol=0, atol=1e-15)

    def test_rejects_tiny_grid(self):
        with pytest.raises(ValueError):
            phase_grid(1)


def numpy_grid(k_points: int) -> np.ndarray:
    """The grid as numpy builds it, the reference for the tuple of floats."""
    return -math.pi + 2.0 * math.pi * np.arange(k_points) / k_points


def hex_list(values) -> list[str]:
    return [float.hex(v) for v in values]


class TestPlainContainers:
    """The grid and the marginal tables hold Python floats, bitwise equal to
    the numpy-built grid and to the marginals evaluated on its points."""

    @pytest.mark.parametrize("k_points", (2, 3, 8, 255, 1024, 4099, 65536))
    def test_grid_points_match_numpy_build(self, k_points):
        points = phase_grid(k_points)
        assert type(points) is tuple
        assert all(type(th) is float for th in points)
        assert hex_list(points) == hex_list(numpy_grid(k_points).tolist())

    @pytest.mark.parametrize("n,q,k_points", [(0, 0.5, 64), (3, 0.05, 255), (7, 0.9, 256),
                                              (12, 0.99, 128), (2, 0.9999, 64)])
    def test_angle_table_matches_pointwise(self, n, q, k_points):
        qp = QParam.from_q(q)
        table = angle_table(n, qp, phase_grid(k_points))
        assert type(table) is tuple
        assert all(type(v) is float for v in table)
        want = [angle_distribution(n, th, qp) for th in numpy_grid(k_points)]
        assert hex_list(table) == hex_list(want)

    @pytest.mark.parametrize("n,q,m_lo,m_hi", [(0, 0.5, -2, 3), (5, 0.3, -1, 8),
                                               (30, 0.004, 27, 33), (5, 0.9999, 3, 9)])
    def test_action_table_matches_pointwise(self, n, q, m_lo, m_hi):
        qp = QParam.from_q(q)
        table = action_table(n, m_lo, m_hi, qp)
        assert type(table) is tuple
        assert all(type(v) is float for v in table)
        want = [action_distribution(n, int(m), qp) for m in np.arange(m_lo, m_hi + 1)]
        assert hex_list(table) == hex_list(want)


class TestSincKernel:
    """sinc_kernel(m, c2) is the sinc at the centre c2/2."""

    def test_removable_singularity(self):
        assert sinc_kernel(3, 6) == 1.0

    def test_integer_zeros(self):
        assert sinc_kernel(3, 10) == 0.0
        assert sinc_kernel(-2, 8) == 0.0

    def test_half_odd_value(self):
        assert sinc_kernel(0, 1) == pytest.approx(2 / math.pi, rel=1e-15)

    @given(m=st.integers(-30, 30), c2=st.integers(-60, 60))
    @settings(max_examples=120)
    def test_matches_floating_sinc(self, m, c2):
        exact = sinc_kernel(m, c2)
        assert exact == pytest.approx(naive_sinc(m - c2 / 2.0), abs=1e-15)


class TestCarlitzRoutes:
    def test_double_sum_base_cases(self):
        qp = QParam.from_q(0.5)
        assert carlitz_double_sum(0, 0, qp) == 1.0
        assert carlitz_double_sum(0, 1, qp) == 0.0

    def test_double_sum_diagonal_value(self):
        # (q;q)_2 / q^2 = 0.375 / 0.25
        assert carlitz_double_sum(2, 2, QParam.from_q(0.5)) == pytest.approx(1.5, rel=1e-15)

    def test_closed_form_cases(self):
        qp = QParam.from_q(0.5)
        assert carlitz_closed_form(1, 2, qp) == 0.0
        assert carlitz_closed_form(0, 0, qp) == 1.0
        assert carlitz_closed_form(3, 3, qp) == pytest.approx(
            qfactorial(3, qp) / 0.125, rel=1e-15
        )

    @pytest.mark.parametrize("q", Q_TRIO)
    def test_triangle_double_sum_vs_closed_form(self, q):
        qp = QParam.from_q(q)
        for m in range(11):
            for n in range(11):
                dsum = carlitz_double_sum(m, n, qp)
                closed = carlitz_closed_form(m, n, qp)
                if m == n:
                    assert dsum == pytest.approx(closed, rel=1e-10)
                else:
                    assert abs(dsum - closed) < 1e-10

    @pytest.mark.parametrize("q", [1e-4, 0.004, 0.1, 0.135, 0.5, 0.9, 0.998, 0.9999])
    def test_quadrature_oracle_accuracy(self, q):
        # against the exact I_mn on the binary value of q, through the
        # n_top = 24 table: the off-diagonal integrals cancel terms of size
        # ~q^{-24} down to zero, and the diagonal is (q;q)_n q^{-n} within
        # one ulp, since at q = 0.5 the exact value sits on a rounding tie
        # for n = 10, 12 and 14
        qp = QParam.from_q(q)
        qf = Fraction(q)
        exact = Fraction(1)
        for n in range(25):
            if n:
                exact *= 1 - qf**n
            for m in range(n + 1):
                quad = orthogonality_quadrature(m, n, qp)
                if m == n:
                    value = exact / qf**n
                    assert abs(Fraction(quad) - value) <= math.ulp(float(value)), n
                else:
                    assert abs(quad) <= 1e-40, (m, n)
                # the integer sum is exact, so the swap is bitwise
                assert orthogonality_quadrature(n, m, qp) == quad, (m, n)

    @pytest.mark.parametrize("q", [1e-4, 0.004, 0.5, 0.998])
    def test_closed_form_accuracy(self, q):
        # against (q;q)_n q^{-n} in exact rationals on the binary value of q
        qp = QParam.from_q(q)
        qf = Fraction(q)
        exact = Fraction(1)
        for n in range(11):
            if n:
                exact *= 1 - qf**n
            value = exact / qf**n
            assert abs(Fraction(carlitz_closed_form(n, n, qp)) - value) / value < 1e-15, n

    def test_domain_errors(self):
        qp = QParam.from_q(0.5)
        with pytest.raises(ValueError):
            carlitz_double_sum(-1, 0, qp)
        with pytest.raises(ValueError):
            carlitz_closed_form(0, -2, qp)

    def test_closed_form_overflow_names_q_power(self):
        # q^-100 = 1e400 at q = 1e-4, inside the documented domain
        with pytest.raises(OverflowError, match=r"q\^-n .* n=100, q=0\.0001"):
            carlitz_closed_form(100, 100, QParam.from_q(1e-4))

    @pytest.mark.parametrize("route,name", [(carlitz_double_sum, "Carlitz double sum"),
                                            (orthogonality_quadrature, "quadrature")])
    def test_exact_route_overflow_names_route(self, route, name):
        # I_88 = (q;q)_8 q^-8 = 1e320 at q = 1e-40, past double range
        with pytest.raises(OverflowError, match=rf"^{name} .* m=8, n=8, q=1e-40$"):
            route(8, 8, QParam.from_q(1e-40))


class TestWignerEval:
    def test_ground_state_reduces_to_single_sum(self):
        # for n = 0 the (r, s) sums collapse and only sinc(m - t/2) remains
        qp = QParam.from_q(0.5)
        t_cut = 12
        for m in (-1, 0, 1, 3):
            for theta in (0.0, 0.9, -2.1):
                oracle = 0.0
                for t in range(-t_cut, t_cut + 1):
                    oracle += (
                        math.exp(-qp.mu * t * t) * math.cos(t * theta) * naive_sinc(m - t / 2.0)
                    )
                value = wigner_grid(0, m, qp, (theta,), 1e-13)[0]
                assert value == pytest.approx(oracle, abs=1e-12)

    def test_strong_deformation_peak(self):
        # t = 0 term dominates: O_0(0, 0) = 1 + (4/pi) sqrt(q) + O(q^2)
        qp = QParam.from_q(1e-3)
        value = wigner_grid(0, 0, qp, (0.0,))[0]
        assert abs(value - 1.0 - (4 / math.pi) * math.sqrt(qp.q)) < 5 * qp.q

    def test_frozen_reference_value(self):
        # independently assembled from the one-sum reduction before freezing
        value = wigner_grid(0, 0, QParam.from_q(0.5), (0.0,), 1e-14)[0]
        assert value == pytest.approx(1.8816036793287345, rel=1e-14)

    def test_takes_negative_values_somewhere(self):
        # quasiprobability: the off-diagonal n = 1, m = 0 slice goes negative
        qp = QParam.from_q(0.5)
        vals = wigner_grid(1, 0, qp, GRID, 1e-12)
        assert min(vals) < -0.5

    def test_input_validation(self):
        qp = QParam.from_q(0.5)
        with pytest.raises(ValueError):
            wigner_grid(-1, 0, qp, (0.0,))
        with pytest.raises(ValueError):
            wigner_grid(0, 0, qp, (0.0,), tol=0.0)


class TestShiftChoice:
    def test_one_sided_maps_are_conjugate(self):
        qp = QParam.from_q(0.5)
        for n, m, th in [(1, 0, 0.7), (2, 2, 1.0), (3, 4, -2.0)]:
            a = wigner_one_sided(n, m, th, qp, 1e-13, -1)
            b = wigner_one_sided(n, m, th, qp, 1e-13, +1)
            assert abs(a - b.conjugate()) < 1e-12 * (1 + abs(a))

    @pytest.mark.parametrize("q", Q_TRIO)
    def test_shift_equivalence_of_real_parts(self, q):
        qp = QParam.from_q(q)
        for n in range(4):
            for m in (-1, 0, n, n + 2):
                for th in (0.0, 0.7, 2.2, -1.3):
                    a = wigner_one_sided(n, m, th, qp, 1e-13, -1).real
                    b = wigner_one_sided(n, m, th, qp, 1e-13, +1).real
                    c = wigner_grid(n, m, qp, (th,), 1e-13)[0]
                    assert abs(a - b) < 1e-12
                    assert abs(a - c) < 1e-12

    def test_one_sided_keeps_o1_imaginary_part(self):
        # the raw single-shift map is genuinely complex for n >= 1
        qp = QParam.from_q(0.5)
        v = wigner_one_sided(2, 2, 1.0, qp, 1e-13, -1)
        assert abs(v.imag) > 0.1


class TestGridSweep:
    @pytest.mark.parametrize("q", Q_TRIO)
    def test_matches_scalar_evaluation(self, q):
        qp = QParam.from_q(q)
        small = phase_grid(16)
        scale = 1e-12 if q < 0.8 else 1e-10
        for n in (0, 2, 5):
            for m in (-1, n, n + 3):
                grid_vals = wigner_grid(n, m, qp, small, 1e-12)
                for k, th in enumerate(small):
                    scalar = wigner_grid(n, m, qp, (float(th),), 1e-12)[0]
                    assert abs(grid_vals[k] - scalar) < scale

    def test_far_action_slices_decay(self):
        # only the half-odd sinc tails survive far from the diagonal, so the
        # slice amplitude falls off like 1/m while its integral stays ~0
        qp = QParam.from_q(0.5)
        near = np.max(np.abs(wigner_grid(0, 5, qp, GRID, 1e-12)))
        far = np.max(np.abs(wigner_grid(0, 40, qp, GRID, 1e-12)))
        assert far < near / 6
        assert far < 2e-3


class TestActionMarginal:
    def test_kronecker_delta_examples(self):
        qp = QParam.from_q(0.5)
        assert action_distribution(2, 2, qp) == pytest.approx(1.0, abs=1e-8)
        assert action_distribution(2, 5, qp) == pytest.approx(0.0, abs=1e-8)
        assert action_distribution(0, -1, qp) == pytest.approx(0.0, abs=1e-8)

    @pytest.mark.parametrize("q", Q_TRIO)
    def test_delta_across_states(self, q):
        qp = QParam.from_q(q)
        for n in range(7):
            for m in range(-2, 11):
                lam = action_distribution(n, m, qp)
                assert abs(lam - (1.0 if m == n else 0.0)) < 1e-8

    def test_action_table_structure(self):
        qp = QParam.from_q(0.9)
        table = action_table(4, 3, 5, qp)
        assert table == pytest.approx([0.0, 1.0, 0.0], abs=1e-8)
        assert sum(abs(v - round(v)) for v in table) < 1e-8

    def test_total_action_mass(self):
        qp = QParam.from_q(0.5)
        total = sum(action_distribution(3, m, qp) for m in range(-2, 11))
        assert total == pytest.approx(1.0, abs=1e-8)

    def test_small_q_large_n_is_delta(self):
        qp = QParam.from_q(1e-4)
        for m in (299, 300, 301):
            lam = action_distribution(300, m, qp)
            assert lam == pytest.approx(1.0 if m == 300 else 0.0, abs=1e-8)

    def test_no_truncated_tail(self):
        # the f = 0 sum is finite; a Gaussian t cutoff at 1e-8 left 1.21e-8
        # here, amplified by 1/(q;q)_n and the a_r a_s weights
        qp = QParam.from_q(0.8)
        assert abs(action_distribution(17, 16, qp)) < 1e-9
        assert abs(action_distribution(17, 17, qp) - 1.0) < 1e-9


class TestAngleMarginal:
    def test_ground_state_is_theta3(self):
        qp = QParam.from_q(0.5)
        for th in np.linspace(-3, 3, 11):
            assert angle_distribution(0, float(th), qp) == theta3(float(th), qp, 1e-12).value

    @pytest.mark.parametrize("mu", (0.1, 0.5, 1.0))
    def test_first_excited_closed_form(self, mu):
        qp = QParam.from_mu(mu)
        pref = math.exp(-2 * mu) / (1 - math.exp(-2 * mu))
        for th in GRID[::8]:
            th = float(th)
            expected = (
                pref
                * (1 - 2 * math.exp(mu) * math.cos(th) + math.exp(2 * mu))
                * theta3(th, qp, 1e-15).value
            )
            assert angle_distribution(1, th, qp) == pytest.approx(expected, abs=1e-12, rel=1e-12)

    @pytest.mark.parametrize("q", Q_TRIO)
    def test_normalization(self, q):
        qp = QParam.from_q(q)
        for n in range(7):
            table = angle_table(n, qp, GRID)
            assert float(np.sum(table)) / GRID_POINTS == pytest.approx(1.0, abs=1e-10)
            assert all(v > 0 for v in table)

    def test_evenness(self):
        qp = QParam.from_q(0.5)
        for n in (0, 1, 4):
            for th in (0.3, 1.1, 2.9):
                a = angle_distribution(n, th, qp)
                b = angle_distribution(n, -th, qp)
                assert abs(a - b) <= 1e-12 * a

    @pytest.mark.parametrize("q, n", [(1e-4, 3), (0.1, 7), (0.5, 12), (0.9, 20), (0.9999, 40)])
    def test_column_is_the_weighted_abs_squared_row(self, q, n):
        # poly's |R_n|^2 row times theta_3 is the angle column bit for bit:
        # both read the one |R_k|^2 evaluator
        qp = QParam.from_q(q)
        grid = phase_grid(64)
        row = rs_abs_squared_rows(n, grid, qp)[n]
        weighted = [theta3(th, qp, 1e-12).value * x for th, x in zip(grid, row)]
        assert [x.hex() for x in angle_table(n, qp, grid)] == [x.hex() for x in weighted]

    @pytest.mark.parametrize("n,theta", [(120, 0.0), (110, 2.0)])
    def test_non_finite_point_raises(self, n, theta):
        # |R_n|^2 overflows (inf at theta = 0) or meets an underflowed
        # theta_3 (0 * inf = nan at theta = 2); angle_table refuses both
        with pytest.raises(OverflowError, match=f"n={n}"):
            angle_distribution(n, theta, QParam.from_q(0.9999))


class TestAngleFromWigner:
    def test_converges_to_closed_form(self):
        qp = QParam.from_mu(0.5)
        assert angle_distribution_from_wigner(0, 0.0, qp, 200) == pytest.approx(
            angle_distribution(0, 0.0, qp), abs=1e-3
        )
        assert angle_distribution_from_wigner(1, math.pi / 2, qp, 400) == pytest.approx(
            angle_distribution(1, math.pi / 2, qp), abs=1e-3
        )

    def test_second_order_convergence(self):
        qp = QParam.from_mu(0.5)
        for n in (0, 1, 3):
            errs = []
            exact = angle_distribution(n, 1.0, qp)
            for m_cut in (200, 400, 800):
                approx = angle_distribution_from_wigner(n, 1.0, qp, m_cut)
                errs.append(abs(approx - exact))
            ratio1 = errs[0] / errs[1]
            ratio2 = errs[1] / errs[2]
            assert 2.8 < ratio1 < 5.5
            assert 2.8 < ratio2 < 5.5

    def test_requires_margin_above_state_index(self):
        with pytest.raises(ValueError):
            angle_distribution_from_wigner(5, 0.0, QParam.from_q(0.5), 12)


class TestFigureBehavior:
    def test_ground_state_circular_variance_oracle(self):
        # Omega^(0) = theta_3 has first circular moment e^{-mu}
        for mu in (0.1, 0.5, 1.0):
            qp = QParam.from_mu(mu)
            table = angle_table(0, qp, GRID)
            cv = circular_variance(table, GRID)
            assert cv == pytest.approx(1.0 - math.exp(-mu), abs=1e-10)

    def test_width_shrinks_with_mu(self):
        cvs = []
        for mu in (1.0, 0.5, 0.1):
            table = angle_table(0, QParam.from_mu(mu), GRID)
            cvs.append(circular_variance(table, GRID))
        assert cvs[0] > cvs[1] > cvs[2]

    @pytest.mark.parametrize("count", (5, 3))
    def test_circular_variance_rejects_length_mismatch(self, count):
        with pytest.raises(ValueError, match=f"got {count} values and 4 angles"):
            circular_variance([1.0] * count, phase_grid(4))

    def test_circular_variance_rejects_empty_grid(self):
        with pytest.raises(ValueError, match="got 0 values and 0 angles"):
            circular_variance((), ())
