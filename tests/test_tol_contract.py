"""Every public function that takes a tolerance rejects a non-finite one."""

import math

import pytest

from qps import (
    QParam,
    angle_distribution_from_wigner,
    theta3_gaussian,
    theta3_series,
    verify_algebra,
    wigner_grid,
    wigner_one_sided,
)

QP = QParam.from_q(0.5)

CALLS = {
    "theta3_series": lambda tol: theta3_series(0.3, QP, tol),
    "theta3_gaussian": lambda tol: theta3_gaussian(0.3, QP, tol),
    "wigner_one_sided": lambda tol: wigner_one_sided(2, 2, 0.3, QP, tol),
    "wigner_grid": lambda tol: wigner_grid(2, 2, QP, (0.3,), tol),
    "angle_distribution_from_wigner":
        lambda tol: angle_distribution_from_wigner(2, 0.3, QP, 40, tol),
    "verify_algebra": lambda tol: verify_algebra(3, QP, tol),
}


@pytest.mark.parametrize("name", sorted(CALLS))
def test_infinite_tol_rejected(name):
    # an infinite tol truncates every sum to its first terms and passes every
    # check, so it is refused like a non-positive one
    with pytest.raises(ValueError, match="tol must be positive and finite, got inf"):
        CALLS[name](math.inf)
