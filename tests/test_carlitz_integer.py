"""The integer Carlitz double sum against an exact rational reference.

carlitz_double_sum puts every term over one common integer denominator and
rounds once; the reference below sums the same terms as Fractions and also
rounds once, so the two must agree bitwise, not just to a tolerance.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qps import QParam
from qps.orthogonality import carlitz_double_sum


def carlitz_fraction(m: int, n: int, q: float) -> float:
    """The double sum in exact rationals on the binary value of q."""
    qf = Fraction(q)
    one = Fraction(1)
    one_minus_qk = {k: one - qf**k for k in range(1, max(m, n) + 1)}

    def binomial_row(top: int) -> list[Fraction]:
        row = [one]
        for r in range(top):
            row.append(row[-1] * one_minus_qk[top - r] / one_minus_qk[r + 1])
        return row

    row_m, row_n = binomial_row(m), binomial_row(n)
    total = Fraction(0)
    for r in range(m + 1):
        for s in range(n + 1):
            term = row_m[r] * row_n[s] * qf ** (r * (r - 1) // 2 + s * (s - 1) // 2 - r * s)
            total += -term if (r + s) & 1 else term
    return float(total)


@pytest.mark.parametrize("q", [1e-4, 0.004, 0.5, 0.998, 0.9999])
def test_bitwise_equal_to_rational_sum(q):
    qp = QParam.from_q(q)
    for m in range(11):
        for n in range(11):
            assert carlitz_double_sum(m, n, qp).hex() == carlitz_fraction(m, n, q).hex(), (m, n)


@settings(max_examples=60, deadline=None)
@given(
    log10_q=st.floats(min_value=-4.0, max_value=-4.343e-5),
    m=st.integers(min_value=0, max_value=12),
    n=st.integers(min_value=0, max_value=12),
)
def test_bitwise_equal_over_log_spaced_q(log10_q, m, n):
    q = 10.0**log10_q
    assert carlitz_double_sum(m, n, QParam.from_q(q)).hex() == carlitz_fraction(m, n, q).hex()


@pytest.mark.parametrize("q", [1e-4, 0.004, 0.5, 0.998])
def test_symmetric_bitwise(q):
    # qps verify visits each unordered (m, n) pair once, which relies on this
    qp = QParam.from_q(q)
    for m in range(11):
        for n in range(m + 1, 11):
            assert carlitz_double_sum(m, n, qp).hex() == carlitz_double_sum(n, m, qp).hex(), (m, n)
