"""The quadrature oracle's fixed-point tables against an mpmath build,
compared as integers, and its rows against the Gaussian binomials.

`_mp_quad_tables` builds its constants from integers alone;
`reference_quad_tables` takes the same constants from mpmath at 20 bits
above the table scale.  Both round every constant once onto the same scale
and run the same three-term recurrence on the coefficient rows of H_j, so
the tables must agree integer for integer.
"""

import math

import mpmath as mp
import pytest

from qps.qseries import QParam, _qbinomial_row
from qps.orthogonality import _QUAD_GUARD_BITS, QUADRATURE_DPS, _mp_quad_tables


def reference_quad_tables(q, n_top):
    """The mpmath table build, kept as the oracle that the integer build
    must match integer for integer."""
    mu = -math.log(q) / 2.0
    frac = (
        mp.libmp.dps_to_prec(QUADRATURE_DPS)
        + math.ceil(
            2 * n_top * math.log2(1.0 + math.exp(mu)) + math.log2(1.0 + math.sqrt(math.pi / mu))
        )
        + math.ceil(-sum(math.log2(1.0 - q**j) for j in range(1, n_top + 1)))
        + _QUAD_GUARD_BITS
    )
    with mp.workprec(frac + _QUAD_GUARD_BITS):

        def fix(x) -> int:
            return int(mp.nint(mp.ldexp(x, frac)))

        qm = mp.mpf(q)
        e_mu = fix(1 / mp.sqrt(qm))
        one_minus_qj = [fix(1 - qm**j) for j in range(n_top)]
        weights = [fix(qm ** (mp.mpf(d * d) / 2)) for d in range(n_top + 1)]
    # H_{j+1} = (1 + y) H_j - (1 - q^j) y H_{j-1}, where y = -e^{mu + i theta}
    # shifts a coefficient row up one place and scales it by -e^mu
    h, yh = [1 << frac], [0]
    rows = [h]
    for c_j in one_minus_qj:
        prev = yh + [0]
        yh = [0] + [-e_mu * x for x in h]
        h = [((x << frac) + u - ((c_j * v) >> frac)) >> frac for x, u, v in zip(h + [0], yh, prev)]
        rows.append(h)
    return frac, weights, tuple(rows)


# the documented domain's ends and interior, and q = e^{-2} (mu = 1) nudged
# to either side
Q_VALUES = [1e-4, 3e-4, 0.004, 0.2, 0.5, 0.998, 0.9994, 0.9999,
            math.exp(-2.0) * (1 - 1e-9), math.exp(-2.0) * (1 + 1e-9)]


# tiny tables (n_top = 2, 3, 5), the oracle's n_top buckets 8, 16 and 24,
# and large tables far past them
N_TOP_VALUES = [2, 3, 5, 8, 16, 24, 101, 257]


@pytest.mark.parametrize("n_top", N_TOP_VALUES)
@pytest.mark.parametrize("q", Q_VALUES)
def test_tables_equal_the_mpmath_build(q, n_top):
    got = _mp_quad_tables.__wrapped__(q, n_top)
    assert got == reference_quad_tables(q, n_top), (q, n_top)


@pytest.mark.parametrize("q", Q_VALUES)
def test_rows_are_the_coefficients_of_h(q):
    # H_j(y) = sum_r [j r]_q y^r at y = -e^{mu + i theta}, so the coefficient
    # of e^{i r theta} is (-1)^r [j r]_q e^{mu r}
    qp = QParam.from_q(q)
    frac, _, rows = _mp_quad_tables(q, 24)
    for j, row in enumerate(rows):
        want = [(-1) ** r * c * math.exp(qp.mu * r) for r, c in enumerate(_qbinomial_row(j, qp))]
        got = [x / (1 << frac) for x in row]
        assert got == pytest.approx(want, rel=1e-12), j
