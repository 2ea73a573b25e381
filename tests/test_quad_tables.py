"""The quadrature oracle's fixed-point tables against an mpmath build,
compared as integers.

`_mp_quad_tables` builds its constants from integers alone;
`reference_quad_tables` takes the same constants from mpmath at 20 bits
above the table scale.  Both round every constant once onto the same scale
and sum the same band-limited theta_3, its Fourier partial sum to n_top on
K = 2 n_top + 1 points, so the tables must agree integer for integer.
"""

import math

import mpmath as mp
import pytest

from qps.wigner import _QUAD_GUARD_BITS, QUADRATURE_DPS, _mp_quad_tables


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
    k_points = 2 * n_top + 1
    with mp.workprec(frac + _QUAD_GUARD_BITS):

        def fix(x) -> int:
            return int(mp.nint(mp.ldexp(x, frac)))

        qm = mp.mpf(q)
        step = 2 * mp.pi / k_points
        cos_sin = [mp.cos_sin(step * k) for k in range(n_top + 1)]
        cos_k = [fix(c) for c, _ in cos_sin]
        sin_k = [fix(s) for _, s in cos_sin]
        e_mu = fix(1 / mp.sqrt(qm))
        one_minus_qj = [fix(1 - qm**j) for j in range(n_top)]
        signed_w = [(-1) ** t * fix(qm ** (mp.mpf(t * t) / 2)) for t in range(1, n_top + 1)]
    # cos(t theta_k) = (-1)^t cos(2 pi t k / K) at theta_k = -pi + 2 pi k / K
    cos_full = cos_k + cos_k[:0:-1]
    theta = [
        ((1 << 2 * frac) + 2 * sum(
            w * cos_full[t * k % k_points] for t, w in enumerate(signed_w, 1)
        ) + (1 << frac - 1)) >> frac
        for k in range(n_top + 1)
    ]
    w_theta = [theta[0]] + [2 * th for th in theta[1:]]

    y_re = [(e_mu * c) >> frac for c in cos_k]
    y_im = [(e_mu * s) >> frac for s in sin_k]
    h_re, h_im = [1 << frac] * (n_top + 1), [0] * (n_top + 1)
    yh_re, yh_im = [0] * (n_top + 1), [0] * (n_top + 1)
    h_rows = [(h_re, h_im)]
    for c_j in one_minus_qj:
        prev_re, prev_im = yh_re, yh_im
        yh_re = [a * c - b * d for a, b, c, d in zip(y_re, y_im, h_re, h_im)]
        yh_im = [a * d + b * c for a, b, c, d in zip(y_re, y_im, h_re, h_im)]
        h_re = [
            ((h << frac) + u - ((c_j * v) >> frac)) >> frac
            for h, u, v in zip(h_re, yh_re, prev_re)
        ]
        h_im = [
            ((h << frac) + u - ((c_j * v) >> frac)) >> frac
            for h, u, v in zip(h_im, yh_im, prev_im)
        ]
        h_rows.append((h_re, h_im))
    return frac, tuple(
        (re, im, [w * h for w, h in zip(w_theta, re)], [w * h for w, h in zip(w_theta, im)])
        for re, im in h_rows
    )


# the documented domain's ends and interior, and q = e^{-2} (mu = 1) nudged
# to either side
Q_VALUES = [1e-4, 3e-4, 0.004, 0.2, 0.5, 0.998, 0.9994, 0.9999,
            math.exp(-2.0) * (1 - 1e-9), math.exp(-2.0) * (1 + 1e-9)]


# tiny tables (K = 5, 7, 11), the oracle's n_top buckets 8, 16 and 24, and
# large tables far past them (K = 203, 515)
N_TOP_VALUES = [2, 3, 5, 8, 16, 24, 101, 257]


@pytest.mark.parametrize("n_top", N_TOP_VALUES)
@pytest.mark.parametrize("q", Q_VALUES)
def test_tables_equal_the_mpmath_build(q, n_top):
    got = _mp_quad_tables.__wrapped__(q, n_top)
    assert got == reference_quad_tables(q, n_top), (q, n_top)
