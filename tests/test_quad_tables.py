"""The quadrature oracle's fixed-point tables against the mpmath build they
replaced, compared as integers.

`_mp_quad_tables` builds its constants from integers and `decimal`;
`reference_quad_tables` is the earlier construction, which took the same
constants from mpmath at 20 bits above the table scale.  Both round every
constant once onto the same scale, so the tables must agree integer for
integer, on either side of the mu = 1 switch between the Gaussian and the
Fourier theta_3 branch and across odd, even and large grids.
"""

import math

import mpmath as mp
import pytest

from qps.wigner import _QUAD_GUARD_BITS, QUADRATURE_DPS, _mp_quad_tables


def reference_quad_tables(q, k_points, n_top):
    """The mpmath table build, kept as the oracle that the integer build
    must match integer for integer."""
    mu = -math.log(q) / 2.0
    theta_max = 1.0 + math.sqrt(math.pi / mu)
    frac = (
        mp.libmp.dps_to_prec(QUADRATURE_DPS)
        + math.ceil(2 * n_top * math.log2(1.0 + math.exp(mu)) + math.log2(theta_max))
        + _QUAD_GUARD_BITS
    )
    ulp_exponent = (frac + 1) * math.log(2)
    half = k_points // 2
    with mp.workprec(frac + _QUAD_GUARD_BITS):

        def fix(x) -> int:
            return int(mp.nint(mp.ldexp(x, frac)))

        qm = mp.mpf(q)
        mu_mp = -mp.log(qm) / 2
        step = 2 * mp.pi / k_points
        cos_sin = [mp.cos_sin(step * k) for k in range(half + 1)]
        cos_k = [fix(c) for c, _ in cos_sin]
        sin_k = [fix(s) for _, s in cos_sin]
        e_mu = fix(mp.exp(mu_mp))
        one_minus_qj = [fix(1 - qm**j) for j in range(n_top)]
        if mu < 1:
            pref = mp.sqrt(mp.pi / mu_mp)
            x_max = 2.0 * math.sqrt(mu * (ulp_exponent + math.log(theta_max)))
            j_hi = math.floor((math.pi + x_max) * k_points / (2 * math.pi))
            gauss = {
                j: fix(pref * mp.exp(-((step * j - mp.pi) ** 2) / (4 * mu_mp)))
                for j in range((k_points + 1) // 2, j_hi + 1)
            }
            theta = [0] * k_points
            for j in range(k_points - j_hi, j_hi + 1):
                theta[j % k_points] += gauss[max(j, k_points - j)]
            theta = theta[: half + 1]
        else:
            t_cut = math.ceil(math.sqrt(ulp_exponent / mu))
            signed_w = [(-1) ** t * fix(mp.exp(-mu_mp * t * t)) for t in range(1, t_cut + 1)]
            cos_full = cos_k + cos_k[k_points - half - 1 : 0 : -1]
            theta = [
                ((1 << 2 * frac) + 2 * sum(
                    w * cos_full[t * k % k_points] for t, w in enumerate(signed_w, 1)
                ) + (1 << frac - 1)) >> frac
                for k in range(half + 1)
            ]
    w_theta = [th if k == 0 or 2 * k == k_points else 2 * th for k, th in enumerate(theta)]

    y_re = [(e_mu * c) >> frac for c in cos_k]
    y_im = [(e_mu * s) >> frac for s in sin_k]
    h_re, h_im = [1 << frac] * (half + 1), [0] * (half + 1)
    yh_re, yh_im = [0] * (half + 1), [0] * (half + 1)
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


# the documented domain's ends and interior, plus q = e^{-2} (mu = 1) nudged
# to either side of the branch switch
Q_VALUES = [1e-4, 3e-4, 0.004, 0.2, 0.5, 0.998, 0.9994, 0.9999,
            math.exp(-2.0) * (1 - 1e-9), math.exp(-2.0) * (1 + 1e-9)]
K_VALUES = [2, 3, 5, 16, 101, 257, 2048]


@pytest.mark.parametrize("k_points", K_VALUES)
@pytest.mark.parametrize("q", Q_VALUES)
def test_tables_equal_the_mpmath_build(q, k_points):
    for n_top in (8, 16):
        got = _mp_quad_tables.__wrapped__(q, k_points, n_top)
        assert got == reference_quad_tables(q, k_points, n_top), (q, k_points, n_top)
