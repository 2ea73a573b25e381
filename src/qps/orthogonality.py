"""Orthogonality of the Rogers-Szego family against the theta_3 weight.

Orthogonality of the polynomial family is exposed through three
independent routes (Carlitz double sum, closed form, theta_3-weighted
quadrature).  The double sum cancels terms of size q^{-min(m,n)} down to
zero off the diagonal, far below the double-precision rounding floor, so it
runs in exact integer arithmetic over one common denominator; the quadrature
route writes the theta_3-weighted integral of H_m H_n^* as a finite sum over
their Fourier coefficients, which the three-term recurrence builds in
Python-integer fixed point, QUADRATURE_DPS digits below the largest term; it
sums them exactly, for the same reason.  Its tables are built from integers
alone.
"""

from __future__ import annotations

import math
from functools import lru_cache
from operator import mul

from .qseries import QParam, qfactorial

#: decimal digits the quadrature orthogonality route keeps below the largest
#: term of its integrand; its fixed-point scale, (QUADRATURE_DPS + 1) log2(10)
#: bits rounded, grows with n and mu from this
QUADRATURE_DPS = 35
#: bits added to that scale to absorb the rounding of the H recurrence; the
#: constants rounded onto it are built this many bits wider still, plus room
#: for the error growth of the weights' recurrence
_QUAD_GUARD_BITS = 20


def carlitz_double_sum(m: int, n: int, qp: QParam) -> float:
    """I_mn as the explicit double sum

        sum_{r<=m, s<=n} (-1)^{r+s} [m r]_q [n s]_q q^{r(r-1)/2 + s(s-1)/2 - rs}.

    Off the diagonal the terms (of size up to q^{-min(m,n)}) cancel exactly,
    which double precision cannot reproduce below ~1e-7 absolute at q = 0.1;
    the sum therefore runs in exact integer arithmetic over one common
    denominator, on the binary value q = N / 2^b, and rounds once at the end.
    The Gaussian binomial rows are the integers G_{t,r} = [t r]_q 2^{b r(t-r)},
    built from A_k = 2^{bk} (1 - q^k) = 2^{bk} - N^k, and every term is an
    integer over N^P 2^{bQ}.
    """
    if m < 0 or n < 0:
        raise ValueError(f"m, n must be >= 0, got m={m}, n={n}")
    num, den = qp.q.as_integer_ratio()
    b = den.bit_length() - 1
    a_k = [0] + [den**k - num**k for k in range(1, max(m, n) + 1)]

    def binomial_row(top: int) -> list[int]:
        # G_{t,r+1} = G_{t,r} A_{t-r} / A_{r+1}, an exact integer division
        row = [1]
        for r in range(top):
            row.append(row[-1] * a_k[top - r] // a_k[r + 1])
        return row

    row_m = binomial_row(m)
    row_n = binomial_row(n)

    # term (r, s) is (-1)^{r+s} G_{m,r} G_{n,s} N^e / 2^{b d} with
    # e = r(r-1)/2 + s(s-1)/2 - rs and d = r(m-r) + s(n-s) + e
    terms = []
    for r in range(m + 1):
        for s in range(n + 1):
            e = (r * (r - 1) + s * (s - 1)) // 2 - r * s
            terms.append(((r + s) & 1, row_m[r] * row_n[s], e, r * (m - r) + s * (n - s) + e))
    p_exp = -min(e for _, _, e, _ in terms)
    q_exp = max(d for _, _, _, d in terms)
    num_pow = [1]
    for _ in range(p_exp + max(e for _, _, e, _ in terms)):
        num_pow.append(num_pow[-1] * num)
    total = 0
    for odd, g, e, d in terms:
        term = g * num_pow[e + p_exp] << b * (q_exp - d)
        total += -term if odd else term
    try:
        # int / int rounds correctly, so the only rounding is this one
        return total / (num_pow[p_exp] << b * q_exp)
    except OverflowError:
        raise OverflowError(
            f"Carlitz double sum I_mn overflows double precision at m={m}, n={n}, q={qp.q}"
        ) from None


def carlitz_closed_form(m: int, n: int, qp: QParam) -> float:
    """I_mn in closed form: q^{-n} (q;q)_n on the diagonal, 0 elsewhere.

    q^{-n} is the integer power of q itself (one rounding; OverflowError
    past double range), not exp(2 mu n), whose error grows like n |ln q| ulp.
    """
    if m < 0 or n < 0:
        raise ValueError(f"m, n must be >= 0, got m={m}, n={n}")
    if m != n:
        return 0.0
    try:
        inv_power = qp.q ** -n
    except OverflowError:
        raise OverflowError(
            f"Carlitz diagonal q^-n overflows double precision at n={n}, q={qp.q}"
        ) from None
    return qfactorial(n, qp) * inv_power


def _round_shift(x: int, bits: int) -> int:
    """x / 2^bits rounded to the nearest integer, ties to even; exact for bits <= 0."""
    if bits <= 0:
        return x << -bits
    r = x >> bits
    rem, half = x - (r << bits), 1 << (bits - 1)
    return r + (rem > half or (rem == half and r & 1))


def _quad_scale(q: float, n_top: int) -> int:
    """The scale 2^frac of the quadrature tables for the rows H_0..H_{n_top}.

    The Gaussian binomials satisfy 0 <= [j r]_q <= C(j, r), so the
    coefficients h_j[r] = (-1)^r [j r]_q e^{mu r} of H_j on its circle
    (_mp_quad_tables) have sum_r |h_j[r]| <= (1 + e^mu)^j, and the weights
    e^{-mu d^2} over |d| <= n_top sum to at most 1 + sqrt(pi/mu): frac keeps
    QUADRATURE_DPS digits below that largest integrand term.  The integral
    cancels from there down to I_nn = (q;q)_n q^{-n} >= (q;q)_{n_top}, so
    frac also holds -log2 (q;q)_{n_top} more bits, summed as logs so that
    nothing underflows.
    """
    mu = -math.log(q) / 2.0
    return (
        round((QUADRATURE_DPS + 1) * math.log2(10))
        + math.ceil(
            2 * n_top * math.log2(1.0 + math.exp(mu)) + math.log2(1.0 + math.sqrt(math.pi / mu))
        )
        + math.ceil(-sum(math.log2(1.0 - q**j) for j in range(1, n_top + 1)))
        + _QUAD_GUARD_BITS
    )


@lru_cache(maxsize=16)
def _mp_quad_tables(q: float, n_top: int):
    """The theta_3 weights and the Fourier coefficients of H_0..H_{n_top} on
    the circle y = -e^{mu + i theta}, in exact fixed point.

    Returns (frac, weights, rows) of integers round(x * 2^frac), frac from
    _quad_scale: weights[d] = e^{-mu d^2} for d = 0..n_top, and rows[j][r] =
    h_j[r], r = 0..j, with H_j(y) = sum_r h_j[r] e^{i r theta}.  The rows come
    from H_{j+1} = (1 + y) H_j - (1 - q^j) y H_{j-1}, where y shifts a row up
    one place and scales it by -e^mu, with y H_j kept at scale 2^{2 frac}:

        h_{j+1}[r] = h_j[r] - e^mu h_j[r-1] + (1 - q^j) e^mu h_{j-1}[r-1].

    Not being the product formula's Gaussian binomials, they keep this route
    independent of Carlitz's.  The constants are built from the binary value
    q = N / 2^b at a wider scale 2^wide and rounded once onto 2^frac:
    1 - q^j = (2^{bj} - N^j) / 2^{bj} exactly, e^mu = q^{-1/2} and sqrt(q) by
    isqrt, and e^{-mu d^2} = sqrt(q)^{d^2} by T(d+1) = T(d) sqrt(q)^{2d+1}.
    Cached per (q, basis bucket).  The name keeps its mp (multi-precision)
    prefix because perfbench/tracer.py binds this cache by name, as the
    qps.wigner attribute _mp_quad_tables.
    """
    frac = _quad_scale(q, n_top)
    # the weight recurrence's rounding error grows like n_top^2 units of 2^-wide
    guard = _QUAD_GUARD_BITS + 2 * n_top.bit_length()
    wide = frac + guard
    num, den = q.as_integer_ratio()
    b = den.bit_length() - 1

    e_mu = _round_shift(math.isqrt((1 << (b + 2 * wide)) // num), guard)
    one_minus_qj = [_round_shift((den**j - num**j) << frac, b * j) for j in range(n_top)]
    half_unit = 1 << (wide - 1)
    s = math.isqrt((num << 2 * wide) >> b)
    s2 = (s * s + half_unit) >> wide
    t_pow, step = 1 << wide, s
    weights = []
    for _ in range(n_top + 1):
        weights.append(_round_shift(t_pow, guard))
        t_pow = (t_pow * step + half_unit) >> wide
        step = (step * s2 + half_unit) >> wide

    h, yh = [1 << frac], [0]
    rows = [h]
    for c_j in one_minus_qj:
        prev = yh + [0]
        yh = [0] + [-e_mu * x for x in h]
        h = [((x << frac) + u - ((c_j * v) >> frac)) >> frac for x, u, v in zip(h + [0], yh, prev)]
        rows.append(h)
    return frac, weights, tuple(rows)


def orthogonality_quadrature(m: int, n: int, qp: QParam) -> float:
    """I_mn = integral of theta_3 H_m H_n^* d(theta)/(2 pi), which with
    y = -e^{mu + i theta} and H_j(y) = sum_r h_j[r] e^{i r theta} is exactly
    the finite sum

        sum_{r,s} h_m[r] h_n[s] e^{-mu (r-s)^2}

    over the table of the smallest multiple n_top of 8 that holds
    H_max(m, n) (_mp_quad_tables).  The off-diagonal integral cancels values
    of size ~q^{-(m+n)/2}, so the sum runs on the exact fixed-point tables:
    an integer sum, rounded once to a float and symmetric in (m, n) bitwise.
    OverflowError names m, n and q past double range.  The name says
    quadrature because perfbench/tracer.py binds it, as a qps.wigner
    attribute, and qps exports it.
    """
    if m < 0 or n < 0:
        raise ValueError(f"m, n must be >= 0, got m={m}, n={n}")
    n_top = 8 * max(1, -(-max(m, n) // 8))
    frac, weights, rows = _mp_quad_tables(qp.q, n_top)
    h_m, h_n = rows[m], rows[n]
    total = weights[0] * sum(map(mul, h_m, h_n))
    for d in range(1, max(m, n) + 1):
        total += weights[d] * (sum(map(mul, h_m, h_n[d:])) + sum(map(mul, h_m[d:], h_n)))
    try:
        # int / int rounds correctly, so the only rounding is this one
        return total / (1 << 3 * frac)
    except OverflowError:
        raise OverflowError(
            f"quadrature I_mn overflows double precision at m={m}, n={n}, q={qp.q}"
        ) from None
