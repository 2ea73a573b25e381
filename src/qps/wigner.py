"""Weyl-Wigner mapped quantities on the action-angle phase space (m, theta).

The Wigner function of the number-state projector |n><n| in the
Rogers-Szego realization is the triple sum

    O_n(m, theta) = 1/(q;q)_n * sum_t e^{-mu t^2 + i t theta}
                    * sum_{r,s} a_r a_s e^{i theta (r-s)} * K(m; t, r, s)

over the Rogers-Szego row a_r = (-1)^r [n r]_q q^{(n-r)/2} (rspoly._rs_row),
with m integer and the t-sum truncated by its Gaussian weight.  Its angle
marginal is theta_3(theta) |R_n(theta)|^2 and its action marginal is the
Kronecker delta on the state index.

The transform places the theta_3 weight at a shifted argument, and the two
possible shift signs produce sinc kernels centered at (t+r+s)/2 and
(r+s-t)/2 whose assembled sums are exact complex conjugates: their shared
real part is the Wigner function, while either one-sided choice alone
keeps an O(1) imaginary part for n >= 1.  wigner_grid therefore uses the
shift-averaged kernel

    K(m; t, r, s) = [sinc((m-(t+r+s)/2) pi) + sinc((m-(r+s-t)/2) pi)] / 2,

which is even in t, pairs every term with its conjugate, and leaves both
marginals, the n = 0 case, and all closed forms unchanged.  It makes the
frequency slices f and -f of the sum hold the same addends, so the result
is real by construction and no imaginary residue is left to check.

Production code assembles the sum once, as a folded cosine spectrum in theta
(_wigner_spectrum) over the slices f >= 0 alone, with tol setting only the
Gaussian cut of the t-sum, and the theta-resolved quantities are views on it:
wigner_grid sums its cosine series at each angle of a sequence (O(K + F)
memory for K angles and F frequencies), and angle_distribution_from_wigner
swaps the sinc kernel for its summed action window.  action_distribution
sums only the finite f = 0 slice, directly.  Angles are plain sequences of
floats, usually the tuple phase_grid(K); angle_distribution is angle_table
at one angle.  Results are plain floats: wigner_grid, angle_table and
action_table return a tuple, one value per angle or per m.
Each frequency slice of the spectrum is summed exactly by one math.fsum, and
so are the rounded products amp_f cos(f theta) of each cosine series.  The
raw one-sided sums in wigner_one_sided are the independent loop that
verification compares against.

Orthogonality of the polynomial family is exposed through three
independent routes (Carlitz double sum, closed form, theta_3-weighted
quadrature).  The double sum cancels terms of size q^{-min(m,n)} down to
zero off the diagonal, far below the double-precision rounding floor, so it
runs in exact integer arithmetic over one common denominator; the quadrature
route writes the theta_3-weighted integral of H_m H_n^* as a finite sum over
their Fourier coefficients, which the three-term recurrence builds in
Python-integer fixed point, QUADRATURE_DPS digits below the largest term; it
sums them exactly, for the same reason.  Its tables are built from integers
alone.  Everything else is double precision, in Python floats; qps does not
use numpy.
"""

from __future__ import annotations

import cmath
import math
from collections.abc import Callable, Sequence
from functools import lru_cache, partial
from itertools import repeat
from operator import mul

from .qseries import QParam, _qbinomial_row, qfactorial
from .rspoly import _abs_squared_rows, _rs_row
from .theta import theta3

#: decimal digits the quadrature orthogonality route keeps below the largest
#: term of its integrand; its fixed-point scale, (QUADRATURE_DPS + 1) log2(10)
#: bits rounded, grows with n and mu from this
QUADRATURE_DPS = 35
#: bits added to that scale to absorb the rounding of the H recurrence; the
#: constants rounded onto it are built this many bits wider still, plus room
#: for the error growth of the weights' recurrence
_QUAD_GUARD_BITS = 20


def phase_grid(k_points: int) -> tuple[float, ...]:
    """Uniform angle grid theta_k = -pi + 2 pi k / K, k = 0..K-1.

    It covers [-pi, pi) exactly once; a sum over it weighted by 1/K
    implements the measure d(theta)/(2 pi).
    """
    if k_points < 2:
        raise ValueError(f"need at least 2 grid points, got {k_points}")
    return tuple(-math.pi + 2.0 * math.pi * k / k_points for k in range(k_points))


def sinc_kernel(m: int, c2: int) -> float:
    """sin((m - c) pi) / ((m - c) pi) for integer m and the centre c = c2/2.

    Evaluated by exact case analysis on d2 = 2(m - c): 1 at the removable
    singularity m = c, 0 for nonzero integer m - c, and
    (-1)^floor(m - c) / ((m - c) pi) on the half-odd lattice.  Never
    computed as a floating sin/x quotient, so delta structure is exact.
    """
    d2 = 2 * m - c2
    if d2 == 0:
        return 1.0
    if d2 % 2 == 0:
        return 0.0
    k = (d2 - 1) // 2
    sign = -1.0 if k & 1 else 1.0
    return sign * 2.0 / (d2 * math.pi)


# ---------------------------------------------------------------------------
# Carlitz orthogonality, three routes
# ---------------------------------------------------------------------------


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
    prefix because perfbench/tracer.py binds this cache by name.
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
    quadrature because perfbench/tracer.py binds it and qps exports it.
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


# ---------------------------------------------------------------------------
# Wigner function and marginals
# ---------------------------------------------------------------------------


def _t_cutoff(mu: float, tol: float) -> int:
    """Symmetric truncation bound for the Gaussian-weighted t-sum: one past
    the Fourier index t where theta_3's coefficient e^{-mu t^2} falls to tol.
    ln(1/tol) is taken as -ln(tol), since 1/tol overflows for a subnormal tol,
    and clamped at 0, since every coefficient is below a tol above 1."""
    return math.ceil(math.sqrt(max(0.0, -math.log(tol)) / mu)) + 1


def _wigner_weights(n: int, qp: QParam, ker_max: float) -> tuple[float, list[float]]:
    """1/(q;q)_n and the row a_r; OverflowError if the prefactor, or a_max^2 ker_max,
    which bounds every addend wt a_r a_s ker when |ker| <= ker_max, overflows."""
    q_fact = qfactorial(n, qp)
    # (q;q)_n underflows as q -> 1 at large n, before a_r a_s overflows
    pref = 1.0 / q_fact if q_fact else math.inf
    if not math.isfinite(pref):
        raise OverflowError(
            f"Wigner prefactor 1/(q;q)_n overflows double precision at n={n}, q={qp.q}"
        )
    a = _rs_row(n, qp)
    # a_r grows like a binomial coefficient as q -> 1
    a_max = max(map(abs, a))
    if not math.isfinite(a_max * a_max * ker_max):
        raise OverflowError(
            f"Wigner weight a_r a_s overflows double precision at n={n}, q={qp.q}"
        )
    return pref, a


def _wigner_spectrum(
    n: int, qp: QParam, tol: float, kernel: Callable[[int], float]
) -> tuple[float, tuple[int, ...], tuple[float, ...]]:
    """The (t, r, s) sum regrouped as a folded cosine series in theta.

    Returns (pref, freqs, amps) with O(theta) = pref * sum_i amps[i] cos(freqs[i] theta)
    over the integer frequencies |t + r - s|, sorted ascending; pref = 1/(q;q)_n
    and the (r, s) terms carry the weight a_r a_s.  kernel(c2) is the weight of
    a term whose sinc centre is c2/2; it is averaged over the two shift
    placements c2 = r+s+t and r+s-t, and is called once per c2 in
    [-t_cut, 2n + t_cut].  Each frequency slice f = t + r - s is assembled on
    its own and summed exactly by one math.fsum, so only one slice's addends
    are held at a time: for each t the pairs lie on the diagonal r - s = f - t,
    whose weights a_r a_{r-d} are built once per |d|.  The averaged kernel
    row of -t is the row of t with its two operands swapped, and e^{-mu t^2}
    is even, so slice -f holds exactly the addends of slice f: the spectrum
    is even by construction, only f >= 0 is summed, and each f > 0 slice
    counts twice.  tol only sets the Gaussian cut t_cut.  An addend bound
    past double range, or a prefactor 1/(q;q)_n past it, raises
    OverflowError (_wigner_weights).
    """
    t_cut = _t_cutoff(qp.mu, tol)
    # kernel(c2) is ker_table[c2 + t_cut]
    ker_table = [kernel(c2) for c2 in range(-t_cut, 2 * n + t_cut + 1)]
    pref, a = _wigner_weights(n, qp, float(max(map(abs, ker_table))))
    # b_i = a_{n-i}: pair i of diagonal d is (r, s) = (n-i-d, n-i) or its
    # mirror, both of weight b_{i+d} b_i (a_r a_s == a_s a_r bitwise), at
    # r + s = 2n - 2i - d.  Walking i up visits the large r + s first, where
    # |a_r| peaks at small q, so math.fsum's running partials stay few (a
    # fifth of the summing time at n = 153)
    b = a[::-1]
    diags = [list(map(mul, b[d:], b)) for d in range(n + 1)]
    wts, kers = [], []
    for t in range(-t_cut, t_cut + 1):
        wts.append(math.exp(-qp.mu * t * t))
        lo, hi = t_cut + t, t_cut - t
        row = [0.5 * (x + y) for x, y in zip(ker_table[lo : lo + 2 * n + 1],
                                             ker_table[hi : hi + 2 * n + 1])]
        # after the reversal the kernel of pair i of diagonal d is row[2i + d]
        row.reverse()
        kers.append(row)
    freqs, amps = [], []
    for f in range(n + t_cut + 1):
        parts = []
        for t in range(max(-t_cut, f - n), min(t_cut, f + n) + 1):
            d = abs(f - t)
            wt = wts[t + t_cut]
            ker = kers[t + t_cut][d::2]
            parts += [(wt * w) * k for w, k in zip(diags[d], ker) if k != 0.0]
        if parts:
            # slice -f is this slice bitwise; folding it on as (0.0 + x) + x
            # turns a -0.0 slice into +0.0
            x = 0.0 + math.fsum(parts)
            freqs.append(f)
            amps.append(x + x if f else x)
    return pref, tuple(freqs), tuple(amps)


def wigner_one_sided(
    n: int, m: int, theta: float, qp: QParam, tol: float = 1e-12, shift_sign: int = -1
) -> complex:
    """Raw one-sided map with the theta_3 weight at theta + shift_sign*t~/2.

    shift_sign=-1 centers the sinc kernel at (t+r+s)/2 and +1 at (r+s-t)/2.
    The two choices assemble to exact complex conjugates whose common real
    part is the Wigner function; the full complex value is returned without
    a residue check.  Verification path only, unused in production.
    """
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    if not 0.0 < tol < math.inf:
        raise ValueError(f"tol must be positive and finite, got {tol}")
    if shift_sign not in (-1, 1):
        raise ValueError(f"shift_sign must be -1 or +1, got {shift_sign}")
    t_cut = _t_cutoff(qp.mu, tol)
    row = _qbinomial_row(n, qp)
    pref = qp.qpow(n) / qfactorial(n, qp)
    boost = [qp.qpow(-r / 2.0) for r in range(n + 1)]
    total = 0j
    for t in range(-t_cut, t_cut + 1):
        wt = math.exp(-qp.mu * t * t)
        inner = 0j
        for r in range(n + 1):
            for s in range(n + 1):
                ker = sinc_kernel(m, r + s - shift_sign * t)
                if ker == 0.0:
                    continue
                sign = -1.0 if (r + s) & 1 else 1.0
                inner += (
                    sign * row[r] * row[s] * boost[r] * boost[s] * ker
                    * cmath.exp(1j * theta * (r - s))
                )
        total += wt * cmath.exp(1j * t * theta) * inner
    return pref * total


def _cosine_series(freqs: Sequence[int], amps: Sequence[float], theta: float) -> float:
    """sum_i amps[i] cos(freqs[i] theta), each product rounded once and summed exactly."""
    return math.fsum(map(mul, amps, map(math.cos, map(mul, repeat(theta), freqs))))


def wigner_grid(
    n: int, m: int, qp: QParam, thetas: Sequence[float], tol: float = 1e-12
) -> tuple[float, ...]:
    """O_n(m, theta) at each angle of thetas: one spectrum pass, then the
    F-term cosine series summed at each angle, instead of K independent
    triple sums.

    Each sample is pref * math.fsum(amp_f cos(f theta)), so memory is
    O(K + F) for K angles and F frequencies.
    """
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    if not 0.0 < tol < math.inf:
        raise ValueError(f"tol must be positive and finite, got {tol}")
    pref, freqs, amps = _wigner_spectrum(n, qp, tol, partial(sinc_kernel, m))
    return tuple(pref * _cosine_series(freqs, amps, theta) for theta in thetas)


def action_distribution(n: int, m: int, qp: QParam) -> float:
    """Action marginal Lambda^(n)(m) = delta_{m,n}, the exact angle integral
    of the Wigner function with weight d(theta)/(2 pi).

    Only the frequency f = t + r - s = 0 survives, so t = s - r and the t-sum
    is finite; the sinc centres s and r are integers, so the kernel is
    (delta_{m,s} + delta_{m,r})/2.  That leaves, in O(n) and without a grid,

        Lambda(m) = 1/(q;q)_n * [a_m^2 + sum_{r != m} e^{-mu (m-r)^2} a_r a_m],

    each cross term added as its (r, m) and (m, r) halves by math.fsum: the
    spectrum's f = 0 slice, bit for bit.  Zero for m outside [0, n].
    """
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    pref, a = _wigner_weights(n, qp, 1.0)
    if not 0 <= m <= n:
        return 0.0
    a_m = a[m]
    terms = [a_m * a_m]
    for r, a_r in enumerate(a):
        if r != m:
            half = (math.exp(-qp.mu * (m - r) * (m - r)) * (a_r * a_m)) * 0.5
            terms += (half, half)
    return pref * math.fsum(terms)


def angle_distribution(n: int, theta: float, qp: QParam, tol: float = 1e-12) -> float:
    """Angle marginal Omega^(n)(theta) = theta_3(theta) |R_n(theta)|^2:
    angle_table at the one angle theta, so OverflowError if it is not finite.

    Positive in exact arithmetic: theta_3 > 0 and the Rogers-Szego zeros sit
    on the unit circle while |y| = q^{-1/2} > 1 on the evaluation circle.  In
    double precision theta_3 underflows to 0.0 far from theta = 0 as q -> 1,
    and Omega with it (0.0 at q = 0.9999, n = 100, theta = 2.0).
    """
    return angle_table(n, qp, (theta,), tol)[0]


def angle_distribution_from_wigner(
    n: int, theta: float, qp: QParam, m_cut: int, tol: float = 1e-12
) -> float:
    """Angle marginal by summing the Wigner function over m in [-m_cut, m_cut].

    The spectrum's sinc kernel is swapped for its window sum over m of
    sinc((m - c) pi), one math.fsum per centre c.  Around each half-odd
    centre c the window holds the symmetric pairs
    m = c +- (k + 1/2) plus the boundary singles of the longer side; the two
    alternating tail errors then cancel in leading order, leaving an
    O(1/m_cut^2) residual against angle_distribution.  Integer centres
    inside the window contribute exactly 1.  tol only sets the Gaussian cut
    of the t-sum.
    """
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    if m_cut < n + 10:
        raise ValueError(f"m_cut must be >= n + 10, got m_cut={m_cut}, n={n}")
    if not 0.0 < tol < math.inf:
        raise ValueError(f"tol must be positive and finite, got {tol}")

    def window(c2: int) -> float:
        return math.fsum(sinc_kernel(m, c2) for m in range(-m_cut, m_cut + 1))

    pref, freqs, amps = _wigner_spectrum(n, qp, tol, window)
    return pref * _cosine_series(freqs, amps, theta)


def circular_variance(values: Sequence[float], thetas: Sequence[float]) -> float:
    """Circular variance 1 - |<e^{i theta}>| of a density sampled on the uniform
    grid thetas (phase_grid); smaller means a narrower angle distribution."""
    if len(values) != len(thetas) or len(thetas) == 0:
        raise ValueError(
            f"need one value per angle and at least one angle, got {len(values)} values "
            f"and {len(thetas)} angles"
        )
    weight = 1.0 / len(thetas)
    total = weight * math.fsum(values)
    resultant = weight * complex(
        math.fsum(map(mul, values, map(math.cos, thetas))),
        math.fsum(map(mul, values, map(math.sin, thetas))),
    )
    return 1.0 - abs(resultant) / total


def _angle_columns(
    ns: Sequence[int], qp: QParam, thetas: Sequence[float], tol: float
) -> list[tuple[float, ...]]:
    """Omega^(n) = theta_3 |R_n|^2 at each angle of thetas for each n of ns, for
    angle_table and verify's angle check: theta_3 once per angle, |R_n|^2 from
    _abs_squared_rows, the evaluator `qps poly` reads too.  OverflowError names
    the first n whose column is not finite."""
    for n in ns:
        if n < 0:
            raise ValueError(f"n must be >= 0, got {n}")
    weights = [theta3(th, qp, tol).value for th in thetas]
    columns = [tuple(map(mul, weights, row)) for row in _abs_squared_rows(ns, thetas, qp)]
    for n, column in zip(ns, columns):
        if not all(map(math.isfinite, column)):
            raise OverflowError(
                f"angle marginal Omega^(n) is not finite in double precision at n={n}, q={qp.q}"
            )
    return columns


def angle_table(
    n: int, qp: QParam, thetas: Sequence[float], tol: float = 1e-12
) -> tuple[float, ...]:
    """Omega^(n) at each angle of thetas; OverflowError if any sample is not
    finite."""
    return _angle_columns((n,), qp, thetas, tol)[0]


def action_table(n: int, m_lo: int, m_hi: int, qp: QParam) -> tuple[float, ...]:
    """Lambda^(n)(m) for m = m_lo .. m_hi."""
    if m_hi < m_lo:
        raise ValueError(f"empty m range [{m_lo}, {m_hi}]")
    return tuple(action_distribution(n, m, qp) for m in range(m_lo, m_hi + 1))
