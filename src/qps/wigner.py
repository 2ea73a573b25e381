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

Everything here is double precision, in Python floats; qps does not use
numpy.  The exact orthogonality routes live in qps.orthogonality.
"""

from __future__ import annotations

import cmath
import math
from collections.abc import Callable, Sequence
from functools import partial
from itertools import repeat
from operator import mul

from . import orthogonality as _orthogonality
from .qseries import QParam, _qbinomial_row, qfactorial
from .rspoly import _abs_squared_rows, _rs_row
from .theta import theta3

# perfbench/tracer.py (TARGETS, CACHES) is the only reader of these three
# qps.wigner bindings; the benchmark change that binds qps.orthogonality
# deletes them
carlitz_double_sum = _orthogonality.carlitz_double_sum
orthogonality_quadrature = _orthogonality.orthogonality_quadrature
_mp_quad_tables = _orthogonality._mp_quad_tables


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
    grid thetas (phase_grid); smaller means a narrower angle distribution.
    ValueError if the lengths differ or are 0, or if the total mass is 0."""
    if len(values) != len(thetas) or len(thetas) == 0:
        raise ValueError(
            f"need one value per angle and at least one angle, got {len(values)} values "
            f"and {len(thetas)} angles"
        )
    weight = 1.0 / len(thetas)
    total = weight * math.fsum(values)
    if total == 0.0:
        raise ValueError(f"the density's total mass is {total}, so its mean angle is undefined")
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
