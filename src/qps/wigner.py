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
keeps an O(1) imaginary part for n >= 1.  wigner_eval therefore uses the
shift-averaged kernel

    K(m; t, r, s) = [sinc((m-(t+r+s)/2) pi) + sinc((m-(r+s-t)/2) pi)] / 2,

which is even in t, pairs every term with its conjugate, and leaves both
marginals, the n = 0 case, and all closed forms unchanged.

Production code assembles the sum once, as a folded cosine spectrum in
theta (_wigner_spectrum), and every Wigner quantity is a view on it:
wigner_eval evaluates it at one angle, wigner_grid applies a cosine matrix,
action_distribution reads the trapezoid sum off the frequencies that the
grid aliases onto the mean, and angle_distribution_from_wigner swaps the
sinc kernel for its summed action window.  The raw one-sided sums in
wigner_one_sided are the independent loop that verification compares
against.

Orthogonality of the polynomial family is exposed through three
independent routes (Carlitz double sum, closed form, theta_3-weighted
quadrature).  The double sum cancels terms of size q^{-min(m,n)} down to
zero off the diagonal, far below the double-precision rounding floor, so it
runs in exact rational arithmetic; the quadrature route runs in extended
precision for the same reason.  Everything else is double precision.
"""

from __future__ import annotations

import cmath
import enum
import math
import warnings
from collections.abc import Callable
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import mpmath as mp
import numpy as np

from .errors import ImaginaryResidueError, ResolutionWarning
from .qseries import QParam, _qbinomial_row, qfactorial
from .rspoly import _rs_row, rs_function
from .theta import theta3

#: working precision (decimal digits) for the quadrature orthogonality route
QUADRATURE_DPS = 35


@dataclass(frozen=True, eq=False)
class PhaseGrid:
    """Uniform angle grid theta_k = -pi + 2 pi k / K with weights 1/K.

    The weighted sum over the grid implements the measure d(theta)/(2 pi);
    the weights sum to 1 and the grid covers [-pi, pi) exactly once.
    """

    points: np.ndarray
    weight: float

    @classmethod
    def uniform(cls, k_points: int) -> "PhaseGrid":
        if k_points < 2:
            raise ValueError(f"need at least 2 grid points, got {k_points}")
        k = np.arange(k_points)
        return cls(-math.pi + 2.0 * math.pi * k / k_points, 1.0 / k_points)

    @property
    def k_points(self) -> int:
        return len(self.points)


@dataclass(frozen=True)
class WignerValue:
    """One Wigner-function sample; the assembled value is real by construction."""

    n: int
    m: int
    theta: float
    value: float


class DistributionKind(enum.Enum):
    ANGLE = "angle"
    ACTION = "action"


@dataclass(frozen=True, eq=False)
class DistributionTable:
    """A marginal distribution sampled over its support, plus run metadata."""

    kind: DistributionKind
    n: int
    qp: QParam
    support: np.ndarray
    values: np.ndarray
    metadata: dict

    def to_dict(self) -> dict:
        return {
            "kind": self.kind.value,
            "n": self.n,
            "q": self.qp.q,
            "mu": self.qp.mu,
            "support": [float(x) for x in self.support],
            "values": [float(v) for v in self.values],
            "metadata": dict(self.metadata),
        }


def sinc_kernel(m: int, c: float) -> float:
    """sin((m - c) pi) / ((m - c) pi) for integer m and half-integer c.

    Evaluated by exact case analysis on 2(m - c): 1 at the removable
    singularity m = c, 0 for nonzero integer m - c, and
    (-1)^floor(m - c) / ((m - c) pi) on the half-odd lattice.  Never
    computed as a floating sin/x quotient, so delta structure is exact.
    """
    c2 = round(2.0 * c)
    if abs(2.0 * c - c2) > 1e-12:
        raise ValueError(f"c must be an integer or half-integer, got {c}")
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
    the sum therefore runs in exact rational arithmetic on the binary value
    of q and rounds once at the end.
    """
    if m < 0 or n < 0:
        raise ValueError(f"m, n must be >= 0, got m={m}, n={n}")
    qf = Fraction(qp.q)
    one = Fraction(1)

    one_minus_qk = {}
    pk = one
    for k in range(1, max(m, n) + 1):
        pk *= qf
        one_minus_qk[k] = one - pk

    def binomial_row(top: int) -> list[Fraction]:
        row = [one]
        for r in range(top):
            row.append(row[-1] * one_minus_qk[top - r] / one_minus_qk[r + 1])
        return row

    row_m = binomial_row(m)
    row_n = binomial_row(n)

    pow_cache = {0: one}

    def qpow(e: int) -> Fraction:
        v = pow_cache.get(e)
        if v is None:
            v = qpow(e - 1) * qf if e > 0 else qpow(e + 1) / qf
            pow_cache[e] = v
        return v

    total = Fraction(0)
    for r in range(m + 1):
        base = r * (r - 1) // 2
        for s in range(n + 1):
            term = row_m[r] * row_n[s] * qpow(base + s * (s - 1) // 2 - r * s)
            total += -term if (r + s) & 1 else term
    return float(total)


def carlitz_closed_form(m: int, n: int, qp: QParam) -> float:
    """I_mn in closed form: q^{-n} (q;q)_n on the diagonal, 0 elsewhere."""
    if m < 0 or n < 0:
        raise ValueError(f"m, n must be >= 0, got m={m}, n={n}")
    if m != n:
        return 0.0
    return qfactorial(n, qp) * qp.qpow(-n)


@lru_cache(maxsize=16)
def _mp_quad_tables(q: float, k_points: int, n_top: int):
    """theta_3 samples and H_0..H_{n_top} rows over the uniform grid, in
    extended precision.  Cached per (q, grid size, basis bucket)."""
    with mp.workdps(QUADRATURE_DPS):
        qm = mp.mpf(q)
        mu = -mp.log(qm) / 2
        thetas = [2 * mp.pi * k / k_points - mp.pi for k in range(k_points)]
        if mu < 1:
            # Gaussian-sum representation: a handful of terms at any precision
            n_cut = int(mp.ceil((mp.sqrt(4 * mu * (QUADRATURE_DPS + 5) * mp.log(10)) + mp.pi) / (2 * mp.pi))) + 1
            pref = mp.sqrt(mp.pi / mu)
            theta_row = tuple(
                pref * mp.fsum(
                    mp.exp(-((th - 2 * mp.pi * g) ** 2) / (4 * mu))
                    for g in range(-n_cut, n_cut + 1)
                )
                for th in thetas
            )
        else:
            t_cut = int(mp.ceil(mp.sqrt((QUADRATURE_DPS + 5) * mp.log(10) / mu))) + 2
            theta_row = tuple(
                1 + 2 * mp.fsum(mp.exp(-mu * t * t) * mp.cos(t * th) for t in range(1, t_cut + 1))
                for th in thetas
            )
        ys = [-mp.exp(mu + 1j * th) for th in thetas]
        rows = [tuple(mp.mpc(1) for _ in range(k_points))]
        if n_top >= 1:
            rows.append(tuple(1 + y for y in ys))
        for j in range(1, n_top):
            cj = 1 - qm**j
            rows.append(
                tuple((1 + y) * h1 - cj * y * h0 for y, h1, h0 in zip(ys, rows[-1], rows[-2]))
            )
        return theta_row, tuple(rows)


def orthogonality_quadrature(
    m: int, n: int, qp: QParam, grid: PhaseGrid, tol: float = 1e-12
) -> float:
    """I_mn by trapezoidal quadrature of H_m H_n^* theta_3 over the grid.

    The integrand is periodic and band-limited up to m + n plus the theta_3
    bandwidth at tol, so the uniform trapezoid rule converges spectrally; a
    ResolutionWarning fires when the grid cannot resolve that bandwidth.
    Internally the integrand is evaluated in extended precision because the
    off-diagonal integral cancels values of size ~q^{-(m+n)/2}.
    """
    if m < 0 or n < 0:
        raise ValueError(f"m, n must be >= 0, got m={m}, n={n}")
    if not (tol > 0.0):
        raise ValueError(f"tol must be positive, got {tol}")
    k_points = grid.k_points
    bandwidth = m + n + math.ceil(math.sqrt(math.log(1.0 / tol) / qp.mu))
    if bandwidth > k_points // 2 - 1:
        warnings.warn(
            f"{k_points}-point grid cannot resolve estimated Fourier bandwidth "
            f"{bandwidth} for (m={m}, n={n}, q={qp.q})",
            ResolutionWarning,
            stacklevel=2,
        )
    n_top = ((max(m, n) // 8) + 1) * 8
    theta_row, h_rows = _mp_quad_tables(qp.q, k_points, n_top)
    with mp.workdps(QUADRATURE_DPS):
        acc = mp.fsum(
            (h_rows[m][k] * mp.conj(h_rows[n][k]) * theta_row[k] for k in range(k_points)),
            absolute=False,
        )
        return float(mp.re(acc)) / k_points


# ---------------------------------------------------------------------------
# Wigner function and marginals
# ---------------------------------------------------------------------------


def _t_cutoff(mu: float, tol: float) -> int:
    """Symmetric truncation bound for the Gaussian-weighted t-sum."""
    return math.ceil(math.sqrt(math.log(1.0 / tol) / mu)) + 1


def _wigner_spectrum(
    n: int, qp: QParam, tol: float, kernel: Callable[[int], float]
) -> tuple[float, np.ndarray, np.ndarray]:
    """The (t, r, s) sum regrouped as a folded cosine series in theta.

    Returns (pref, freqs, amps) with O(theta) = pref * sum_i amps[i] cos(freqs[i] theta)
    over the integer frequencies |t + r - s|, sorted ascending; pref = 1/(q;q)_n
    and the (r, s) terms carry the weight a_r a_s.  kernel(c2) is the weight of
    a term whose sinc centre is c2/2; it is averaged over the two shift
    placements c2 = r+s+t and r+s-t, and as it depends on (r, s) only through
    r+s it is tabulated once per t.  Each frequency slice is summed exactly:
    the +f and -f slices hold the same addend multiset, so the unfolded
    spectrum is even in f bitwise unless the kernel structure is broken, and
    an odd part at or above tol raises ImaginaryResidueError.  A non-finite
    addend raises OverflowError.
    """
    t_cut = _t_cutoff(qp.mu, tol)
    a = _rs_row(n, qp)
    pref = 1.0 / qfactorial(n, qp)
    # a_r a_s == a_s a_r bitwise, so the (-t, s, r) partner addend is identical
    weight = [[a[r] * a[s] for s in range(n + 1)] for r in range(n + 1)]
    # wt and the kernel are bounded by ~1, so a finite weight keeps every
    # addend finite; a_r itself grows like a binomial coefficient as q -> 1
    if not all(math.isfinite(w) for w_row in weight for w in w_row):
        raise OverflowError(
            f"Wigner weight a_r a_s overflows double precision at n={n}, q={qp.q}"
        )
    slices: dict[int, list[float]] = {}
    for t in range(-t_cut, t_cut + 1):
        wt = math.exp(-qp.mu * t * t)
        ker_by_sum = [0.5 * (kernel(t + j) + kernel(j - t)) for j in range(2 * n + 1)]
        for r in range(n + 1):
            for s in range(n + 1):
                ker = ker_by_sum[r + s]
                if ker == 0.0:
                    continue
                slices.setdefault(t + r - s, []).append(wt * weight[r][s] * ker)
    amp = {f: math.fsum(parts) for f, parts in slices.items()}
    residue = pref * max((abs(amp[f] - amp.get(-f, 0.0)) for f in amp), default=0.0)
    if residue >= tol:
        raise ImaginaryResidueError("wigner_spectrum", residue, tol)
    folded: dict[int, float] = {}
    for f, a in amp.items():
        folded[abs(f)] = folded.get(abs(f), 0.0) + a
    freqs = np.array(sorted(folded), dtype=int)
    amps = np.array([folded[f] for f in sorted(folded)], dtype=float)
    return pref, freqs, amps


def _sinc_at(m: int) -> Callable[[int], float]:
    """Spectrum kernel of the single action value m."""
    return lambda c2: sinc_kernel(m, c2 / 2.0)


def wigner_eval(n: int, m: int, theta: float, qp: QParam, tol: float = 1e-12) -> WignerValue:
    """O_n(m, theta) with the t-sum truncated at exp(-mu t^2) ~ tol.

    The shift-averaged kernel pairs every term with its conjugate, so the
    assembled value must be real up to truncation and rounding; an imaginary
    residue at or above tol raises ImaginaryResidueError (an implementation
    check, not a data condition), and the residue is discarded otherwise.
    """
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    if not (tol > 0.0):
        raise ValueError(f"tol must be positive, got {tol}")
    pref, freqs, amps = _wigner_spectrum(n, qp, tol, _sinc_at(m))
    return WignerValue(n, m, theta, pref * float(np.cos(theta * freqs) @ amps))


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
    if not (tol > 0.0):
        raise ValueError(f"tol must be positive, got {tol}")
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
                ker = sinc_kernel(m, (r + s - shift_sign * t) / 2.0)
                if ker == 0.0:
                    continue
                sign = -1.0 if (r + s) & 1 else 1.0
                inner += (
                    sign * row[r] * row[s] * boost[r] * boost[s] * ker
                    * cmath.exp(1j * theta * (r - s))
                )
        total += wt * cmath.exp(1j * t * theta) * inner
    return pref * total


def wigner_grid(n: int, m: int, qp: QParam, grid: PhaseGrid, tol: float = 1e-12) -> np.ndarray:
    """O_n(m, theta_k) over a full phase grid: one spectrum pass plus a
    K x F cosine matrix apply instead of K independent triple sums."""
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    if not (tol > 0.0):
        raise ValueError(f"tol must be positive, got {tol}")
    pref, freqs, amps = _wigner_spectrum(n, qp, tol, _sinc_at(m))
    return pref * (np.cos(np.outer(grid.points, freqs)) @ amps)


def action_distribution(
    n: int, m: int, qp: QParam, grid: PhaseGrid, tol: float = 1e-8
) -> float:
    """Action marginal Lambda^(n)(m): the Wigner function integrated over the
    uniform angle grid with weight d(theta)/(2 pi); equals delta_{m,n} within tol.

    On theta_k = -pi + 2 pi k / K the trapezoid sum of cos(f theta) is
    (-1)^f when K divides f and 0 otherwise, so the grid sum is read off the
    spectrum without sampling it.  For max f < K only f = 0 survives and the
    result is the exact angle integral; otherwise the grid aliases higher
    frequencies onto the mean and a ResolutionWarning fires.
    """
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    if not (tol > 0.0):
        raise ValueError(f"tol must be positive, got {tol}")
    pref, freqs, amps = _wigner_spectrum(n, qp, tol, _sinc_at(m))
    k_points = grid.k_points
    if freqs.size and freqs[-1] >= k_points:
        warnings.warn(
            f"{k_points}-point grid aliases Wigner frequency {freqs[-1]} onto the "
            f"action marginal for (n={n}, q={qp.q})",
            ResolutionWarning,
            stacklevel=2,
        )
    return pref * math.fsum(
        -a if f & 1 else a for f, a in zip(freqs.tolist(), amps.tolist()) if f % k_points == 0
    )


def angle_distribution(n: int, theta: float, qp: QParam, tol: float = 1e-12) -> float:
    """Angle marginal Omega^(n)(theta) = theta_3(theta) |R_n(theta)|^2.

    Strictly positive: theta_3 > 0 and the Rogers-Szego zeros sit on the
    unit circle while |y| = q^{-1/2} > 1 on the evaluation circle.
    """
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    weight = theta3(theta, qp, tol).value
    r = rs_function(n, theta, qp)
    return weight * (r.real * r.real + r.imag * r.imag)


def _one_sided_partials(count: int) -> np.ndarray:
    """Partial sums P[j] = sum_{k<j} (-1)^k / ((k + 1/2) pi) (one tail of the
    half-odd sinc lattice; converges to 1/2)."""
    k = np.arange(count)
    terms = np.where(k % 2 == 0, 1.0, -1.0) / ((k + 0.5) * math.pi)
    out = np.empty(count + 1)
    out[0] = 0.0
    np.cumsum(terms, out=out[1:])
    return out


def angle_distribution_from_wigner(
    n: int, theta: float, qp: QParam, m_cut: int, tol: float = 1e-12
) -> float:
    """Angle marginal by summing the Wigner function over m in [-m_cut, m_cut].

    Around each half-odd sinc center c the window contributes the symmetric
    pairs m = c +- (k + 1/2) (combined via one-sided partial-sum tables)
    plus the boundary singles of the longer side; the two alternating tail
    errors then cancel in leading order, leaving an O(1/m_cut^2) residual
    against angle_distribution.  Integer centers inside the window
    contribute exactly 1.
    """
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    if m_cut < n + 10:
        raise ValueError(f"m_cut must be >= n + 10, got m_cut={m_cut}, n={n}")
    if not (tol > 0.0):
        raise ValueError(f"tol must be positive, got {tol}")
    partials = _one_sided_partials(m_cut + _t_cutoff(qp.mu, tol) + 2 * n + 4)

    def window(c2: int) -> float:
        # sum over m in [-m_cut, m_cut] of sinc((m - c2/2) pi)
        if c2 % 2 == 0:
            return 1.0 if abs(c2 // 2) <= m_cut else 0.0
        k_right = m_cut - (c2 - 1) // 2
        k_left = m_cut + (c2 + 1) // 2
        return (partials[k_right] if k_right > 0 else 0.0) + (
            partials[k_left] if k_left > 0 else 0.0
        )

    pref, freqs, amps = _wigner_spectrum(n, qp, tol, window)
    return pref * float(np.cos(theta * freqs) @ amps)


def circular_variance(values: np.ndarray, grid: PhaseGrid) -> float:
    """Circular variance 1 - |<e^{i theta}>| of a density sampled on the grid;
    smaller means a narrower angle distribution."""
    total = grid.weight * float(np.sum(values))
    resultant = grid.weight * complex(np.sum(values * np.exp(1j * grid.points)))
    return 1.0 - abs(resultant) / total


def angle_table(n: int, qp: QParam, grid: PhaseGrid, tol: float = 1e-12) -> DistributionTable:
    """Omega^(n) sampled over the grid as a DistributionTable."""
    values = np.array([angle_distribution(n, th, qp, tol) for th in grid.points])
    meta = {"tol": tol, "grid_points": grid.k_points}
    return DistributionTable(DistributionKind.ANGLE, n, qp, grid.points, values, meta)


def action_table(
    n: int, m_lo: int, m_hi: int, qp: QParam, grid: PhaseGrid, tol: float = 1e-8
) -> DistributionTable:
    """Lambda^(n)(m) for m in [m_lo, m_hi] as a DistributionTable."""
    if m_hi < m_lo:
        raise ValueError(f"empty m range [{m_lo}, {m_hi}]")
    support = np.arange(m_lo, m_hi + 1)
    values = np.array([action_distribution(n, int(m), qp, grid, tol) for m in support])
    meta = {"tol": tol, "grid_points": grid.k_points, "t_cutoff": _t_cutoff(qp.mu, tol)}
    return DistributionTable(DistributionKind.ACTION, n, qp, support, values, meta)
