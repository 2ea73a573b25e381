"""The Wigner spectrum against the scalar t/r/s loop it replaced, compared
bitwise; the grid's cosine apply against a 40-digit mpmath evaluation; and
the action marginal against the spectrum's f = 0 row, bitwise."""

import math
import sys
import tracemalloc
from functools import partial

import pytest
from mpmath import mp

from qps import (
    QParam,
    action_distribution,
    angle_distribution_from_wigner,
    phase_grid,
    qfactorial,
    wigner_grid,
)
from qps import wigner
from qps.errors import ImaginaryResidueError
from qps.rspoly import _rs_row
from qps.wigner import _t_cutoff, _wigner_spectrum, sinc_kernel


def reference_spectrum(n, qp, tol, kernel):
    """The scalar (t, r, s) loop with a per-slice math.fsum, kept as the oracle
    that the slice-by-slice assembly must match byte for byte."""
    t_cut = _t_cutoff(qp.mu, tol)
    a = _rs_row(n, qp)
    pref = 1.0 / qfactorial(n, qp)
    weight = [[a[r] * a[s] for s in range(n + 1)] for r in range(n + 1)]
    slices = {}
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
    folded = {}
    for f, x in amp.items():
        folded[abs(f)] = folded.get(abs(f), 0.0) + x
    freqs = tuple(sorted(folded))
    return pref, freqs, tuple(folded[f] for f in freqs)


def assert_same_bytes(got, want):
    (pref, freqs, amps), (pref_ref, freqs_ref, amps_ref) = got, want
    assert pref.hex() == pref_ref.hex()
    assert freqs == freqs_ref
    assert all(type(f) is int for f in freqs)
    assert [a.hex() for a in amps] == [a.hex() for a in amps_ref]


def mpmath_series(pref, freqs, amps, theta):
    """pref * sum_f amp_f cos(f theta) at the float point theta, to ~40 digits.

    cos(theta) comes from mpmath at 40 digits and is rounded onto 2^-160; the
    series then runs as Clenshaw's recurrence in integers, on the amplitudes
    scaled exactly by 2^1074, so the only errors are the ~1e-40 of cos(theta),
    grown at most f_max^2-fold, and 2^-1074 per step."""
    frac = 160
    coeffs = [0] * (max(freqs) + 1)
    for f, a in zip(freqs, amps):
        num, den = a.as_integer_ratio()
        coeffs[f] = num << 1074 - (den.bit_length() - 1)
    with mp.workdps(40):
        x = int(mp.ldexp(mp.cos(theta), frac))
    # b_k = c_k + 2 x b_{k+1} - b_{k+2}; the sum is c_0 + x b_1 - b_2
    b1 = b2 = 0
    for c in reversed(coeffs[1:]):
        b1, b2 = c + ((x * b1) >> (frac - 1)) - b2, b1
    total = coeffs[0] + ((x * b1) >> frac) - b2
    with mp.workdps(40):
        return mp.mpf(pref) * mp.ldexp(total, -1074)


class TestMatchesScalarLoop:
    @pytest.mark.parametrize(
        "n,q,m,tol",
        [
            # the benchmark's Wigner and action cells
            (150, 0.0811, 152, 1e-12),
            (63, 0.004, 63, 1e-8),
            (5, 0.83, 4, 1e-12),
            (0, 0.5, 0, 1e-12),
            (0, 0.5, 1, 1e-8),
            # a_r underflows to +-0 for most r
            (300, 1e-4, 300, 1e-8),
            # many t
            (5, 0.9999, 5, 1e-8),
            (32, 0.97, 32, 1e-12),
        ],
    )
    def test_sinc_kernel(self, n, q, m, tol):
        qp = QParam.from_q(q)
        kernel = partial(sinc_kernel, m)
        assert_same_bytes(
            _wigner_spectrum(n, qp, tol, kernel), reference_spectrum(n, qp, tol, kernel)
        )

    def test_window_kernel(self, monkeypatch):
        seen = []

        def recording(n, qp, tol, kernel):
            seen.append((n, qp, tol, kernel))
            return _wigner_spectrum(n, qp, tol, kernel)

        monkeypatch.setattr(wigner, "_wigner_spectrum", recording)
        angle_distribution_from_wigner(3, 0.4, QParam.from_q(0.5), m_cut=40)
        (args,) = seen
        assert_same_bytes(_wigner_spectrum(*args), reference_spectrum(*args))

    def test_kernel_called_once_per_centre(self):
        qp = QParam.from_q(0.5)
        n, tol = 7, 1e-12
        calls = []

        def kernel(c2):
            calls.append(c2)
            return 1.0 if c2 == 2 * n else 0.0

        _wigner_spectrum(n, qp, tol, kernel)
        t_cut = _t_cutoff(qp.mu, tol)
        assert sorted(calls) == list(range(-t_cut, 2 * n + t_cut + 1))

    def test_memory_bound(self):
        qp = QParam.from_q(0.0811)
        _wigner_spectrum(150, qp, 1e-12, partial(sinc_kernel, 152))
        tracemalloc.start()
        try:
            _wigner_spectrum(150, qp, 1e-12, partial(sinc_kernel, 152))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20


class TestActionIsZeroFrequency:
    @pytest.mark.parametrize("q", [1e-4, 0.004, 0.3, 0.5, 0.85, 0.97])
    def test_matches_full_t_spectrum(self, q):
        # the f = 0 row of the spectrum holds t = s - r for every pair (r, s)
        # once the Gaussian truncation reaches |t| = n
        qp = QParam.from_q(q)
        for n in range(13):
            tol = math.exp(-qp.mu * n * n)
            assert _t_cutoff(qp.mu, tol) >= n
            for m in range(-2, n + 3):
                pref, freqs, amps = reference_spectrum(n, qp, tol, partial(sinc_kernel, m))
                amp0 = float(amps[0]) if freqs[0] == 0 else 0.0
                assert action_distribution(n, m, qp).hex() == (pref * amp0).hex(), (n, m)

    @pytest.mark.parametrize(
        "n,q,guard",
        [(300, 0.9999, r"1/\(q;q\)_n overflows"), (800, 0.997, "a_r a_s overflows")],
    )
    def test_same_overflow_as_spectrum(self, n, q, guard):
        qp = QParam.from_q(q)
        for m in (-1, 0, n, n + 1):
            with pytest.raises(OverflowError, match=guard) as spectrum:
                _wigner_spectrum(n, qp, 1e-8, partial(sinc_kernel, m))
            with pytest.raises(OverflowError) as action:
                action_distribution(n, m, qp)
            assert str(action.value) == str(spectrum.value)


class TestGridApply:
    # F = 81 and 71 frequencies, up to f = 155 and 75
    @pytest.mark.parametrize("n,q,m", [(150, 0.0811, 152), (32, 0.97, 32)])
    def test_matches_mpmath(self, n, q, m):
        # each sample rounds f theta (|f theta| <= pi f), cos and the product
        # amp_f cos once, before an exact math.fsum and the product with pref
        qp = QParam.from_q(q)
        pref, freqs, amps = _wigner_spectrum(n, qp, 1e-12, partial(sinc_kernel, m))
        bound = sys.float_info.epsilon * pref * math.fsum(
            abs(a) * (2.0 + math.pi * f) for f, a in zip(freqs, amps)
        )
        for k in (8, 257, 4096, 4099):
            grid = phase_grid(k)
            got = wigner_grid(n, m, qp, grid)
            assert type(got) is tuple and len(got) == k
            assert all(type(v) is float for v in got)
            for theta, value in zip(grid, got):
                with mp.workdps(40):
                    error = abs(value - mpmath_series(pref, freqs, amps, theta))
                assert error <= bound, (k, theta)

    def test_memory_bound(self):
        # the whole 16384 x 81 cosine matrix alone is 10 MiB
        qp = QParam.from_q(0.0811)
        grid = phase_grid(16384)
        wigner_grid(150, 152, qp, grid)
        tracemalloc.start()
        try:
            wigner_grid(150, 152, qp, grid)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20
