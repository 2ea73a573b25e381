"""The numpy Wigner spectrum against the scalar t/r/s loop it replaced, and
its exact grouped sum against math.fsum, both compared bitwise."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qps import QParam, angle_distribution_from_wigner, qfactorial
from qps import wigner
from qps.errors import ImaginaryResidueError
from qps.rspoly import _rs_row
from qps.wigner import _limb_counts, _round_limbs, _sinc_at, _t_cutoff, _wigner_spectrum


def reference_spectrum(n, qp, tol, kernel):
    """The scalar (t, r, s) loop with a per-slice math.fsum, kept as the oracle
    that the numpy assembly must match byte for byte."""
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
    freqs = np.array(sorted(folded), dtype=int)
    amps = np.array([folded[f] for f in sorted(folded)], dtype=float)
    return pref, freqs, amps


def assert_same_bytes(got, want):
    (pref, freqs, amps), (pref_ref, freqs_ref, amps_ref) = got, want
    assert pref.hex() == pref_ref.hex()
    assert freqs.tolist() == freqs_ref.tolist()
    assert amps.tobytes() == amps_ref.tobytes()


def grouped_fsum_matches(groups):
    slots = np.repeat(np.arange(len(groups)), [len(g) for g in groups])
    values = np.array([x for g in groups for x in g], dtype=float)
    sums = _round_limbs(_limb_counts(slots, values, len(groups)))
    return [s.hex() for s in sums] == [math.fsum(g).hex() for g in groups]


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
            # a_r underflows to +-0 for most r; blocks of r rows
            (300, 1e-4, 300, 1e-8),
            # many t: blocks of several whole t rows
            (5, 0.9999, 5, 1e-8),
            (32, 0.97, 32, 1e-12),
        ],
    )
    def test_sinc_kernel(self, n, q, m, tol):
        qp = QParam.from_q(q)
        kernel = _sinc_at(m)
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
        _wigner_spectrum(150, qp, 1e-12, _sinc_at(152))
        tracemalloc.start()
        try:
            _wigner_spectrum(150, qp, 1e-12, _sinc_at(152))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20


# every finite magnitude from subnormals up to 1e300, plus the edge values
finite = st.floats(min_value=-1e300, max_value=1e300) | st.sampled_from(
    [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -1e300, 1.0]
)


class TestExactGroupedSum:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.lists(finite, min_size=1, max_size=12), min_size=1, max_size=6))
    def test_matches_fsum(self, groups):
        assert grouped_fsum_matches(groups)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.lists(finite, min_size=1, max_size=12), min_size=1, max_size=6),
           st.randoms(use_true_random=False))
    def test_exact_cancellation(self, groups, rnd):
        # each group gains the negation of its own values: the exact sum is 0
        cancelled = []
        for g in groups:
            both = g + [-x for x in g]
            rnd.shuffle(both)
            cancelled.append(both)
        assert grouped_fsum_matches(cancelled)

    def test_zero_groups(self):
        assert grouped_fsum_matches([[0.0], [-0.0], [-0.0, -0.0], [0.0, -0.0, 5e-324, -5e-324]])

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 5000))
    def test_many_addends(self, seed, count):
        rng = np.random.default_rng(seed)
        # log-uniform magnitudes over the whole range, random signs, and
        # a run of near-equal values that cancel down to the last bits
        wide = rng.choice([-1.0, 1.0], count) * 10.0 ** rng.uniform(-320, 300, count)
        close = rng.choice([-1.0, 1.0], count) * (1.0 + rng.uniform(0, 1e-12, count))
        narrow = rng.uniform(-1.0, 1.0, count) * 2.0 ** rng.integers(-60, 60, count)
        assert grouped_fsum_matches([wide.tolist(), close.tolist(), narrow.tolist(), [3.5]])
